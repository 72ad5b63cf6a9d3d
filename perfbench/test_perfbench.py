"""Tests of the benchmark's own parts.  Run with `python3 -m pytest perfbench`."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans

rarenet = run.import_rarenet()

import recount  # noqa: E402
import workloads  # noqa: E402
from rarenet.netlist import export_netlist  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _simulated_rca8(tmp_path: Path):
    nl = rarenet.build_architecture("RCA", 8)
    target = rarenet.WordStats(0.0, 40.0, 0.9, 8)
    a = rarenet.generate(target, 3000, 1)
    b = rarenet.generate(target, 3000, 2)
    csv_path = tmp_path / "rca8.csv"
    rarenet.export_activity(nl, rarenet.simulate(nl, a, b), csv_path)
    info = recount.parse_netlist(export_netlist(nl))
    return info, csv_path.read_text(), a.words, b.words


def _with_toggles(text: str, net_id: int, toggles: int) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(net_id):
            cells[4] = str(toggles)
            cells[6] = f"{toggles / (int(cells[5]) - 1):.12f}"
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_accepts_simulator_output(tmp_path):
    info, text, a, b = _simulated_rca8(tmp_path)
    assert recount.check_activity(recount.parse_activity(text), info, a, b) == []


def test_checker_flags_one_changed_toggle_count(tmp_path):
    info, text, a, b = _simulated_rca8(tmp_path)
    net = info.outputs[3]
    rows = recount.parse_activity(text)
    bad = _with_toggles(text, net, rows[net].toggles + 1)
    problems = recount.check_activity(recount.parse_activity(bad), info, a, b)
    assert len(problems) == 1 and f"net {net}" in problems[0]


def test_checker_flags_sign_extended_carry_out(tmp_path):
    info, text, a, b = _simulated_rca8(tmp_path)
    sign_extended = recount.bit_toggles(a + b, 9)[8]
    carry_out = recount.bit_toggles((a & 255) + (b & 255), 9)[8]
    assert sign_extended != carry_out
    bad = _with_toggles(text, info.outputs[-1], sign_extended)
    assert recount.check_activity(recount.parse_activity(bad), info, a, b)


def test_multiplier_recount_uses_signed_product():
    a = np.array([3, -2, -2, 5], dtype=np.int64)
    b = np.array([-1, -1, 4, 4], dtype=np.int64)
    info = recount.NetlistInfo(4, {}, tuple(range(8)), {})
    expected = recount.expected_toggles(info, a, b)
    products = (a * b) & 0xFF
    for k in range(8):
        bits = (products >> k) & 1
        assert expected[k] == int(np.count_nonzero(np.diff(bits)))


def test_self_times_of_nested_spans():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("a.inner", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("c", 8.0, 12.0, 0),   # overlaps b and outlives its parent
    ]
    assert spans.self_times(tree) == [
        10.0 - 3.0 - 5.0,  # children cover [1,4] and [5,10]
        2.0, 1.0, 4.0, 4.0]


def test_self_times_account_for_root_duration():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("root", lambda: [mid(), leaf()])
    root()
    by_name = tracer.self_time_by_name()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(by_name.values()) == pytest.approx(total, rel=1e-9)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1, 0]


def test_estimate_check_flags_a_miscount(tmp_path):
    grid = workloads.EstimateGrid(tmp_path, 1)
    slices, _, _ = grid._gate_slices("RCA", 8)
    want = sum(1 for s in slices if s >= 5)
    good = f"arch=rca width=8 bp0=3 bp1=5 p_est={want}\n  X: {want}\n"
    bad = f"arch=rca width=8 bp0=3 bp1=5 p_est={want + 1}\n  X: {want + 1}\n"
    assert grid._check_query("estimate", "RCA", 8, good) == []
    assert grid._check_query("estimate", "RCA", 8, bad)


TINY = {
    "batch_sweep": dict(vectors=400, kinds=("RCA", "CSA", "BOOTH"), widths=(8,)),
    "files_wide": dict(vectors=400, archs=(("KSA", 32), ("DADDA", 8))),
    "estimate_grid": dict(rhos=(0.99,), archs=[("CLA", 8), ("VEDIC", 8)]),
}


def _measure(tmp_path, name, trace):
    return run.measure(rarenet, workloads.WORKLOADS[name], 3, 0.0, trace,
                       tmp_path, 0.0, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_has_no_failures(tmp_path, name):
    result = _measure(tmp_path, name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert ({m["name"] for m in BENCHMARK["end_to_end"]}
            == set(result["metrics"]))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_smoke_run_reports_every_layer(tmp_path, name):
    result = _measure(tmp_path, name, trace=True)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(metrics)
    assert metrics["trace.span_coverage"]["value"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("name", ["batch_sweep", "files_wide"])
def test_corrupted_toggle_count_is_a_failure(tmp_path, monkeypatch, name):
    export = rarenet.cli.export_activity

    def corrupt(netlist, profile, path):
        toggles = dict(profile.toggles)
        toggles[netlist.primary_outputs[0]] += 1
        export(netlist, dataclasses.replace(profile, toggles=toggles), path)

    monkeypatch.setattr(rarenet.cli, "export_activity", corrupt)
    result = _measure(tmp_path, name, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
