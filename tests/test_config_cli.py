import csv
import filecmp
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from rarenet.archlib import build_architecture
from rarenet.cli import main
from rarenet.config import (
    emit,
    ConfigError,
    ExperimentConfig,
    default_bp1_targets,
    load_config,
    parse,
    save_config,
)
from rarenet.estimate import sweep_bp1, write_report_csv
from rarenet.netlist import load_netlist
from rarenet.stimulus import load_stream

from conftest import mutations


def small_config(**overrides):
    base = dict(
        architectures=(("RCA", 8), ("CKA", 8)),
        vectors=400,
        thresholds=(1e-3,),
        bp1_targets=(3, 4),
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_emit_parse_round_trip():
    cfg = small_config()
    assert parse(emit(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = small_config()
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_parse_accepts_comments_and_blanks():
    cfg = parse("# experiment\n\narchitectures = RCA:16\nvectors = 50\n")
    assert cfg.architectures == (("RCA", 16),)
    assert cfg.vectors == 50
    assert cfg.thresholds == (1e-6,)


def test_config_parse_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse("vectors = 100\n")  # architectures missing
    with pytest.raises(ConfigError):
        parse("architectures = RCA:16\nwombat = 3\n")
    with pytest.raises(ConfigError):
        parse("architectures = RCA:16\nvectors = soon\n")
    with pytest.raises(ConfigError):
        parse("architectures = RCA:sixteen\n")


def test_config_parse_rejects_repeated_key():
    with pytest.raises(ConfigError, match="line 3"):
        parse("architectures = RCA:8\nvectors = 50\narchitectures = CKA:8\n")


@settings(max_examples=300, deadline=None)
@given(mutations(emit(small_config())))
def test_mutated_config_parses_or_raises_config_error(text):
    try:
        parse(text)
    except ConfigError:
        pass


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(architectures=())
    with pytest.raises(ConfigError):
        small_config(vectors=1)
    with pytest.raises(ConfigError):
        small_config(thresholds=(2.0,))
    with pytest.raises(ConfigError):
        small_config(thresholds=(1e-3, 1e-4))
    with pytest.raises(ConfigError):
        small_config(thresholds=())
    for bad in (dict(rho_a=1.0), dict(rho_b=1.5), dict(seed=-1),
                dict(bp1_targets=(3, -3)), dict(bp1_targets=(2000,)),
                dict(bp1_targets=(3, 3)),
                dict(architectures=(("RCA", 8), ("CKA", 8), ("RCA", 8)))):
        with pytest.raises(ConfigError):
            small_config(**bad)


def test_default_boundary_targets_by_width():
    assert default_bp1_targets(16) == (6, 7, 8, 9, 10, 11, 12, 13)
    assert default_bp1_targets(8) == (2, 3, 4, 5)


def test_cli_gen_vectors_and_round_trip(tmp_path):
    out = tmp_path / "s.txt"
    rc = main(["gen-vectors", "--width", "8", "--std", "16", "--rho", "0.9",
               "--vectors", "100", "--seed", "2", "--out", str(out)])
    assert rc == 0
    stream = load_stream(out)
    assert len(stream) == 100
    assert stream.bit_width == 8


def test_cli_build_netlist(tmp_path):
    out = tmp_path / "n.net"
    rc = main(["build-netlist", "--arch", "rca:8", "--out", str(out)])
    assert rc == 0
    nl = load_netlist(out)
    assert nl.width == 8 and not nl.is_multiplier


def test_cli_simulate_pipeline(tmp_path):
    net = tmp_path / "n.net"
    sa = tmp_path / "a.txt"
    sb = tmp_path / "b.txt"
    act = tmp_path / "act.csv"
    assert main(["build-netlist", "--arch", "RCA:8", "--out", str(net)]) == 0
    for seed, path in ((1, sa), (2, sb)):
        assert main(["gen-vectors", "--width", "8", "--std", "16",
                     "--rho", "0.9", "--vectors", "200", "--seed", str(seed),
                     "--out", str(path)]) == 0
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(act)])
    assert rc == 0
    lines = act.read_text().splitlines()
    assert lines[0].startswith("net_id,")
    assert len(lines) > 40


def _simulate_inputs(tmp_path):
    """RCA:4 netlist and two 20-vector streams written through the CLI."""
    net = tmp_path / "n.net"
    streams = []
    assert main(["build-netlist", "--arch", "RCA:4", "--out", str(net)]) == 0
    for seed in (1, 2):
        path = tmp_path / f"s{seed}.txt"
        assert main(["gen-vectors", "--width", "4", "--std", "1",
                     "--rho", "0.5", "--vectors", "20", "--seed", str(seed),
                     "--out", str(path)]) == 0
        streams.append(path)
    return net, streams


def test_cli_simulate_stream_header_missing_key_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    header, body = sa.read_text().split("\n", 1)
    sa.write_text(" ".join(f for f in header.split()
                           if not f.startswith("seed=")) + "\n" + body)
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_simulate_malformed_netlist_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    lines = net.read_text().splitlines()
    # re-point one gate input at a net that nothing drives
    k = next(i for i, ln in enumerate(lines) if ln.startswith("gate "))
    fields = lines[k].split()
    fields = [f"in=999,{f.split(',')[1]}" if f.startswith("in=") else f
              for f in fields]
    lines[k] = " ".join(fields)
    net.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
               "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _rewrite_netlist(net, edit):
    """Apply `edit` to the lines of a netlist file in place."""
    net.write_text("\n".join(edit(net.read_text().splitlines())) + "\n")


def _simulate_exit_code(tmp_path, net, sa, sb):
    return main(["simulate", "--netlist", str(net), "--stream-a", str(sa),
                 "--stream-b", str(sb), "--out", str(tmp_path / "act.csv")])


def test_cli_simulate_netlist_header_without_width_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    _rewrite_netlist(net, lambda lines: ["arch=rca"] + lines[1:])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "arch=rca" in capsys.readouterr().err


def test_cli_simulate_truncated_net_line_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    _rewrite_netlist(net, lambda lines: [
        "net 3" if ln.startswith("net 3 ") else ln for ln in lines])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "'net 3'" in capsys.readouterr().err


def test_cli_simulate_unknown_primary_input_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    # an unrecognised operand pin would otherwise be tied low silently
    _rewrite_netlist(net, lambda lines: [
        ln.replace(" a3 pi", " x3 pi") for ln in lines])
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "x3" in capsys.readouterr().err


def test_cli_simulate_net_id_gap_exits_2(tmp_path, capsys):
    net, (sa, sb) = _simulate_inputs(tmp_path)
    # shift every net id >= 20 up by one, in net, gate and outputs lines:
    # consistent, but the simulator and writers index nets by position
    net.write_text(re.sub(
        r"(net |out=|in=|,|outputs )(\d+)",
        lambda m: m[1] + str(int(m[2]) + (int(m[2]) >= 20)),
        net.read_text()))
    assert _simulate_exit_code(tmp_path, net, sa, sb) == 2
    assert "0..n-1" in capsys.readouterr().err


def test_cli_estimate_prints_summary(capsys):
    rc = main(["estimate", "--arch", "RCA:16", "--std", "1024",
               "--rho", "0.99"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bp1=11" in out and "p_est=" in out


def test_cli_compare_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.csv"
    rc = main(["compare", "--arch", "RCA:8", "--std", "16", "--rho", "0.9",
               "--vectors", "300", "--out", str(out)])
    assert rc == 0
    assert "error=" in capsys.readouterr().out
    assert out.read_text().startswith("arch,width,rho,sigma")


def test_cli_sweep_reports_mean_error(capsys):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9",
               "--bp1", "4", "--bp1", "3", "--vectors", "300",
               "--threshold", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.index("bp1=3") < out.index("bp1=4")
    assert "mean_error=" in out


def test_cli_sweep_repeated_target_exits_2(capsys):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1", "3",
               "--bp1", "3", "--vectors", "300"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "bp1=" not in captured.out
    assert "twice" in captured.err


@pytest.mark.parametrize("target", ["-2", "2000"])
def test_cli_sweep_target_outside_word_exits_2(capsys, target):
    rc = main(["sweep", "--arch", "RCA:8", "--rho", "0.9", "--bp1", target,
               "--vectors", "300"])
    assert rc == 2
    assert "bp1=" not in capsys.readouterr().out


def test_cli_locate_annotates_rare_nets(capsys):
    rc = main(["locate", "--arch", "RCA:16", "--mean", "4096",
               "--std", "142", "--rho", "0.99", "--vectors", "2000",
               "--threshold", "1e-4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vulnerable columns" in out
    assert "estimated region" in out


def test_cli_locate_no_sim(capsys):
    rc = main(["locate", "--arch", "RCA:16", "--std", "1024", "--rho", "0.99",
               "--no-sim"])
    assert rc == 0
    assert "simulated rare nets" not in capsys.readouterr().out


def test_cli_rejects_invalid_stats():
    assert main(["estimate", "--arch", "RCA:16", "--std", "-5",
                 "--rho", "0.99"]) == 2
    assert main(["estimate", "--arch", "RCA:16", "--std", "1024",
                 "--rho", "1.5"]) == 2


def assert_trees_identical(d1: Path, d2: Path):
    cmp = filecmp.dircmp(d1, d2)
    assert not cmp.left_only and not cmp.right_only and not cmp.diff_files
    for name, sub in cmp.subdirs.items():
        assert not sub.left_only and not sub.right_only and not sub.diff_files


def test_cli_replicate_is_deterministic(tmp_path):
    cfg = small_config(vectors=300)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["replicate", "--config", str(path), "--out", str(d)]) == 0
    assert (d1 / "manifest.txt").read_text().startswith("status=complete\n")
    assert (d1 / "reports" / "summary.csv").exists()
    assert_trees_identical(d1, d2)


def test_cli_replicate_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    for text in ("vectors = 100\n",
                 "architectures = RCA:8\nstd_a = 16\n",
                 "architectures = RCA:8\nthresholds = 1e-4, 1e-3\n",
                 "architectures = RCA:8\nrho_a = 1.0\n",
                 "architectures = RCA:8\nrho_b = 1.5\n",
                 "architectures = RCA:8\nseed = -1\n",
                 "architectures = RCA:8\nbp1_targets = -3\n",
                 "architectures = RCA:8\narchitectures = CKA:8\n",
                 "architectures = RCA:12\n",
                 "architectures = FOO:8\n",
                 "architectures = RCA:8, rca:8\n",
                 "architectures = RCA:8\nbp1_targets = 3, 3\n"):
        path.write_text(text)
        assert main(["replicate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2, text
        assert not (tmp_path / "o").exists(), text


GOLDEN_BATCH = Path(__file__).parent / "data" / "replicate_rca8_booth8"


def test_cli_replicate_matches_golden_reports(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8, BOOTH:8\nvectors = 2000\n"
                    "thresholds = 1e-3\nbp1_targets = 3, 4\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    for rel in ("manifest.txt", "reports/summary.csv",
                "reports/sweep_rca8.csv", "reports/sweep_booth8.csv"):
        assert (out / rel).read_bytes() == (GOLDEN_BATCH / rel).read_bytes(), rel


def test_cli_replicate_solves_sigma_per_operand(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8\nvectors = 400\n"
                    "thresholds = 1e-3\nbp1_targets = 3, 4\n"
                    "rho_a = 0.99\nrho_b = 0.5\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "reports" / "sweep_rca8.csv", newline="") as fh:
        assert [int(r["bp1"]) for r in csv.DictReader(fh)] == [3, 4]


def test_cli_replicate_report_matches_sweep(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("architectures = RCA:8\nvectors = 400\n"
                    "thresholds = 1e-3\nbp1_targets = 4, 2, 3\n"
                    "rho_a = 0.9\nrho_b = 0.9\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 0
    res = sweep_bp1(build_architecture("RCA", 8), 0.9, 1e-3, (4, 2, 3),
                    stream_len=400, seed=5)
    write_report_csv(res.reports, tmp_path / "sweep.csv")
    assert ((out / "reports" / "sweep_rca8.csv").read_bytes()
            == (tmp_path / "sweep.csv").read_bytes())



def test_malloc_thresholds_skipped_where_libc_has_no_mallopt(monkeypatch):
    import rarenet.cli

    monkeypatch.setattr(rarenet.cli.ctypes, "CDLL", lambda name: object())
    assert rarenet.cli._fix_malloc_thresholds.__wrapped__() is None
