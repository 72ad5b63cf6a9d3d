"""Acceptance suite: one pass/fail line per criterion.

Each test prints ``criterion N: PASS`` (or FAIL) so a batch log shows the
gate status at a glance.  Criteria 6b and 6c encode trend and mean-error
targets that the generated gate-level netlists do not all meet at the
zero-mean operating point; those tests report the per-architecture
breakdown before failing.
"""

import itertools
import time

import mpmath
import numpy as np
import pytest

from rarenet.adders import ADDER_KINDS
from rarenet.archlib import ALL_KINDS, build_architecture
from rarenet.estimate import solve_sigma_for_bp1, sweep_bp1
from rarenet.multipliers import MULTIPLIER_KINDS
from rarenet.simulate import rare_nets, simulate
from rarenet.stats import (WordStats, alpha_msb, breakpoints,
                           empirical_bit_profile, empirical_word_stats,
                           rho_msb)
from rarenet.stimulus import generate

from conftest import make_stream, to_signed
from test_adders import adder_outputs
from test_simulate import as_int, bigint_reference


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {criterion}: {tag}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_closed_form_reference():
    start = time.monotonic()
    mpmath.mp.dps = 40
    worst = 0.0
    for k in range(1000):
        rho = -0.999 + k * (1.998 / 999)
        ref_r = float(2 / mpmath.pi * mpmath.asin(rho))
        ref_a = float(1 / mpmath.pi * mpmath.acos(rho))
        worst = max(worst, abs(rho_msb(rho) - ref_r),
                    abs(alpha_msb(rho) - ref_a),
                    abs(rho_msb(rho) / 2 + alpha_msb(rho) - 0.5))
    elapsed = time.monotonic() - start
    report("1", worst <= 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_breakpoint_fixture():
    bp = breakpoints(WordStats(0.0, 1024.0, 0.99, 16))
    report("2", (bp.bp0, bp.bp1) == (8, 11), f"got ({bp.bp0}, {bp.bp1})")


def test_criterion_3_functional_equivalence():
    start = time.monotonic()
    ok = True
    detail = []
    pairs = np.arange(65536)
    a8 = pairs >> 8
    b8 = pairs & 0xFF
    for kind in ADDER_KINDS:
        nl = build_architecture(kind, 8)
        got = adder_outputs(nl, a8, b8)
        if not np.array_equal(got, a8 + b8):
            ok = False
            detail.append(f"{kind} N=8 mismatch")
    rng = np.random.default_rng(11)
    a16 = rng.integers(0, 1 << 16, 100_000)
    b16 = rng.integers(0, 1 << 16, 100_000)
    for kind in ADDER_KINDS:
        nl = build_architecture(kind, 16)
        got = adder_outputs(nl, a16, b16)
        if not np.array_equal(got, a16 + b16):
            ok = False
            detail.append(f"{kind} N=16 mismatch")
    for kind in MULTIPLIER_KINDS:
        nl = build_architecture(kind, 8)
        got = adder_outputs(nl, a8, b8)
        want = (to_signed(a8, 8) * to_signed(b8, 8)) & 0xFFFF
        if not np.array_equal(got, want):
            ok = False
            detail.append(f"{kind} N=8 mismatch")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        ok = False
        detail.append(f"runtime {elapsed:.1f}s")
    report("3", ok, "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_4_simulator_oracle():
    start = time.monotonic()
    ok = True
    detail = []
    quads = list(itertools.product(range(16), repeat=2))
    a4 = [q[0] for q in quads]
    b4 = [q[1] for q in quads]
    rng = np.random.default_rng(13)
    a8 = rng.integers(-128, 128, 10_000)
    b8 = rng.integers(-128, 128, 10_000)
    for kind in ALL_KINDS:
        for width, a, b in ((4, a4, b4), (8, a8, b8)):
            nl = build_architecture(kind, width)
            from rarenet.simulate import evaluate
            got = evaluate(nl, make_stream(a, width), make_stream(b, width))
            ref = bigint_reference(nl, a, b)
            for net, wave in got.items():
                if as_int(wave) != ref[net]:
                    ok = False
                    detail.append(f"{kind} N={width} net {net}")
                    break
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        ok = False
        detail.append(f"runtime {elapsed:.1f}s")
    report("4", ok, "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_5_localization():
    start = time.monotonic()
    nl = build_architecture("RCA", 16)
    sigma = solve_sigma_for_bp1(8, 0.99)
    st = WordStats(4096.0, sigma, 0.99, 16)
    sa = generate(st, 10_000, 1)
    sb = generate(st, 10_000, 2)
    profile = simulate(nl, sa, sb)
    rare = rare_nets(profile, 1e-5) & set(nl.gate_nets)
    block_of = dict(zip(nl.gate_nets, (g.block for g in nl.gates)))
    high = {f"FA{i}" for i in range(8, 16)}
    top = {f"FA{i}" for i in range(13, 16)}
    contained = bool(rare) and all(block_of[n] in high for n in rare)
    floor = min(profile.toggles[n] for n in rare) if rare else None
    rarest = {n for n in rare if profile.toggles[n] == floor}
    localized = bool(rarest) and all(block_of[n] in top for n in rarest)
    elapsed = time.monotonic() - start
    report("5", contained and localized and elapsed < 10,
           f"{len(rare)} rare nets, {len(rarest)} rarest, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def full_sweeps():
    sweeps = {}
    for kind in ALL_KINDS:
        nl = build_architecture(kind, 16)
        sweeps[kind] = sweep_bp1(nl, 0.99, 1e-4, range(6, 14),
                                 stream_len=10_000, seed=1)
    return sweeps


def test_criterion_6a_upper_bound(full_sweeps):
    bad = []
    for kind, res in full_sweeps.items():
        for p in res.points:
            if p.report.simulated_count > p.report.estimated_count:
                bad.append(f"{kind}@bp1={p.bp1_target}")
    report("6a", not bad, "; ".join(bad))


def test_criterion_6b_error_trend(full_sweeps):
    bad = []
    for kind, res in full_sweeps.items():
        first, last = res.points[0].report, res.points[-1].report
        if not last.abs_error < first.abs_error:
            bad.append(f"{kind} e(13)={last.abs_error:.3f} "
                       f"e(6)={first.abs_error:.3f}")
    report("6b", not bad, "; ".join(bad))


def test_criterion_6c_mean_error(full_sweeps):
    bad = []
    for kind, res in full_sweeps.items():
        if not res.mean_error < 0.10:
            bad.append(f"{kind} mean error {res.mean_error:.3f}")
    report("6c", not bad, "; ".join(bad))


def test_criterion_7_stimulus_fidelity():
    start = time.monotonic()
    target = WordStats(0.0, 1024.0, 0.99, 16)
    got = empirical_word_stats(generate(target, 10_000, 3))
    ok = (abs(got.mean) <= 0.1 * target.std_dev
          and abs(got.std_dev / target.std_dev - 1) <= 0.05
          and abs(got.rho / target.rho - 1) <= 0.05)
    flat = generate(WordStats(0.0, 1024.0, 0.0, 16), 10_000, 3)
    prof = empirical_bit_profile(flat)
    lsb_ok = all(abs(prof.activities[i] - 0.5) <= 0.02 for i in range(6))
    elapsed = time.monotonic() - start
    report("7", ok and lsb_ok and elapsed < 5,
           f"mean {got.mean:.1f}, sigma {got.std_dev:.1f}, "
           f"rho {got.rho:.4f}, {elapsed:.1f}s")


def test_criterion_8_replicate_determinism(tmp_path):
    import filecmp

    from rarenet.cli import main
    from rarenet.config import ExperimentConfig, save_config

    archs = tuple((k, w) for k in ALL_KINDS for w in (8, 16))
    cfg = ExperimentConfig(architectures=archs, vectors=10_000,
                           thresholds=(1e-4,), seed=1)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    codes = []
    for d in ("r1", "r2"):
        codes.append(main(["replicate", "--config", str(path),
                           "--out", str(tmp_path / d)]))

    def identical(d1, d2):
        cmp = filecmp.dircmp(d1, d2)
        if cmp.left_only or cmp.right_only or cmp.diff_files:
            return False
        return all(identical(d1 / s, d2 / s) for s in cmp.subdirs)

    same = identical(tmp_path / "r1", tmp_path / "r2")
    status = (tmp_path / "r1" / "manifest.txt").read_text().splitlines()[0]
    report("8", codes == [0, 0] and same and status == "status=complete",
           f"exit codes {codes}, trees identical: {same}")
