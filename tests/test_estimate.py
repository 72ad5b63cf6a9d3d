import csv
import math

import numpy as np
import pytest

from rarenet.estimate import (
    SweepResult,
    check_report,
    compare,
    effective_slice_start,
    estimate_rare_nets,
    operating_points,
    solve_sigma_for_bp1,
    sweep_bp1,
    write_report_csv,
)
from rarenet.netlist import NetlistBuilder
from rarenet.stats import Breakpoints, WordStats, breakpoints
from rarenet.stimulus import dump_stream, generate, unit_chain

from conftest import ADDERS, MULTS

BP_8_11 = breakpoints(WordStats(0.0, 1024.0, 0.99, 16))


def test_reference_operating_point_boundaries():
    assert (BP_8_11.bp0, BP_8_11.bp1) == (8, 11)


def test_estimate_counts_slice_population(netlist_of):
    nl = netlist_of("RCA", 16)
    rep = estimate_rare_nets(nl, Breakpoints(5, 8), Breakpoints(5, 8))
    assert rep.estimated_count == 40
    assert rep.estimated_nets == {net for net, g in zip(nl.gate_nets, nl.gates)
                                  if g.bit_slice >= 8}
    assert sum(c for _, c in rep.contributing_blocks) == 40


def test_estimate_whole_module_at_column_zero(netlist_of):
    nl = netlist_of("RCA", 16)
    rep = estimate_rare_nets(nl, Breakpoints(0, 0), Breakpoints(0, 0))
    assert rep.estimated_count == len(nl.gates)


def test_estimate_rejects_out_of_range_boundary(netlist_of):
    nl = netlist_of("RCA", 16)
    with pytest.raises(ValueError):
        estimate_rare_nets(nl, Breakpoints(0, 17), Breakpoints(0, 17))


def two_gate_netlist():
    bld = NetlistBuilder("demo", 2)
    a0, b0 = bld.input("a0"), bld.input("b0")
    bld.set_outputs([bld.gate("XOR", (a0, b0), 0, "bit0"),
                     bld.gate("AND", (a0, b0), 1, "bit0")])
    return bld.build()


def test_estimate_rejects_column_outside_output_width():
    nl = two_gate_netlist()
    for col in (2, -1):
        with pytest.raises(ValueError):
            estimate_rare_nets(nl, Breakpoints(0, col), Breakpoints(0, col))


def test_estimate_excludes_primary_inputs():
    nl = two_gate_netlist()
    for col, nets in ((0, {2, 3}), (1, {3})):
        bp = Breakpoints(0, col)
        assert estimate_rare_nets(nl, bp, bp).estimated_nets == nets


def test_estimated_nets_shrink_as_column_rises(netlist_of):
    nl = netlist_of("CLA", 16)
    sets = [estimate_rare_nets(nl, Breakpoints(0, col),
                               Breakpoints(0, col)).estimated_nets
            for col in range(nl.output_width)]
    assert all(later <= earlier for earlier, later in zip(sets, sets[1:]))


def test_adder_boundary_combines_pessimistically(netlist_of):
    nl = netlist_of("CLA", 16)
    bp = effective_slice_start(nl, Breakpoints(4, 9), Breakpoints(6, 12))
    assert (bp.bp0, bp.bp1) == (4, 12)


def test_multiplier_boundary_sums_and_clamps(netlist_of):
    nl = netlist_of("DADDA", 16)
    bp = effective_slice_start(nl, Breakpoints(8, 11), Breakpoints(8, 11))
    assert (bp.bp0, bp.bp1) == (16, 22)
    bp = effective_slice_start(nl, Breakpoints(15, 15), Breakpoints(15, 15))
    assert (bp.bp0, bp.bp1) == (30, 30)


def test_estimated_count_monotone_in_boundary(netlist_of):
    for kind in ADDERS + MULTS:
        nl = netlist_of(kind, 16)
        counts = [
            estimate_rare_nets(nl, Breakpoints(0, b), Breakpoints(0, 0)).estimated_count
            for b in range(16)
        ]
        assert counts == sorted(counts, reverse=True), kind


def test_sigma_solve_round_trips_through_breakpoints():
    for bp1 in range(5, 14):
        sigma = solve_sigma_for_bp1(bp1, 0.99)
        got = breakpoints(WordStats(0.0, sigma, 0.99, 16))
        assert got.bp1 == bp1, (bp1, sigma, got)


def test_sigma_solve_reference_values():
    assert solve_sigma_for_bp1(8, 0.99) == pytest.approx(142.1, abs=0.5)
    assert solve_sigma_for_bp1(13, 0.99) == pytest.approx(4548.4, abs=2.0)
    with pytest.raises(ValueError):
        solve_sigma_for_bp1(8, 1.0)


def test_sigma_solve_rejects_target_outside_word():
    for bp1 in (-2, 65, 2000):
        with pytest.raises(ValueError, match="0..64"):
            solve_sigma_for_bp1(bp1, 0.99)


def test_compare_is_deterministic(netlist_of):
    nl = netlist_of("RCA", 8)
    st = WordStats(0.0, 16.0, 0.9, 8)
    r1 = compare(nl, st, st, threshold=1e-3, stream_len=2000, seed=7)
    r2 = compare(nl, st, st, threshold=1e-3, stream_len=2000, seed=7)
    assert (r1.simulated_count, r1.abs_error) == (r2.simulated_count, r2.abs_error)
    assert r1.simulated_count is not None
    assert r1.stats_a == st


def test_estimate_upper_bounds_simulation(netlist_of):
    """Zero-mean operation: no simulated rare net count exceeds the estimate."""
    for kind in ADDERS + MULTS:
        nl = netlist_of(kind, 16)
        st = WordStats(0.0, solve_sigma_for_bp1(10, 0.99), 0.99, 16)
        rep = compare(nl, st, st, threshold=1e-4, stream_len=4000, seed=3)
        assert rep.simulated_count <= rep.estimated_count, kind


def test_simulated_count_monotone_in_threshold(netlist_of):
    nl = netlist_of("CKA", 16)
    st = WordStats(0.0, solve_sigma_for_bp1(10, 0.99), 0.99, 16)
    counts = [
        compare(nl, st, st, threshold=t, stream_len=3000, seed=2).simulated_count
        for t in (1e-5, 1e-4, 1e-3, 1e-2)
    ]
    assert counts == sorted(counts)


def test_offset_stimulus_localizes_rarity_to_high_slices(netlist_of):
    """Frozen-sign operation: rare activity sits above the upper boundary."""
    sigma = solve_sigma_for_bp1(8, 0.99)
    st = WordStats(4096.0, sigma, 0.99, 16)
    for kind in ADDERS:
        nl = netlist_of(kind, 16)
        rep = estimate_rare_nets(nl, breakpoints(st), breakpoints(st), 1e-5)
        sim = simulated_rare(nl, st, rep)
        assert sim, kind
        inside = len(sim & rep.estimated_nets)
        # prefix-tree adders keep a few rare carry nets below the boundary
        assert inside / len(sim) >= 0.85, (kind, inside, len(sim))


def simulated_rare(nl, st, rep):
    from rarenet.simulate import simulate

    prof = simulate(nl, generate(st, 10_000, 1), generate(st, 10_000, 2))
    return check_report(nl, rep, prof).simulated_nets


def test_degenerate_threshold_marks_everything_rare(netlist_of):
    nl = netlist_of("RCA", 8)
    st = WordStats(0.0, 16.0, 0.9, 8)
    rep = compare(nl, st, st, threshold=1.0, stream_len=500, seed=1)
    from rarenet.simulate import constant_nets
    dead = constant_nets(nl) & set(nl.gate_nets)
    assert rep.simulated_count == len(nl.gates) - len(dead)


def test_zero_simulated_count_is_flagged(netlist_of):
    nl = netlist_of("RCA", 8)
    st = WordStats(0.0, 16.0, 0.9, 8)
    rep = compare(nl, st, st, threshold=0.0, stream_len=500, seed=1)
    assert rep.simulated_count == 0
    assert rep.abs_error == rep.estimated_count


def test_sweep_orders_points_and_averages_error(netlist_of):
    nl = netlist_of("RCA", 8)
    res = sweep_bp1(nl, 0.9, 1e-3, [5, 3, 4], stream_len=1000, seed=1)
    assert [p.bp1_target for p in res.points] == [3, 4, 5]
    errs = [p.report.abs_error for p in res.points]
    assert res.mean_error == pytest.approx(sum(errs) / 3)


def test_sweep_without_points_has_nan_mean_error():
    assert math.isnan(SweepResult(()).mean_error)


def test_sweep_rejects_target_outside_word(netlist_of):
    with pytest.raises(ValueError, match=r"\[9\]"):
        sweep_bp1(netlist_of("RCA", 8), 0.99, 1e-3, [3, 9], stream_len=100)


def test_sweep_rejects_misfit_target_before_the_census(netlist_of,
                                                      monkeypatch):
    from rarenet import estimate

    def no_census(*args):
        raise AssertionError("census before the targets were checked")

    monkeypatch.setattr(estimate, "census", no_census)
    with pytest.raises(ValueError, match=r"\[9\]"):
        sweep_bp1(netlist_of("RCA", 8), 0.99, 1e-3, [3, 9], stream_len=100)


def test_operating_points_solve_each_operand_and_skip_misfits():
    points = list(operating_points(8, [9, 4, 3], 0.99, 0.5, 50, seed=7))
    assert [t for t, _, _ in points] == [3, 4]
    for t, sa, sb in points:
        assert (sa.seed, sb.seed) == (7, 8)
        assert len(sa) == len(sb) == 50
        assert sa.target.std_dev == solve_sigma_for_bp1(t, 0.99)
        assert sb.target == WordStats(0.0, solve_sigma_for_bp1(t, 0.5), 0.5, 8)



def test_operating_points_share_one_chain_per_operand(monkeypatch):
    """Every point quantises the same two chains, yet each stream equals
    `generate` for its own target, word for word."""
    from rarenet import estimate
    built = []

    def counting_chain(rho, length, seed):
        built.append((rho, seed))
        return unit_chain(rho, length, seed)

    monkeypatch.setattr(estimate, "unit_chain", counting_chain)
    mean, rho_a, rho_b = 100.0, 0.99, 0.9
    points = list(operating_points(16, [13, 4, 8, 15], rho_a, rho_b, 3000,
                                   seed=5, mean=mean))
    assert [t for t, _, _ in points] == [4, 8, 13]  # 15 misfits operand A
    assert built == [(rho_a, 5), (rho_b, 6)]
    for t, sa, sb in points:
        ref_a = generate(WordStats(mean, solve_sigma_for_bp1(t, rho_a), rho_a,
                                   16), 3000, 5)
        ref_b = generate(WordStats(mean, solve_sigma_for_bp1(t, rho_b), rho_b,
                                   16), 3000, 6)
        for got, ref in ((sa, ref_a), (sb, ref_b)):
            assert np.array_equal(got.words, ref.words)
            assert (got.seed, got.target) == (ref.seed, ref.target)
            assert dump_stream(got) == dump_stream(ref)

def test_report_csv_round_trip(tmp_path, netlist_of):
    nl = netlist_of("RCA", 8)
    st = WordStats(0.0, 16.0, 0.9, 8)
    rep = compare(nl, st, st, threshold=1e-3, stream_len=500, seed=1)
    cpath = tmp_path / "rep.csv"
    write_report_csv([rep], cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["arch"] == "rca"
    assert int(rows[0]["p_est"]) == rep.estimated_count
    assert int(rows[0]["p_sim"]) == rep.simulated_count
