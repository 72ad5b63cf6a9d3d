"""Analytical rare-net estimation and simulation cross-checks.

The estimator predicts which nets switch rarely from operand word
statistics alone: the bit-level activity model gives the column above
which operand bits are dominated by correlated sign behaviour, and every
gate at or above that column is predicted rare.  For a multiplier the
operand log-magnitudes add, so the product-side boundary is taken as the
sum of the two operand boundaries (clamped to the product width).

An estimate holds no threshold.  `check_report` is the one place one is
applied: it records it and takes the simulated rare set (gate-output nets
at or below it) from a toggle profile, and the report derives the relative
count error |simulated - estimated| / max(simulated, 1); points where the
simulation found no rare nets keep the whole estimate as error.
`operating_points` is the one sweep loop (`sweep_bp1`, `cli.run`) and
the one owner of a batch's two AR(1) chains.  `score_points` is the one
scoring loop: it estimates every operating point of a netlist, counts
their toggles in one census and scores each (`compare`, `sweep_bp1`,
`cli.run`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .netlist import Netlist
from .simulate import (RARE_THRESHOLD, PackedPoints, ToggleProfile, census,
                       check_threshold, pack_points, rare_nets)
from .stats import Breakpoints, WordStats, breakpoints, rho_msb
from .stimulus import (DEFAULT_SEED, DEFAULT_VECTORS, generate, quantise,
                       unit_chain)


@dataclass(frozen=True)
class RareNetReport:
    """Estimated vs (once `check_report` scores it) simulated rare nets."""

    arch: str
    width: int
    bp: Breakpoints
    contributing_blocks: tuple[tuple[str, int], ...]
    estimated_nets: frozenset[int] = field(repr=False, default=frozenset())
    threshold: float | None = None
    simulated_nets: frozenset[int] | None = field(repr=False, default=None)
    stats_a: WordStats | None = None

    @property
    def estimated_count(self) -> int:
        return len(self.estimated_nets)

    @property
    def simulated_count(self) -> int | None:
        return None if self.simulated_nets is None else len(self.simulated_nets)

    @property
    def abs_error(self) -> float | None:
        """Relative count error |simulated - estimated| / max(simulated, 1)."""
        n = self.simulated_count
        return None if n is None else abs(n - self.estimated_count) / max(n, 1)


def effective_slice_start(netlist: Netlist, bp_a: Breakpoints,
                          bp_b: Breakpoints) -> Breakpoints:
    """Combine operand breakpoints into the output-column boundary pair.

    An adder takes the widest region (min of the BP0s, max of the BP1s);
    a multiplier adds them, clamped to the product width.
    """
    if netlist.is_multiplier:
        top = netlist.output_width - 1
        return Breakpoints(min(max(bp_a.bp0 + bp_b.bp0, 0), top),
                           min(max(bp_a.bp1 + bp_b.bp1, 0), top))
    return Breakpoints(min(bp_a.bp0, bp_b.bp0), max(bp_a.bp1, bp_b.bp1))


def estimate_rare_nets(netlist: Netlist, bp_a: Breakpoints,
                       bp_b: Breakpoints) -> RareNetReport:
    """Predict the rare-net set of a module from operand breakpoints."""
    bp = effective_slice_start(netlist, bp_a, bp_b)
    if not 0 <= bp.bp1 < netlist.output_width:
        raise ValueError(f"bp1 {bp.bp1} outside output width")
    # the gate nets at or above column bp1 and their per-block counts
    above = netlist.slices >= bp.bp1
    nets = np.flatnonzero(above) + len(netlist.primary_inputs)
    per_block = np.bincount(netlist.blocks[above],
                            minlength=len(netlist.block_names))
    return RareNetReport(
        arch=netlist.name, width=netlist.width, bp=bp,
        contributing_blocks=tuple(sorted(
            (name, count) for name, count
            in zip(netlist.block_names, per_block.tolist()) if count)),
        estimated_nets=frozenset(nets.tolist()),
    )


def check_report(netlist: Netlist, report: RareNetReport,
                 profile: ToggleProfile, threshold: float) -> RareNetReport:
    """Attach the threshold and `profile`'s rare-net set at it to a report.

    Only gate outputs count: primary inputs switch as the stimulus says.
    """
    gate_nets = netlist.gate_nets
    simulated = frozenset(net for net in rare_nets(profile, threshold)
                          if net in gate_nets)
    return replace(report, threshold=threshold, simulated_nets=simulated)


def score_points(netlist: Netlist, packed: PackedPoints, threshold: float):
    """Estimate every packed point, count their toggles in one census, and
    yield `(report, profile)` per point, in order."""
    check_threshold(threshold)  # before the census
    reports = [replace(estimate_rare_nets(netlist, breakpoints(st_a),
                                          breakpoints(st_b)),
                       stats_a=st_a) for st_a, st_b in packed.stats]
    for report, profile in zip(reports, census(netlist, packed)):
        yield check_report(netlist, report, profile, threshold), profile


def compare(netlist: Netlist, target_a: WordStats, target_b: WordStats,
            threshold: float = RARE_THRESHOLD,
            stream_len: int = DEFAULT_VECTORS,
            seed: int = DEFAULT_SEED) -> RareNetReport:
    """Estimate, then simulate under matching stimulus, and score the error."""
    check_threshold(threshold)  # before any stream is generated
    # operand B draws from the next seed, so the two streams are independent
    packed = pack_points(netlist.width, [(generate(target_a, stream_len, seed),
                                          generate(target_b, stream_len,
                                                   seed + 1))])
    return next(score_points(netlist, packed, threshold))[0]


# -------------------------------------------------------------------- sweep

def solve_sigma_for_bp1(bp1: int, rho: float) -> float:
    """Word-level standard deviation that places the upper boundary at bp1."""
    if not 0 <= bp1 <= 64:  # words are at most 64 bits wide
        raise ValueError(f"boundary target must be in 0..64, got {bp1}")
    r = rho_msb(rho)
    if r >= 1.0:
        raise ValueError("perfectly correlated words have no finite boundary")
    return 2.0 ** bp1 / (6.0 * (1.0 - r) ** 0.5)


def operating_points(width_targets, rho_a: float, rho_b: float, vectors: int,
                     seed: int, mean: float = 0.0):
    """Yield `(width, target, stream_a, stream_b)` for each width of
    `width_targets` (width -> targets) and each of its targets, sorted.

    Each operand's sigma is solved from its own rho; a target whose
    mean +/- 3 sigma does not fit the word is skipped, and a repeated
    target raises `ValueError`.  Every point quantises one chain per
    operand (B's from `seed + 1`), built at the first target that fits and
    freed with the generator, so each stream equals `generate`'s.
    """
    chains = None
    for width in sorted(width_targets):
        targets = sorted(width_targets[width])
        if len(set(targets)) != len(targets):
            raise ValueError(f"bp1 targets list a target twice: {targets}")
        for t in targets:
            pair = operand_stats(width, t, rho_a, rho_b, mean)
            if pair:
                chains = chains or (unit_chain(rho_a, vectors, seed),
                                    unit_chain(rho_b, vectors, seed + 1))
                yield (width, t, quantise(pair[0], chains[0], seed),
                       quantise(pair[1], chains[1], seed + 1))


def operand_stats(width: int, target: int, rho_a: float, rho_b: float,
                  mean: float = 0.0) -> tuple[WordStats, WordStats] | None:
    """Each operand's word statistics at a boundary target, its sigma solved
    from its own rho; None when either's mean +/- 3 sigma does not fit."""
    pair = tuple(WordStats(mean, solve_sigma_for_bp1(target, rho), rho, width)
                 for rho in (rho_a, rho_b))
    return pair if all(st.fits_range() for st in pair) else None


@dataclass(frozen=True)
class SweepPoint:
    bp1_target: int
    report: RareNetReport


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]

    @property
    def reports(self) -> tuple[RareNetReport, ...]:
        return tuple(p.report for p in self.points)

    @property
    def mean_error(self) -> float:
        errors = [p.report.abs_error for p in self.points]
        return sum(errors) / len(errors) if errors else float("nan")


def sweep_bp1(netlist: Netlist, rho: float, threshold: float, bp1_targets,
              stream_len: int = DEFAULT_VECTORS, seed: int = DEFAULT_SEED,
              mean: float = 0.0) -> SweepResult:
    """Score the estimator across operating points of increasing magnitude.

    Each target boundary column is converted to the word sigma that
    realizes it; estimate and simulation are then compared at that
    operating point.  Points are evaluated in sorted target order so the
    result is reproducible.  The mean defaults to zero, the operating
    point the bit-level activity model is derived for; under it the
    estimate stays an upper bound on the simulated rare-net count for
    every supported architecture.  A target that does not fit the word
    raises `ValueError` before any chain is built.
    """
    check_threshold(threshold)  # before any stream is generated
    skipped = sorted(t for t in set(bp1_targets) if not operand_stats(
        netlist.width, t, rho, rho, mean))
    if skipped:
        raise ValueError(f"bp1 targets {skipped} put mean +/- 3 sigma "
                         f"outside the {netlist.width}-bit range")
    points = list(operating_points({netlist.width: bp1_targets}, rho, rho,
                                   stream_len, seed, mean))
    packed = pack_points(netlist.width, [(sa, sb) for *_, sa, sb in points])
    scored = score_points(netlist, packed, threshold)
    return SweepResult(tuple(SweepPoint(t, rep) for (_, t, _, _), (rep, _)
                             in zip(points, scored)))


# ------------------------------------------------------------------ reports

_REPORT_FIELDS = ("arch", "width", "rho", "sigma", "bp0", "bp1",
                  "threshold", "p_est", "p_sim", "error")


def write_report_csv(reports, path) -> None:
    """One row per scored report; `rho` and `sigma` are operand A's."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        writer.writerows((r.arch, r.width, r.stats_a.rho, r.stats_a.std_dev,
                          r.bp.bp0, r.bp.bp1, r.threshold, r.estimated_count,
                          r.simulated_count, r.abs_error) for r in reports)

