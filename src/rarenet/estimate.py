"""Analytical rare-net estimation and simulation cross-checks.

The estimator predicts which nets switch rarely from operand word
statistics alone: the bit-level activity model gives the column above
which operand bits are dominated by correlated sign behaviour, and every
gate at or above that column is predicted rare.  For a multiplier the
operand log-magnitudes add, so the product-side boundary is taken as the
sum of the two operand boundaries (clamped to the product width).

`check_report` is the one place a prediction is scored: it takes the
simulated rare set (gate-output nets at or below the report's threshold)
from a toggle profile, and the report derives the relative count error
|simulated - estimated| / max(simulated, 1) from it; points where the
simulation found no rare nets are kept, with the whole estimate as error.
`operating_points` is the one sweep loop and `score` the one estimate,
simulate and score step; `compare`, `sweep_bp1` and `cli.run` use both.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

from .netlist import Netlist, slice_nets
from .simulate import ToggleProfile, rare_nets, simulate
from .stats import Breakpoints, WordStats, breakpoints, combined_breakpoints, rho_msb
from .stimulus import StimulusStream, generate


@dataclass(frozen=True)
class RareNetReport:
    """Estimated vs (optionally) simulated rare-net population of one module."""

    arch: str
    width: int
    bp: Breakpoints
    threshold: float
    contributing_blocks: tuple[tuple[str, int], ...]
    estimated_nets: frozenset[int] = field(repr=False, default=frozenset())
    simulated_nets: frozenset[int] | None = field(repr=False, default=None)
    stats_a: WordStats | None = None
    stats_b: WordStats | None = None

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
    """Combine operand breakpoints into the output-column boundary pair."""
    if netlist.is_multiplier:
        top = netlist.output_width - 1
        return Breakpoints(
            bp0=min(max(bp_a.bp0 + bp_b.bp0, 0), top),
            bp1=min(max(bp_a.bp1 + bp_b.bp1, 0), top),
            degenerate=bp_a.degenerate or bp_b.degenerate,
        )
    return combined_breakpoints(bp_a, bp_b)


def estimate_rare_nets(netlist: Netlist, bp_a: Breakpoints,
                       bp_b: Breakpoints | None = None,
                       threshold: float = 1e-4) -> RareNetReport:
    """Predict the rare-net set of a module from operand breakpoints."""
    if bp_b is None:
        bp_b = bp_a
    bp = effective_slice_start(netlist, bp_a, bp_b)
    if not 0 <= bp.bp1 < netlist.output_width:
        raise ValueError(f"bp1 {bp.bp1} outside output width")
    nets = slice_nets(netlist, bp.bp1)
    per_block: dict[str, int] = {}
    for net in nets:
        block = netlist.driver_of(net).block
        per_block[block] = per_block.get(block, 0) + 1
    blocks = tuple(sorted(per_block.items()))
    return RareNetReport(
        arch=netlist.name, width=netlist.width, bp=bp, threshold=threshold,
        contributing_blocks=blocks, estimated_nets=nets,
    )


def check_report(netlist: Netlist, report: RareNetReport,
                 profile: ToggleProfile) -> RareNetReport:
    """Attach the simulated rare-net set of `profile` to a report.

    Only gate outputs count: primary inputs switch as the stimulus says.
    """
    gate_nets = netlist.gate_nets
    simulated = frozenset(net for net in rare_nets(profile, report.threshold)
                          if net in gate_nets)
    return replace(report, simulated_nets=simulated)


def score(netlist: Netlist, stream_a: StimulusStream, stream_b: StimulusStream,
          threshold: float) -> tuple[RareNetReport, ToggleProfile]:
    """Estimate from the streams' targets, simulate, and score the report."""
    st_a, st_b = stream_a.target, stream_b.target
    rep = estimate_rare_nets(netlist, breakpoints(st_a), breakpoints(st_b),
                             threshold)
    profile = simulate(netlist, stream_a, stream_b)
    return check_report(netlist, replace(rep, stats_a=st_a, stats_b=st_b),
                        profile), profile


def _stream_pair(st_a: WordStats, st_b: WordStats, length: int, seed: int):
    # operand B draws from the next seed, so the two streams are independent
    return generate(st_a, length, seed), generate(st_b, length, seed + 1)


def compare(netlist: Netlist, stats_a: WordStats, stats_b: WordStats,
            threshold: float = 1e-4, stream_len: int = 10_000,
            seed: int = 1) -> RareNetReport:
    """Estimate, then simulate under matching stimulus, and score the error."""
    return score(netlist, *_stream_pair(stats_a, stats_b, stream_len, seed),
                 threshold)[0]


# -------------------------------------------------------------------- sweep

def solve_sigma_for_bp1(bp1: int, rho: float) -> float:
    """Word-level standard deviation that places the upper boundary at bp1."""
    if not 0 <= bp1 <= 64:  # words are at most 64 bits wide
        raise ValueError(f"boundary target must be in 0..64, got {bp1}")
    r = rho_msb(rho)
    if r >= 1.0:
        raise ValueError("perfectly correlated words have no finite boundary")
    return 2.0 ** bp1 / (6.0 * (1.0 - r) ** 0.5)


def operating_points(width: int, targets, rho_a: float, rho_b: float,
                     vectors: int, seed: int, mean: float = 0.0):
    """Yield `(target, stream_a, stream_b)` per target, in sorted order.

    Each operand's sigma is solved from its own rho; a target whose
    mean +/- 3 sigma does not fit the word is skipped, and a repeated
    target raises `ValueError`.
    """
    targets = sorted(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"bp1 targets list a target twice: {targets}")
    for t in targets:
        st_a, st_b = (WordStats(mean, solve_sigma_for_bp1(t, rho), rho, width)
                      for rho in (rho_a, rho_b))
        if st_a.fits_range() and st_b.fits_range():
            yield (t, *_stream_pair(st_a, st_b, vectors, seed))


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
              stream_len: int = 10_000, seed: int = 1,
              mean: float = 0.0) -> SweepResult:
    """Score the estimator across operating points of increasing magnitude.

    Each target boundary column is converted to the word sigma that
    realizes it; estimate and simulation are then compared at that
    operating point.  Points are evaluated in sorted target order so the
    result is reproducible.  The mean defaults to zero, the operating
    point the bit-level activity model is derived for; under it the
    estimate stays an upper bound on the simulated rare-net count for
    every supported architecture.  A target that does not fit the word
    raises `ValueError`.
    """
    points = tuple(
        SweepPoint(t, score(netlist, sa, sb, threshold)[0])
        for t, sa, sb in operating_points(netlist.width, bp1_targets, rho, rho,
                                          stream_len, seed, mean))
    skipped = sorted(set(bp1_targets) - {p.bp1_target for p in points})
    if skipped:
        raise ValueError(f"bp1 targets {skipped} put mean +/- 3 sigma "
                         f"outside the {netlist.width}-bit range")
    return SweepResult(points)


# ------------------------------------------------------------------ reports

_REPORT_FIELDS = ("arch", "width", "rho", "sigma", "bp0", "bp1",
                  "threshold", "p_est", "p_sim", "error")


def _report_row(report: RareNetReport) -> dict:
    return {
        "arch": report.arch, "width": report.width,
        "rho": report.stats_a.rho if report.stats_a else "",
        "sigma": report.stats_a.std_dev if report.stats_a else "",
        "bp0": report.bp.bp0, "bp1": report.bp.bp1,
        "threshold": report.threshold,
        "p_est": report.estimated_count,
        "p_sim": "" if report.simulated_count is None else report.simulated_count,
        "error": "" if report.abs_error is None else report.abs_error,
    }


def write_report_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_FIELDS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(_report_row(rep))

