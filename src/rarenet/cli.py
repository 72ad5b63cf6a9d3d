"""Command-line driver: stimulus generation, netlist construction,
simulation, estimation, and the batch replication harness.

Exit codes: 0 success, 1 phase failure (partial outputs kept, manifest
marks the run incomplete), 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .archlib import build_architecture
from .config import (ConfigError, ExperimentConfig, default_bp1_targets,
                     load_config, parse_arch)
from .estimate import (SweepPoint, SweepResult, compare, estimate_rare_nets,
                       operating_points, score_points, sweep_bp1,
                       write_report_csv)
from .netlist import NetlistError, load_netlist, save_netlist
from .simulate import (RARE_THRESHOLD, PackedPoints, export_activity,
                       pack_points, simulate)
from .stats import WordStats, breakpoints
from .stimulus import check_range, generate, load_stream, save_stream


def _stats_pair(args, width: int) -> tuple[WordStats, WordStats]:
    sa = WordStats(args.mean, args.std, args.rho, width)
    sb = WordStats(
        args.mean if args.mean_b is None else args.mean_b,
        args.std if args.std_b is None else args.std_b,
        args.rho if args.rho_b is None else args.rho_b,
        width,
    )
    check_range(sa)
    check_range(sb)
    return sa, sb


def _add_stats_args(p):
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--std", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mean-b", type=float, default=None)
    p.add_argument("--std-b", type=float, default=None)
    p.add_argument("--rho-b", type=float, default=None)


def _add_sim_args(p):
    p.add_argument("--threshold", type=float, default=RARE_THRESHOLD)
    p.add_argument("--vectors", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: each parse fills a new
    namespace from the declared defaults and leaves the tree unchanged."""
    top = argparse.ArgumentParser(
        prog="rarenet",
        description="Rare-net estimation and localization for arithmetic datapaths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-vectors", help="generate a correlated word stream")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--std", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--vectors", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-netlist", help="emit a gate-level netlist")
    p.add_argument("--arch", type=parse_arch, required=True,
                   metavar="KIND:WIDTH")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="toggle-count a netlist under streams")
    p.add_argument("--netlist", required=True)
    p.add_argument("--stream-a", required=True)
    p.add_argument("--stream-b", required=True)
    p.add_argument("--out", required=True, help="activity CSV path")

    p = sub.add_parser("estimate", help="analytical rare-net estimate")
    p.add_argument("--arch", type=parse_arch, required=True,
                   metavar="KIND:WIDTH")
    _add_stats_args(p)

    p = sub.add_parser("compare", help="estimate vs simulation error")
    p.add_argument("--arch", type=parse_arch, required=True,
                   metavar="KIND:WIDTH")
    _add_stats_args(p)
    _add_sim_args(p)
    p.add_argument("--out", default=None, help="optional report CSV")

    p = sub.add_parser("sweep", help="error across boundary-column targets")
    p.add_argument("--arch", type=parse_arch, required=True,
                   metavar="KIND:WIDTH")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--bp1", type=int, action="append", required=True,
                   help="target column (repeatable)")
    p.add_argument("--mean", type=float, default=0.0)
    _add_sim_args(p)
    p.add_argument("--out", default=None, help="optional report CSV")

    p = sub.add_parser("locate", help="list the vulnerable region of a module")
    p.add_argument("--arch", type=parse_arch, required=True,
                   metavar="KIND:WIDTH")
    _add_stats_args(p)
    _add_sim_args(p)
    p.add_argument("--no-sim", action="store_true",
                   help="skip simulation; --vectors and --seed are ignored")

    p = sub.add_parser("replicate", help="run the full batch from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")

    return top


# ------------------------------------------------------------- subcommands

def _cmd_gen_vectors(args) -> int:
    target = WordStats(args.mean, args.std, args.rho, args.width)
    stream = generate(target, args.vectors, args.seed)
    save_stream(stream, args.out)
    return 0


def _cmd_build_netlist(args) -> int:
    kind, width = args.arch
    save_netlist(build_architecture(kind, width), args.out)
    return 0


def _cmd_simulate(args) -> int:
    netlist = load_netlist(args.netlist)
    sa = load_stream(args.stream_a)
    sb = load_stream(args.stream_b)
    profile = simulate(netlist, sa, sb)
    export_activity(netlist, profile, args.out)
    return 0


def _cmd_estimate(args) -> int:
    kind, width = args.arch
    netlist = build_architecture(kind, width)
    sa, sb = _stats_pair(args, width)
    rep = estimate_rare_nets(netlist, breakpoints(sa), breakpoints(sb))
    print(f"arch={rep.arch} width={rep.width} bp0={rep.bp.bp0} "
          f"bp1={rep.bp.bp1} p_est={rep.estimated_count}")
    for block, count in rep.contributing_blocks:
        print(f"  {block}: {count}")
    return 0


def _cmd_compare(args) -> int:
    kind, width = args.arch
    netlist = build_architecture(kind, width)
    sa, sb = _stats_pair(args, width)
    rep = compare(netlist, sa, sb, args.threshold, args.vectors, args.seed)
    print(f"arch={rep.arch} width={rep.width} bp1={rep.bp.bp1} "
          f"p_est={rep.estimated_count} p_sim={rep.simulated_count} "
          f"error={rep.abs_error:.6f}")
    if args.out:
        write_report_csv([rep], args.out)
    return 0


def _cmd_sweep(args) -> int:
    kind, width = args.arch
    netlist = build_architecture(kind, width)
    res = sweep_bp1(netlist, args.rho, args.threshold, args.bp1,
                    args.vectors, args.seed, args.mean)
    for p in res.points:
        rep = p.report
        print(f"bp1={p.bp1_target} sigma={rep.stats_a.std_dev:.3f} "
              f"p_est={rep.estimated_count} p_sim={rep.simulated_count} "
              f"error={rep.abs_error:.6f}")
    print(f"mean_error={res.mean_error:.6f}")
    if args.out:
        write_report_csv(res.reports, args.out)
    return 0


def _cmd_locate(args) -> int:
    kind, width = args.arch
    netlist = build_architecture(kind, width)
    sa, sb = _stats_pair(args, width)
    if args.no_sim:
        rep = estimate_rare_nets(netlist, breakpoints(sa), breakpoints(sb),
                                 args.threshold)
    else:
        rep = compare(netlist, sa, sb, args.threshold, args.vectors,
                      args.seed)
    top = netlist.output_width - 1
    print(f"arch={rep.arch} width={rep.width} vulnerable columns "
          f"{rep.bp.bp1}..{top} ({rep.estimated_count} nets)")
    for block, count in rep.contributing_blocks:
        print(f"  {block}: {count}")
    if args.no_sim:
        return 0
    print(f"simulated rare nets at threshold {args.threshold}: "
          f"{rep.simulated_count}")
    for net_id in sorted(rep.simulated_nets):
        gate = netlist.driver_of(net_id)
        where = "inside" if net_id in rep.estimated_nets else "outside"
        print(f"  {netlist.net_names[net_id]} (block {gate.block}, "
              f"slice {gate.bit_slice}): {where} estimated region")
    return 0


# --------------------------------------------------------------- replicate

def _pack_streams(cfg: ExperimentConfig, width: int, out: Path,
                  manifest: list[str]) -> tuple[list[int], PackedPoints]:
    """Generate, save and pack the operating points of one operand width.

    Returns their targets and packed operands; the streams themselves are
    freed on return."""
    targets = cfg.bp1_targets or default_bp1_targets(width)
    points = list(operating_points(width, targets, cfg.rho_a, cfg.rho_b,
                                   cfg.vectors, cfg.seed))
    for t, sa, sb in points:
        for tag, stream in (("a", sa), ("b", sb)):
            rel = f"streams/w{width}_bp{t}_{tag}.txt"
            save_stream(stream, out / rel)
            manifest.append(rel)
    return ([t for t, _, _ in points],
            pack_points(width, [(sa, sb) for _, sa, sb in points]))


def run(cfg: ExperimentConfig) -> int:
    """Execute the full batch: netlists, streams, activity, reports.

    The output tree is a pure function of the config: filenames carry no
    timestamps and every writer is deterministic.
    """
    out = Path(cfg.output_dir)
    # an unsupported architecture is a config error: fail before any output
    netlists = {(kind, width): build_architecture(kind, width)
                for kind, width in cfg.architectures}
    manifest: list[str] = []
    status = "complete"
    try:
        for sub in ("netlists", "streams", "activity", "reports"):
            (out / sub).mkdir(parents=True, exist_ok=True)

        for kind, width in cfg.architectures:
            rel = f"netlists/{kind.lower()}{width}.net"
            save_netlist(netlists[(kind, width)], out / rel)
            manifest.append(rel)

        # one stream pair per (width, target), packed once and shared by the
        # width's architectures; a width's rows are freed before the next's
        (threshold,) = cfg.thresholds
        summary = {}
        for width in sorted({w for _, w in cfg.architectures}):
            targets, packed = _pack_streams(cfg, width, out, manifest)
            for kind in (k for k, w in cfg.architectures if w == width):
                nl = netlists[(kind, width)]
                tag = f"{kind.lower()}{width}"
                points = []
                for t, (rep, profile) in zip(
                        targets, score_points(nl, packed, threshold)):
                    rel = f"activity/{tag}_bp{t}.csv"
                    export_activity(nl, profile, out / rel)
                    manifest.append(rel)
                    points.append(SweepPoint(t, rep))
                result = SweepResult(tuple(points))
                rel = f"reports/sweep_{tag}.csv"
                write_report_csv(result.reports, out / rel)
                manifest.append(rel)
                summary[(kind, width)] = (
                    f"{kind.lower()},{width},{result.mean_error:.12f}\n")

        rel = "reports/summary.csv"
        (out / rel).write_text("".join(["arch,width,mean_error\n", *(
            summary[arch] for arch in cfg.architectures)]), newline="")
        manifest.append(rel)
        return 0
    except Exception as exc:  # noqa: BLE001 - report and keep partial outputs
        print(f"error: {exc}", file=sys.stderr)
        status = "incomplete"
        return 1
    finally:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "manifest.txt", "w") as fh:
            fh.write(f"status={status}\n")
            for rel in sorted(manifest):
                fh.write(rel + "\n")


def _cmd_replicate(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return run(cfg)


_COMMANDS = {
    "gen-vectors": _cmd_gen_vectors,
    "build-netlist": _cmd_build_netlist,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "locate": _cmd_locate,
    "replicate": _cmd_replicate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, NetlistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
