"""Command-line driver: stimulus generation, netlist construction,
simulation, estimation, and the batch replication harness.

Exit codes: 0 success, 1 phase failure (partial outputs kept, manifest
marks the run incomplete), 2 invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import pickle
import sys
from dataclasses import replace
from pathlib import Path

from .archlib import build_architecture
from .config import (ConfigError, ExperimentConfig, default_bp1_targets,
                     load_config, parse_arch)
from .estimate import (SweepPoint, SweepResult, compare, estimate_rare_nets,
                       operand_stats, operating_points, score_points,
                       sweep_bp1, write_report_csv)
from .netlist import NetlistError, load_netlist, save_netlist
from .simulate import (RARE_THRESHOLD, PackedPoints, check_threshold,
                       export_activity, pack_points, simulate)
from .stats import WordStats, breakpoints
from .stimulus import (DEFAULT_SEED, DEFAULT_VECTORS, check_range, generate,
                       integer, load_stream, number, save_stream)


def _arch(item: str) -> tuple[str, int]:
    """`parse_arch` for argparse, which then shows its message."""
    try:
        return parse_arch(item)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# operand-statistics flag -> its default; None marks a required flag
_STATS = {"mean": 0.0, "std": None, "rho": None}


def _add_stats_args(p, names=tuple(_STATS), operand_b=True):
    """`--<name>` per name and, with `operand_b`, the `--<name>-b` that
    overrides it for operand B."""
    for name in names:
        p.add_argument(f"--{name}", type=number, default=_STATS[name],
                       required=_STATS[name] is None)
        if operand_b:
            p.add_argument(f"--{name}-b", type=number, default=None)


def _add_sim_args(p, threshold=True):
    if threshold:
        p.add_argument("--threshold", type=number, default=RARE_THRESHOLD)
    p.add_argument("--vectors", type=integer, default=DEFAULT_VECTORS)
    p.add_argument("--seed", type=integer, default=DEFAULT_SEED)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: each parse fills a new
    namespace from the declared defaults and leaves the tree unchanged."""
    top = argparse.ArgumentParser(
        prog="rarenet",
        description="Rare-net estimation and localization for arithmetic datapaths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, help, arch=True):
        """A subcommand that `run` executes; it takes `--arch` if `arch`."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if arch:
            p.add_argument("--arch", type=_arch, required=True,
                           metavar="KIND:WIDTH")
        return p

    p = command("gen-vectors", _cmd_gen_vectors,
                "generate a correlated word stream", arch=False)
    p.add_argument("--width", type=integer, required=True)
    _add_stats_args(p, operand_b=False)
    _add_sim_args(p, threshold=False)
    p.add_argument("--out", required=True)

    p = command("build-netlist", _cmd_build_netlist,
                "emit a gate-level netlist")
    p.add_argument("--out", required=True)

    p = command("simulate", _cmd_simulate,
                "toggle-count a netlist under streams", arch=False)
    p.add_argument("--netlist", required=True)
    p.add_argument("--stream-a", required=True)
    p.add_argument("--stream-b", required=True)
    p.add_argument("--out", required=True, help="activity CSV path")

    p = command("estimate", _cmd_estimate, "analytical rare-net estimate")
    _add_stats_args(p)

    p = command("compare", _cmd_compare, "estimate vs simulation error")
    _add_stats_args(p)
    _add_sim_args(p)
    p.add_argument("--out", default=None, help="optional report CSV")

    p = command("sweep", _cmd_sweep, "error across boundary-column targets")
    _add_stats_args(p, ("mean", "rho"), operand_b=False)
    p.add_argument("--bp1", type=integer, action="append", required=True,
                   help="target column (repeatable)")
    _add_sim_args(p)
    p.add_argument("--out", default=None, help="optional report CSV")

    p = command("locate", _cmd_locate,
                "list the vulnerable region of a module")
    _add_stats_args(p)
    _add_sim_args(p)
    p.add_argument("--no-sim", action="store_true",
                   help="skip simulation; --vectors and --seed are ignored")

    p = command("replicate", _cmd_replicate,
                "run the full batch from a config", arch=False)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override output_dir")

    return top


# ------------------------------------------------------------- subcommands

def _cmd_gen_vectors(args) -> int:
    target = WordStats(args.mean, args.std, args.rho, args.width)
    save_stream(generate(target, args.vectors, args.seed), args.out)
    return 0


def _cmd_build_netlist(args) -> int:
    save_netlist(build_architecture(*args.arch), args.out)
    return 0


def _cmd_simulate(args) -> int:
    netlist = load_netlist(args.netlist)
    profile = simulate(netlist, load_stream(args.stream_a),
                       load_stream(args.stream_b))
    export_activity(netlist, profile, args.out)
    return 0


def _report(args, simulated: bool):
    """Build `--arch` and estimate at the operand statistics; when
    `simulated`, also score the estimate against a simulation."""
    kind, width = args.arch
    netlist = build_architecture(kind, width)
    # operand B takes operand A's value of each flag it omits
    sa = WordStats(args.mean, args.std, args.rho, width)
    sb = WordStats(*(a if b is None else b for a, b in (
        (args.mean, args.mean_b), (args.std, args.std_b),
        (args.rho, args.rho_b))), width)
    check_range(sa)
    check_range(sb)
    if simulated:
        return netlist, compare(netlist, sa, sb, args.threshold,
                                args.vectors, args.seed)
    return netlist, estimate_rare_nets(netlist, breakpoints(sa),
                                       breakpoints(sb))


def _cmd_estimate(args) -> int:
    _, rep = _report(args, simulated=False)
    print(f"arch={rep.arch} width={rep.width} bp0={rep.bp.bp0} "
          f"bp1={rep.bp.bp1} p_est={rep.estimated_count}")
    for block, count in rep.contributing_blocks:
        print(f"  {block}: {count}")
    return 0


def _cmd_compare(args) -> int:
    _, rep = _report(args, simulated=True)
    print(f"arch={rep.arch} width={rep.width} bp1={rep.bp.bp1} "
          f"p_est={rep.estimated_count} p_sim={rep.simulated_count} "
          f"error={rep.abs_error:.6f}")
    if args.out:
        write_report_csv([rep], args.out)
    return 0


def _cmd_sweep(args) -> int:
    netlist = build_architecture(*args.arch)
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
    check_threshold(args.threshold)  # --no-sim reads it nowhere else
    netlist, rep = _report(args, simulated=not args.no_sim)
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
        k = net_id - len(netlist.input_names)  # only gate nets are scored
        where = "inside" if net_id in rep.estimated_nets else "outside"
        print(f"  {netlist.net_names[net_id]} (block "
              f"{netlist.block_names[netlist.blocks[k]]}, "
              f"slice {netlist.slices[k]}): {where} estimated region")
    return 0


# --------------------------------------------------------------- replicate

def _pack_streams(width: int, points, out: Path,
                  manifest: list[str]) -> tuple[list[int], PackedPoints]:
    """Save and pack the `operating_points` of one operand width.

    Returns the targets that fit and their packed operands; the streams
    themselves are freed on return."""
    points = list(points)
    for _, t, sa, sb in points:
        for tag, stream in (("a", sa), ("b", sb)):
            rel = f"streams/w{width}_bp{t}_{tag}.txt"
            save_stream(stream, out / rel)
            manifest.append(rel)
    return ([t for _, t, _, _ in points],
            pack_points(width, [(sa, sb) for *_, sa, sb in points]))


def _score_arch(nl, targets, packed: PackedPoints, threshold: float,
                out: Path, written: list[str]) -> str:
    """Score one architecture at its width's packed points: its activity
    CSVs and `sweep_<tag>.csv`, each appended to `written` once it exists.

    Returns the architecture's `summary.csv` row."""
    tag = f"{nl.name}{nl.width}"
    points = []
    for t, (rep, profile) in zip(targets,
                                 score_points(nl, packed, threshold)):
        rel = f"activity/{tag}_bp{t}.csv"
        export_activity(nl, profile, out / rel)
        written.append(rel)
        points.append(SweepPoint(t, rep))
    result = SweepResult(tuple(points))
    rel = f"reports/sweep_{tag}.csv"
    write_report_csv(result.reports, out / rel)
    written.append(rel)
    return f"{nl.name},{nl.width},{result.mean_error:.12f}\n"


def _shares(sizes: list[int], count: int) -> list[list[int]]:
    """Split the indices of `sizes` into `count` shares of near-equal total
    size: each index, largest first, joins the lightest share."""
    shares: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    return [sorted(share) for share in shares]


def _score_share(share: list[int], score):
    """`score(i, written)` for each index of `share` in order, up to the
    first that raises: returns `(written, rows, error)`, where `rows` maps
    index to result and `error` is `(index, message)` or None."""
    written: list[str] = []
    rows = {}
    for i in share:
        try:
            rows[i] = score(i, written)
        except Exception as exc:  # noqa: BLE001 - sent back, raised by the parent
            return written, rows, (i, str(exc))
    return written, rows, None


def _run_shares(sizes: list[int], score, manifest: list[str]) -> list:
    """`score(i, written)` for every index of `sizes`, over one share per
    usable CPU; returns the results in index order.

    Share 0 runs in this process and every other in a child made by
    `os.fork`, which reads the caller's netlists and packed rows without a
    copy; no child calls BLAS, whose thread pool is the only other thread.
    A child sends its `_score_share` back through a pipe.  Every pipe is
    drained and every child reaped, also when this process's share raises;
    the files each share wrote join `manifest`.  Then the message of the
    lowest failing index is raised as a `RuntimeError`."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    local, *others = _shares(sizes, min(cpus, len(sizes)))
    local, children, results = [local], [], []
    try:
        for share in others:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share runs here
                os.close(r)
                os.close(w)
                local.append(share)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(_score_share(share, score), pipe)
                    code = 0
                finally:  # also on BaseException: a child never returns
                    os._exit(code)
            os.close(w)
            children.append((pid, r, share))
        results.extend(_score_share(share, score) for share in local)
    finally:
        sent = []
        for _, r, _ in children:
            with open(r, "rb") as pipe:
                sent.append(pipe.read())
        for (pid, _, share), data in zip(children, sent):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            results.append(pickle.loads(data) if code == 0 else ([], {}, (
                share[0], f"worker process exited with status {code}")))
    rows, errors = {}, []
    for written, share_rows, error in results:
        manifest.extend(written)
        rows.update(share_rows)
        if error is not None:
            errors.append(error)
    if errors:
        raise RuntimeError(min(errors)[1])
    return [rows[i] for i in range(len(sizes))]


def run(cfg: ExperimentConfig) -> int:
    """Execute the full batch: netlists, streams, activity, reports.

    The output tree is a pure function of the config: filenames carry no
    timestamps and every writer is deterministic.
    """
    out = Path(cfg.output_dir)
    # an unsupported architecture is a config error: fail before any output
    netlists = {(kind, width): build_architecture(kind, width)
                for kind, width in cfg.architectures}
    # so is a width where no target fits: its mean error would read nan
    width_targets = {w: cfg.bp1_targets or default_bp1_targets(w)
                     for w in sorted({w for _, w in cfg.architectures})}
    for width, targets in width_targets.items():
        if not any(operand_stats(width, t, cfg.rho_a, cfg.rho_b)
                   for t in targets):
            raise ConfigError(
                f"no bp1 target of {list(targets)} fits the {width}-bit word "
                f"at rho_a={cfg.rho_a}, rho_b={cfg.rho_b}")
    # an unusable --out is one error, before any output or manifest
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[str] = []
    status = "incomplete"
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
        for width, group in itertools.groupby(operating_points(
                width_targets, cfg.rho_a, cfg.rho_b, cfg.vectors, cfg.seed),
                key=lambda point: point[0]):
            targets, packed = _pack_streams(width, group, out, manifest)
            archs = [arch for arch in cfg.architectures if arch[1] == width]
            summary.update(zip(archs, _run_shares(
                [len(netlists[arch].kinds) for arch in archs],
                lambda i, written: _score_arch(
                    netlists[archs[i]], targets, packed, threshold, out,
                    written),
                manifest)))

        rel = "reports/summary.csv"
        (out / rel).write_text("".join(["arch,width,mean_error\n", *(
            summary[arch] for arch in cfg.architectures)]), newline="")
        manifest.append(rel)
        status = "complete"
        return 0
    except Exception as exc:  # noqa: BLE001 - report and keep partial outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with open(out / "manifest.txt", "w") as fh:
            fh.write(f"status={status}\n")
            for rel in sorted(manifest):
                fh.write(rel + "\n")


def _cmd_replicate(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return run(cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, NetlistError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
