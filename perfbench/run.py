"""rarenet benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch_sweep --seed 1 --seconds 30 --trace 0

It imports `rarenet` from the checkout's `src/`, writes the workload's inputs
(set-up), then repeats timed passes of `rarenet.cli.main` commands in this
one process until `--seconds` have passed, checking every pass's outputs
against values it computes on its own.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  Lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def import_rarenet():
    """Import the checkout's own rarenet; fail when its sources are absent."""
    src = ROOT / "src"
    if not (src / "rarenet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rarenet sources under {src}")
    sys.path.insert(0, str(src))
    import rarenet
    import rarenet.cli
    return rarenet


def run_pass(cli, commands):
    """Run one pass; returns wall seconds, per-command seconds and results."""
    latencies, results = [], []
    start = time.perf_counter()
    for argv in commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a failed run
            print(f"perfbench: {argv[0]} raised {exc!r}", file=sys.stderr)
            code = -1
        latencies.append(time.perf_counter() - t0)
        results.append((code, out.getvalue()))
    return time.perf_counter() - start, latencies, results


def simulate_peak_mb(rarenet, probe) -> float:
    """tracemalloc peak of one `simulate` call, in its own pass."""
    if probe is None:
        return 0.0
    netlist, a, b = probe
    gc.collect()
    tracemalloc.start()
    try:
        rarenet.simulate(netlist, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# per-layer metrics that are span self times, in seconds per traced pass
PER_LAYER_TIMES = (
    "cli.self_s", "archlib.build_s", "netlist.load_s", "netlist.save_s",
    "stimulus.generate_s", "stimulus.save_stream_s", "stimulus.load_stream_s",
    "simulate.evaluate_s", "simulate.census_s", "simulate.constant_nets_s",
    "simulate.export_activity_s", "simulate.rare_nets_s", "stats.breakpoints_s",
    "estimate.estimate_rare_nets_s", "estimate.write_report_csv_s",
)


def layer_metrics(tracer, traced_walls, untraced_walls, mean_rel_error,
                  memory_mb):
    n = len(traced_walls)
    by_span = tracer.self_time_by_name()
    layer: dict[str, float] = {name: 0.0 for name in PER_LAYER_TIMES}
    for span_name, seconds in by_span.items():
        layer[spans.LAYER_OF_SPAN[span_name]] += seconds / n
    counts = tracer.counts
    sim_s = layer["simulate.evaluate_s"] + layer["simulate.census_s"]
    gate_evals = counts.get("simulate.gate_evals", 0) / n
    metrics = {name: (value, "s") for name, value in layer.items()}
    metrics.update({
        "archlib.gates": (counts.get("archlib.gates", 0) / n, "count"),
        "stimulus.words": (counts.get("stimulus.words", 0) / n, "count"),
        "simulate.gate_evals": (gate_evals, "count"),
        "simulate.gate_evals_per_s": (gate_evals / sim_s if sim_s else 0.0, "1/s"),
        "simulate.live_gate_frac": (
            counts.get("simulate.live_gate_evals", 0) / n / gate_evals
            if gate_evals else 0.0, "ratio"),
        "simulate.peak_mem_mb": (memory_mb, "MB"),
        "estimate.mean_rel_error": (mean_rel_error or 0.0, "ratio"),
        "trace.wall_s": (statistics.median(traced_walls), "s"),
        "trace.overhead_s": (statistics.median(traced_walls)
                             - statistics.median(untraced_walls), "s"),
        "trace.span_coverage": (sum(by_span.values()) / sum(traced_walls), "ratio"),
    })
    return metrics


def measure(rarenet, workload_cls, seed, seconds, trace, workdir, import_s,
            **sizes):
    """Set up and run one workload; returns the result object to print."""
    workload = workload_cls(workdir, seed, **sizes)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    commands = workload.commands()
    tracer = spans.Tracer()
    walls = {False: [], True: []}
    latencies = []
    attempted = failed = 0
    problems = []
    mean_rel_error = None
    start = time.perf_counter()
    # with tracing, passes alternate untraced / traced, at least one of each
    while (time.perf_counter() - start < seconds or not walls[False]
           or (trace and not walls[True])):
        traced = trace and len(walls[False]) > len(walls[True])
        workload.clear_outputs()
        gc.collect()
        saved = spans.instrument(tracer) if traced else []
        try:
            wall, lat, results = run_pass(rarenet.cli, commands)
        finally:
            spans.restore(saved)
        walls[traced].append(wall)
        if not traced:
            latencies.extend(lat)
        outcome = workload.check(results)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        if outcome.mean_rel_error is not None:
            mean_rel_error = outcome.mean_rel_error

    for line in problems[:20]:
        print(f"check failed: {line}")
    passes = len(walls[False]) + len(walls[True])
    print(f"workload={workload.name} seed={seed} passes={passes} "
          f"commands/pass={len(commands)} attempted={attempted} "
          f"failed={failed} fail_frac={failed / max(attempted, 1):.6f}")
    for traced in (False, True):
        if walls[traced]:
            print(f"{'traced' if traced else 'untraced'} pass walls (s): "
                  + " ".join(f"{w:.3f}" for w in walls[traced]))
    if mean_rel_error is not None:
        print(f"est_mean_rel_error={mean_rel_error!r}")

    if trace:
        memory_mb = simulate_peak_mb(rarenet, workload.memory_probe())
        metrics = layer_metrics(tracer, walls[True], walls[False],
                                mean_rel_error, memory_mb)
    else:
        ms = sorted(x * 1e3 for x in latencies)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "query_p50_ms": (statistics.median(ms), "ms"),
            "query_p99_ms": (statistics.quantiles(ms, n=100, method="inclusive")[98]
                             if len(ms) > 1 else ms[0], "ms"),
        }
        print(f"latency samples={len(ms)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    t0 = time.perf_counter()
    rarenet = import_rarenet()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = measure(rarenet, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
