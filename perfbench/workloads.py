"""The benchmark's workloads.

Each workload makes its inputs from the seed during `setup`, lists the
`rarenet` commands of one timed pass, and checks the outputs of a pass
against values it computes on its own.  An operation is one simulation or
one query; it fails on a nonzero exit code, a missing output, or an output
that fails a check, and a failed operation never stops the run.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import rarenet
import rarenet.cli
from rarenet import ADDER_KINDS, MULTIPLIER_KINDS
from rarenet.netlist import load_netlist

import recount

THRESHOLD = 1e-4
RHO = 0.99


@dataclass
class Outcome:
    """Result of checking one pass."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    mean_rel_error: float | None = None  # batch_sweep: mean of summary.csv

    def record(self, problems: list[str], where: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{where}: {problems[0]}")


def _problems(check, *args) -> list[str]:
    """One operation's check; a missing or unreadable output is a problem."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"missing or unreadable output: {exc!r}"]


def _memo(memo: dict, key, make):
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _sigma_for_column(column: int, rho: float) -> float:
    rho_msb = 2.0 / math.pi * math.asin(rho)
    return 2.0 ** column / (6.0 * math.sqrt(1.0 - rho_msb))


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.out = workdir / "out"

    def setup(self) -> None:
        """Write the program's inputs; runs several times, so it overwrites."""

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, results: list[tuple[int, str]]) -> Outcome:
        """Check a pass, given (exit code, stdout) of each command."""
        raise NotImplementedError

    def memory_probe(self):
        """(netlist, stream_a, stream_b) of the pass's largest simulation."""
        return None


class BatchSweep(Workload):
    """`rarenet replicate` on the criterion-8 architecture set."""

    name = "batch_sweep"

    def __init__(self, workdir: Path, seed: int, vectors: int = 100_000,
                 kinds=ADDER_KINDS + MULTIPLIER_KINDS, widths=(8, 16)):
        super().__init__(workdir, seed)
        self.vectors = vectors
        self.archs = [(k, w) for k in kinds for w in widths]
        self.config = workdir / "batch.cfg"

    def setup(self) -> None:
        archs = ",".join(f"{k}:{w}" for k, w in self.archs)
        self.config.write_text(
            f"architectures={archs}\nrho_a={RHO!r}\nrho_b={RHO!r}\n"
            f"thresholds={THRESHOLD!r}\nvectors={self.vectors}\n"
            f"seed={self.seed}\n")

    def commands(self):
        return [["replicate", "--config", str(self.config),
                 "--out", str(self.out)]]

    def targets(self, width: int) -> list[int]:
        """Sweep columns the batch must simulate at this width."""
        limit = (1 << (width - 1)) - 1
        return [t for t in range(width // 2 - 2, width - 2)
                if 3.0 * _sigma_for_column(t, RHO) <= limit]

    def _stream_words(self, width, target):
        words = []
        for tag, seed in (("a", self.seed), ("b", self.seed + 1)):
            header, w = recount.parse_stream(
                (self.out / f"streams/w{width}_bp{target}_{tag}.txt").read_text())
            if (int(header["width"]), int(header["seed"]), len(w)) != (
                    width, seed, self.vectors):
                raise ValueError(f"stream {tag}: header {header}, {len(w)} words")
            words.append(w)
        return words

    def _summary(self) -> dict[tuple[str, int], str]:
        try:
            lines = (self.out / "reports/summary.csv").read_text().splitlines()
            return {(arch, int(width)): err for arch, width, err
                    in (line.split(",") for line in lines[1:])}
        except (OSError, ValueError):
            return {}

    def check(self, results):
        outcome = Outcome()
        code = results[0][0]
        try:
            manifest = (self.out / "manifest.txt").read_text()
        except OSError:
            manifest = ""
        if code != 0 or not manifest.startswith("status=complete\n"):
            outcome.attempted = outcome.failed = sum(
                len(self.targets(w)) for _, w in self.archs)
            outcome.problems.append(f"replicate exit code {code}, "
                                    f"manifest {manifest[:16]!r}")
            return outcome
        summary = self._summary()
        memo = {}
        for kind, width in self.archs:
            tag = f"{kind.lower()}{width}"
            targets = self.targets(width)
            errors = []
            problems = [_problems(self._check_sim, memo, tag, width, i, t, errors)
                        for i, t in enumerate(targets)]
            mean = (f"{sum(errors) / len(errors):.12f}"
                    if len(errors) == len(targets) else None)
            if summary.get((kind.lower(), width)) != mean:
                # every simulation of the architecture feeds its summary row
                problems = [p or [f"summary row {summary.get((kind.lower(), width))}"
                                  f" != recomputed {mean}"] for p in problems]
            for target, p in zip(targets, problems):
                outcome.record(p, f"{tag} bp{target}")
        try:
            outcome.mean_rel_error = (sum(float(v) for v in summary.values())
                                      / len(summary))
        except (ValueError, ZeroDivisionError):
            pass
        return outcome

    def _check_sim(self, memo, tag, width, index, target, errors):
        info = _memo(memo, tag, lambda: recount.parse_netlist(
            (self.out / f"netlists/{tag}.net").read_text()))
        rows = _memo(memo, f"sweep {tag}", lambda: [
            line.split(",") for line in
            (self.out / f"reports/sweep_{tag}.csv").read_text().splitlines()[1:]])
        words = _memo(memo, (width, target),
                      lambda: self._stream_words(width, target))
        activity = recount.parse_activity(
            (self.out / f"activity/{tag}_bp{target}.csv").read_text())
        problems = recount.check_activity(activity, info, *words)
        # report columns: arch,width,rho,sigma,bp0,bp1,threshold,p_est,p_sim,error
        row = rows[index]
        bp1, threshold = int(row[5]), float(row[6])
        p_est, p_sim, error = int(row[7]), int(row[8]), float(row[9])
        want_est = info.count_at_or_above(bp1)
        want_sim = recount.rare_gate_count(activity, info, THRESHOLD)
        want_err = abs(want_sim - want_est) / max(want_sim, 1)
        if (threshold, p_est, p_sim, error) != (THRESHOLD, want_est, want_sim,
                                                want_err):
            problems.append(f"report row {row[5:]} != recomputed "
                            f"p_est={want_est} p_sim={want_sim} "
                            f"error={want_err}")
        errors.append(want_err)
        return problems

    def memory_probe(self):
        width = max(w for _, w in self.archs)
        netlist = max((rarenet.build_architecture(k, w)
                       for k, w in self.archs if w == width),
                      key=lambda nl: len(nl.gates))
        target = self.targets(width)[-1]
        return (netlist,
                rarenet.load_stream(self.out / f"streams/w{width}_bp{target}_a.txt"),
                rarenet.load_stream(self.out / f"streams/w{width}_bp{target}_b.txt"))


class FilesWide(Workload):
    """`rarenet simulate` from files on the widest netlists."""

    name = "files_wide"

    def __init__(self, workdir: Path, seed: int, vectors: int = 100_000,
                 archs=tuple((k, 32) for k in ADDER_KINDS)
                 + tuple((k, 16) for k in MULTIPLIER_KINDS)):
        super().__init__(workdir, seed)
        self.vectors = vectors
        self.archs = list(archs)
        self.inputs = workdir / "inputs"
        self._expected = {}

    def _netlist(self, kind, width):
        return self.inputs / f"{kind.lower()}{width}.net"

    def _stream(self, width, tag):
        return self.inputs / f"w{width}_{tag}.txt"

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        argvs = [["build-netlist", "--arch", f"{k}:{w}",
                  "--out", str(self._netlist(k, w))] for k, w in self.archs]
        for width in sorted({w for _, w in self.archs}):
            # one operating point per width: sigma = 2^(width-6), rho = 0.99
            for tag, seed in (("a", self.seed), ("b", self.seed + 1)):
                argvs.append(["gen-vectors", "--width", str(width),
                              "--std", repr(2.0 ** (width - 6)),
                              "--rho", repr(RHO), "--vectors", str(self.vectors),
                              "--seed", str(seed),
                              "--out", str(self._stream(width, tag))])
        for argv in argvs:
            code = rarenet.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {code}")

    def commands(self):
        return [["simulate", "--netlist", str(self._netlist(k, w)),
                 "--stream-a", str(self._stream(w, "a")),
                 "--stream-b", str(self._stream(w, "b")),
                 "--out", str(self.out / f"{k.lower()}{w}.csv")]
                for k, w in self.archs]

    def _inputs(self, kind, width):
        """The checker's own reading of a simulation's input files."""
        if (kind, width) not in self._expected:
            info = recount.parse_netlist(self._netlist(kind, width).read_text())
            words = [recount.parse_stream(self._stream(width, t).read_text())[1]
                     for t in "ab"]
            self._expected[(kind, width)] = info, words
        return self._expected[(kind, width)]

    def check(self, results):
        outcome = Outcome()
        for (kind, width), (code, _) in zip(self.archs, results):
            problems = ([f"exit code {code}"] if code != 0
                        else _problems(self._check_sim, kind, width))
            outcome.record(problems, f"{kind}{width}")
        return outcome

    def _check_sim(self, kind, width):
        info, words = self._inputs(kind, width)
        activity = recount.parse_activity(
            (self.out / f"{kind.lower()}{width}.csv").read_text())
        return recount.check_activity(activity, info, *words)

    def memory_probe(self):
        kind, width = max(self.archs,
                          key=lambda kw: len(self._inputs(*kw)[0].gate_slices))
        return (load_netlist(self._netlist(kind, width)),
                rarenet.load_stream(self._stream(width, "a")),
                rarenet.load_stream(self._stream(width, "b")))


class EstimateGrid(Workload):
    """`rarenet estimate` and `locate --no-sim` over a grid, shuffled."""

    name = "estimate_grid"
    ADDER_WIDTHS = (4, 8, 16, 32)
    MULTIPLIER_WIDTHS = (4, 8, 16)

    def __init__(self, workdir: Path, seed: int, rhos=(0.9, 0.99, 0.999),
                 archs=None):
        super().__init__(workdir, seed)
        if archs is None:
            archs = ([(k, w) for k in ADDER_KINDS for w in self.ADDER_WIDTHS]
                     + [(k, w) for k in MULTIPLIER_KINDS
                        for w in self.MULTIPLIER_WIDTHS])
        self.archs = archs
        self.rhos = rhos
        self.queries: list[tuple[str, str, int, float, int]] = []
        self._slices = {}

    def setup(self) -> None:
        # sigma = 2^e for e = 2 .. width-4; width 4 has no such point
        points = [(k, w, rho, e) for k, w in self.archs for rho in self.rhos
                  for e in range(2, w - 3)]
        random.Random(self.seed).shuffle(points)
        self.queries = [("estimate" if i % 2 == 0 else "locate", *p)
                        for i, p in enumerate(points)]

    def commands(self):
        argvs = []
        for cmd, kind, width, rho, e in self.queries:
            argv = [cmd, "--arch", f"{kind}:{width}", "--std", repr(2.0 ** e),
                    "--rho", repr(rho)]
            argvs.append(argv + ["--no-sim"] if cmd == "locate" else argv)
        return argvs

    def _gate_slices(self, kind, width):
        key = (kind, width)
        if key not in self._slices:
            nl = rarenet.build_architecture(kind, width)
            self._slices[key] = ([g.bit_slice for g in nl.gates],
                                 nl.output_width, nl.name)
        return self._slices[key]

    def check(self, results):
        outcome = Outcome()
        for (cmd, kind, width, _, _), (code, text) in zip(self.queries, results):
            problems = ([f"exit code {code}"] if code != 0
                        else _problems(self._check_query, cmd, kind, width, text))
            outcome.record(problems, f"{cmd} {kind}:{width}")
        return outcome

    def _check_query(self, cmd, kind, width, text):
        slices, output_width, name = self._gate_slices(kind, width)
        lines = text.splitlines()
        if not lines:
            return ["no output"]
        fields = dict(item.split("=", 1) for item in lines[0].split()
                      if "=" in item)
        if cmd == "estimate":
            boundary, count = int(fields["bp1"]), int(fields["p_est"])
        else:
            columns, nets = lines[0].split("columns ", 1)[1].split(" (")
            boundary, top = (int(c) for c in columns.split(".."))
            count = int(nets.split()[0])
            if top != output_width - 1:
                return [f"top column {top} != {output_width - 1}"]
        blocks = sum(int(line.rsplit(":", 1)[1]) for line in lines[1:])
        if fields.get("arch") != name or fields.get("width") != str(width):
            return [f"wrong module in {lines[0]!r}"]
        want = sum(1 for s in slices if s >= boundary)
        if count != want or blocks != want:
            return [f"count {count} (blocks {blocks}) at column {boundary}, "
                    f"recount {want}"]
        return []


WORKLOADS = {w.name: w for w in (BatchSweep, FilesWide, EstimateGrid)}
