"""Span tracing around calls into rarenet's layers, from outside the package.

`rarenet.simulate` read as a package attribute is the function, and callers
bind names at import time (`cli` imports `simulate`, `generate`, ... by
name).  So `instrument` patches the names in the modules taken from
`sys.modules`, in every module that calls them, and `restore` undoes it.

Spans are kept in memory.  A span's self time is its duration minus the part
of its interval covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn, count=None):
        """Return `fn` recording a span per call; `count(tracer, args, result)`
        runs after the span closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent=parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self_times(self.spans)):
            totals[span.name] += t
        return dict(totals)


# ------------------------------------------------------------ counters

def _count_build(tracer, args, netlist):
    tracer.counts["archlib.gates"] += len(netlist.gates)


def _count_words(tracer, args, stream):
    tracer.counts["stimulus.words"] += len(stream.words)


def _count_constant(tracer, args, const):
    netlist = args[0]
    tracer.counts["_constant_gates"] = sum(
        1 for n in const if netlist.driver_of(n) is not None)


def _count_simulate(tracer, args, profile):
    netlist = args[0]
    gates = len(netlist.gates)
    dead = tracer.counts.pop("_constant_gates", 0)
    tracer.counts["simulate.gate_evals"] += gates * profile.vectors
    tracer.counts["simulate.live_gate_evals"] += (gates - dead) * profile.vectors


# (module, attribute, span name, counter); one entry per call site binding
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "build_architecture", "archlib.build_architecture", _count_build),
    ("cli", "save_netlist", "netlist.save_netlist", None),
    ("cli", "load_netlist", "netlist.load_netlist", None),
    ("cli", "generate", "stimulus.generate", _count_words),
    ("cli", "save_stream", "stimulus.save_stream", None),
    ("cli", "load_stream", "stimulus.load_stream", _count_words),
    ("cli", "simulate", "simulate.simulate", _count_simulate),
    ("cli", "export_activity", "simulate.export_activity", None),
    ("cli", "rare_nets", "simulate.rare_nets", None),
    ("cli", "breakpoints", "stats.breakpoints", None),
    ("cli", "estimate_rare_nets", "estimate.estimate_rare_nets", None),
    ("cli", "write_report_csv", "estimate.write_report_csv", None),
    ("estimate", "estimate_rare_nets", "estimate.estimate_rare_nets", None),
    ("estimate", "simulate", "simulate.simulate", _count_simulate),
    ("estimate", "rare_nets", "simulate.rare_nets", None),
    ("estimate", "generate", "stimulus.generate", _count_words),
    ("estimate", "breakpoints", "stats.breakpoints", None),
    ("simulate", "evaluate", "simulate.evaluate", None),
    ("simulate", "constant_nets", "simulate.constant_nets", _count_constant),
    ("netlist", "import_netlist", "netlist.import_netlist", None),
    ("netlist", "export_netlist", "netlist.export_netlist", None),
    ("stimulus", "parse_stream", "stimulus.parse_stream", None),
    ("stimulus", "dump_stream", "stimulus.dump_stream", None),
)


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every call site in PATCHES; returns what `restore` needs.

    A name a module does not bind (it may be refactored away) is skipped.
    """
    saved = []
    for mod_name, attr, span_name, count in PATCHES:
        module = sys.modules[f"rarenet.{mod_name}"]
        original = getattr(module, attr, None)
        if original is None:
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original, count))
    return saved


def restore(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# span name -> per-layer metric that its self time adds to
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "archlib.build_architecture": "archlib.build_s",
    "netlist.save_netlist": "netlist.save_s",
    "netlist.export_netlist": "netlist.save_s",
    "netlist.load_netlist": "netlist.load_s",
    "netlist.import_netlist": "netlist.load_s",
    "stimulus.generate": "stimulus.generate_s",
    "stimulus.save_stream": "stimulus.save_stream_s",
    "stimulus.dump_stream": "stimulus.save_stream_s",
    "stimulus.load_stream": "stimulus.load_stream_s",
    "stimulus.parse_stream": "stimulus.load_stream_s",
    "simulate.simulate": "simulate.census_s",
    "simulate.evaluate": "simulate.evaluate_s",
    "simulate.constant_nets": "simulate.constant_nets_s",
    "simulate.export_activity": "simulate.export_activity_s",
    "simulate.rare_nets": "simulate.rare_nets_s",
    "stats.breakpoints": "stats.breakpoints_s",
    "estimate.estimate_rare_nets": "estimate.estimate_rare_nets_s",
    "estimate.write_report_csv": "estimate.write_report_csv_s",
}
