"""Bit-parallel gate-level simulation and switching-activity extraction.

Each net's waveform is packed 64 vectors to a little-endian `uint64` word:
vector t is bit t % 64 of word t // 64.  Operand words are unpacked into
per-bit waveforms (two's complement), and the netlist is evaluated gate by
gate in topological order, one numpy bitwise ufunc per gate over a whole
row of words.  A net's activity is the count of value transitions between
consecutive vectors, taken as the popcount of the row XOR-ed with itself
shifted by one vector.  Only functional transitions are counted; there is
no timing or glitch model.

Vectors are processed in chunks of `CHUNK_WORDS` words into one
(nets x chunk) buffer that every chunk reuses, net k in row k, and each
net's last vector is carried into the next chunk's census.  Peak memory
is therefore set by the netlist size and the chunk size, not by the
vector count (`evaluate`, which returns whole waveforms, is the
exception).

Control pins without an operand mapping (the adder carry-in) are tied low,
and nets made constant by the tie are excluded from the toggle census; see
`constant_nets`.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .netlist import Netlist, operand_bit
from .stimulus import StimulusStream

CHUNK_WORDS = 1024  # 65,536 vectors per chunk
_CENSUS_ROWS = 16   # nets per block of the toggle census
_WORD = np.dtype("<u8")

# gate kind -> (ufunc on packed words, invert its result)
_GATES = {
    "AND": (np.bitwise_and, False),
    "OR": (np.bitwise_or, False),
    "NAND": (np.bitwise_and, True),
    "NOR": (np.bitwise_or, True),
    "XOR": (np.bitwise_xor, False),
    "XNOR": (np.bitwise_xor, True),
    "NOT": (np.invert, False),
    "BUF": (np.positive, False),
}


@dataclass(frozen=True)
class ToggleProfile:
    """Per-net transition counts over a simulated vector sequence."""

    vectors: int
    toggles: Mapping[int, int]

    def probability(self, net_id: int) -> float:
        """Transition probability: toggles / (vectors - 1)."""
        return self.toggles[net_id] / (self.vectors - 1)


def constant_nets(netlist: Netlist) -> frozenset[int]:
    """Nets whose value is fixed by tied control pins (carry-in is held low).

    Synthesis sweeps such logic away; leaving it in the toggle census would
    report dead gates as rare regardless of stimulus, so the census skips
    them.  Operand bits are treated as free variables.
    """
    const: dict[int, int] = {}
    for net in netlist.primary_inputs:
        if operand_bit(netlist.net_names[net]) is None:
            const[net] = 0
    for net, gate in zip(netlist.gate_nets, netlist.gates):
        if const.keys().isdisjoint(gate.inputs):
            continue
        # constant when every value of the free inputs gives one output
        op, invert = _GATES[gate.kind]
        values = ((const[i],) if i in const else (0, 1) for i in gate.inputs)
        outs = {(int(op(*vals)) ^ invert) & 1
                for vals in itertools.product(*values)}
        if len(outs) == 1:
            const[net] = outs.pop()
    return frozenset(const)


def _chunks(netlist: Netlist, a: StimulusStream, b: StimulusStream):
    """Evaluate the netlist chunk by chunk.

    Yields `(values, vectors)`: `values` is a (nets x words) packed view
    whose row k holds net k over `vectors` vectors; bits past them in the
    last word are undefined.  The view is overwritten by the next chunk.
    """
    if a.bit_width != netlist.width or b.bit_width != netlist.width:
        raise ValueError("stream width does not match netlist operand width")
    if len(a.words) != len(b.words):
        raise ValueError("operand streams must have equal length")
    operands = {"a": np.ascontiguousarray(a.words, "<i8"),
                "b": np.ascontiguousarray(b.words, "<i8")}
    nbytes = -(-netlist.width // 8)
    sources = []  # control pins are never written, so they stay low
    for net in netlist.primary_inputs:
        pin = operand_bit(netlist.net_names[net])
        if pin is not None:
            sources.append((net, pin[0], pin[1]))
    program = [(*_GATES[gate.kind], gate.inputs, net)
               for net, gate in zip(netlist.gate_nets, netlist.gates)]

    total = len(a.words)
    step = CHUNK_WORDS * 64
    buf = np.zeros((len(netlist.net_names), min(CHUNK_WORDS, -(-total // 64))),
                   _WORD)
    for start in range(0, total, step):
        stop = min(start + step, total)
        values = buf[:, :-(-(stop - start) // 64)]
        view = list(values)
        # byte planes: planes[name][j][t] is byte j of operand word t
        planes = {
            name: np.ascontiguousarray(
                words[start:stop].view(np.uint8).reshape(-1, 8)[:, :nbytes].T)
            for name, words in operands.items()
        }
        for net, name, bit in sources:
            packed = np.packbits((planes[name][bit >> 3] >> (bit & 7)) & 1,
                                 bitorder="little")
            view[net].view(np.uint8)[:packed.size] = packed
        for op, invert, ins, out in program:
            dst = view[out]
            if len(ins) == 2:
                op(view[ins[0]], view[ins[1]], out=dst)
            else:
                op(view[ins[0]], out=dst)
            if invert:
                np.invert(dst, out=dst)
        yield values, stop - start


def evaluate(netlist: Netlist, a: StimulusStream, b: StimulusStream):
    """Return the full value waveform (uint8 array) for every net.

    This unpacks the simulator's packed words, so it holds one byte per net
    per vector; it is meant for checking the simulator, not for census runs.
    """
    waves = np.empty((len(netlist.net_names), len(a.words)), np.uint8)
    start = 0
    for values, n in _chunks(netlist, a, b):
        waves[:, start:start + n] = np.unpackbits(
            values.view(np.uint8), axis=1, count=n, bitorder="little")
        start += n
    return dict(enumerate(waves))


def _count_toggles(values, vectors: int, first: bool, carry, counts) -> None:
    """Add one chunk's transitions per row to `counts`.

    `carry` holds each row's last vector of the previous chunk (as bit 0)
    and is updated to this chunk's last vector.  Vector 0 of the first
    chunk has no predecessor and bits past `vectors` are padding; both are
    masked out.
    """
    nrows, nwords = values.shape
    tail = vectors - 64 * (nwords - 1)
    tail_mask = _WORD.type((1 << tail) - 1)
    block = min(_CENSUS_ROWS, nrows)
    diff = np.empty((block, nwords), _WORD)
    prev = np.empty((block, nwords), _WORD)
    pop = np.empty((block, nwords), np.uint8)
    for r in range(0, nrows, block):
        x = values[r:r + block]
        m = x.shape[0]
        d, p, c = diff[:m], prev[:m], pop[:m]
        # p holds, at each bit, the value of the vector before it
        np.right_shift(x[:, :-1], 63, out=p[:, 1:])
        p[:, 0] = carry[r:r + m]
        np.left_shift(x, 1, out=d)
        np.bitwise_or(d, p, out=d)
        np.bitwise_xor(d, x, out=d)
        if first:
            d[:, 0] &= ~_WORD.type(1)
        d[:, -1] &= tail_mask
        np.bitwise_count(d, out=c)
        counts[r:r + m] += c.sum(axis=1, dtype=np.int64)
        np.right_shift(x[:, -1], 63, out=carry[r:r + m])


def simulate(netlist: Netlist, a: StimulusStream, b: StimulusStream) -> ToggleProfile:
    """Simulate both operand streams and count per-net transitions."""
    vectors = len(a.words)
    if vectors < 2:
        raise ValueError("need at least two vectors to count transitions")
    counts = np.zeros(len(netlist.net_names), np.int64)
    carry = np.zeros(len(netlist.net_names), _WORD)
    for k, (values, n) in enumerate(_chunks(netlist, a, b)):
        _count_toggles(values, n, k == 0, carry, counts)
    dead = constant_nets(netlist)
    toggles = {net: count for net, count in enumerate(counts.tolist())
               if net not in dead}
    return ToggleProfile(vectors=vectors, toggles=toggles)


def rare_nets(profile: ToggleProfile, threshold: float) -> frozenset[int]:
    """Nets whose transition probability is at or below the threshold."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return frozenset(
        net for net in profile.toggles
        if profile.probability(net) <= threshold
    )


def export_activity(netlist: Netlist, profile: ToggleProfile, path) -> None:
    """Write per-net activity as CSV, one row per net, sorted by net id."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["net_id", "net_name", "block", "slice", "toggles",
             "vectors", "probability"]
        )
        for net_id in sorted(profile.toggles):
            gate = netlist.driver_of(net_id)
            writer.writerow(
                [net_id, netlist.net_names[net_id],
                 gate.block if gate else "", netlist.bit_slice(net_id),
                 profile.toggles[net_id], profile.vectors,
                 f"{profile.probability(net_id):.12f}"]
            )
