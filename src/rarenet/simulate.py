"""Bit-parallel gate-level simulation and switching-activity extraction.

Each net's waveform is packed 64 vectors to a little-endian `uint64` word,
strided: in a chunk of n vectors in W = ceil(n / 64) words, vector j*W + i
is bit j of word i, and vectors past n repeat vector n - 1, adding no
transitions.  Operand words are unpacked into per-bit waveforms (two's
complement), and the netlist is evaluated gate by gate in topological
order, one numpy bitwise ufunc per gate over a whole row of words.  A
net's activity is the count of value transitions between consecutive
vectors: a vector's predecessor is the same bit of the word before (for
word 0, one bit lower in word W-1), so the census is a popcount of
neighbouring words XOR-ed.  Only functional transitions are counted;
there is no timing or glitch model.

Vectors are processed in chunks of `CHUNK_WORDS` words into one buffer
that every chunk reuses as a C-contiguous (nets x W) array, net k in row
k, and each net's last vector is carried into the next chunk's census.
Peak memory is therefore set by the netlist size and the chunk size, not
by the vector count (`evaluate`, which returns whole waveforms, is the
exception).

Control pins without an operand mapping (the adder carry-in) are tied low,
and nets made constant by the tie are excluded from the toggle census; see
`constant_nets`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .netlist import Netlist, operand_bit
from .stimulus import StimulusStream

CHUNK_WORDS = 1024  # 65,536 vectors per chunk
_CENSUS_WORDS = 30_000  # words per census block; 9 bytes of temporaries a word
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

    Yields `(values, start, stop)`: `values` is the (nets x W) array of
    vectors start..stop-1 in the strided layout, row k net k; the next
    chunk overwrites it.
    """
    if a.bit_width != netlist.width or b.bit_width != netlist.width:
        raise ValueError("stream width does not match netlist operand width")
    if len(a.words) != len(b.words):
        raise ValueError("operand streams must have equal length")
    nbytes = -(-netlist.width // 8)
    # operands[name][t][k] is byte k of word t
    operands = {name: np.ascontiguousarray(s.words, "<i8").view(np.uint8)
                .reshape(-1, 8)[:, :nbytes] for name, s in (("a", a), ("b", b))}
    sources = [(net, *pin) for net in netlist.primary_inputs
               if (pin := operand_bit(netlist.net_names[net])) is not None]
    program = [(*_GATES[gate.kind], gate.inputs, net)
               for net, gate in zip(netlist.gate_nets, netlist.gates)]

    nets = len(netlist.net_names)
    total = len(a.words)
    step = CHUNK_WORDS * 64
    buf = np.empty(nets * min(CHUNK_WORDS, -(-total // 64)), _WORD)
    for start in range(0, total, step):
        stop = min(start + step, total)
        nwords = -(-(stop - start) // 64)
        values = buf[:nets * nwords].reshape(nets, nwords)
        # rows move when W changes, so tie the control pins low every chunk
        values[:len(netlist.primary_inputs)] = 0
        view = list(values)
        planes = {}  # planes[name][k][i][j] is byte k of vector j*W + i
        for name, v in operands.items():
            p = np.empty((nbytes, 64 * nwords), np.uint8)
            p[:, :stop - start] = v[start:stop].T
            p[:, stop - start:] = v[stop - 1, :, None]  # repeat the last vector
            planes[name] = p.reshape(nbytes, 64, nwords).transpose(0, 2, 1).copy()
        for net, name, bit in sources:
            view[net].view(np.uint8)[:] = np.packbits(
                (planes[name][bit >> 3] >> (bit & 7)) & 1, bitorder="little")
        for op, invert, ins, out in program:
            dst = view[out]
            if len(ins) == 2:
                op(view[ins[0]], view[ins[1]], out=dst)
            else:
                op(view[ins[0]], out=dst)
            if invert:
                np.invert(dst, out=dst)
        yield values, start, stop


def evaluate(netlist: Netlist, a: StimulusStream, b: StimulusStream):
    """Return the full value waveform (uint8 array) for every net.

    This unpacks the simulator's packed words, so it holds one byte per net
    per vector; it is meant for checking the simulator, not for census runs.
    """
    waves = np.empty((len(netlist.net_names), len(a.words)), np.uint8)
    for values, start, stop in _chunks(netlist, a, b):
        bits = np.unpackbits(values.view(np.uint8).reshape(len(values), -1, 8),
                             axis=2, bitorder="little").transpose(0, 2, 1)
        waves[:, start:stop] = bits.reshape(len(values), -1)[:, :stop - start]
    return dict(enumerate(waves))


def _count_toggles(values, first: bool, carry, counts) -> None:
    """Add one chunk's transitions per row to `counts`.

    `carry` holds each row's last vector of the previous chunk (as bit 0),
    the predecessor of vector 0, and is updated to this chunk's.
    """
    nrows, nwords = values.shape
    wrap = (values[:, -1] << 1 | carry) ^ values[:, 0]
    wrap &= ~_WORD.type(first)  # clears bit 0 on the first chunk
    np.right_shift(values[:, -1], 63, out=carry)
    block = max(1, _CENSUS_WORDS // nwords)
    diff = np.empty((block, nwords), _WORD)
    pop = np.empty((block, nwords), np.uint8)
    for r in range(0, nrows, block):
        x = values[r:r + block].reshape(-1)
        m = len(x) // nwords
        d, c = diff[:m], pop[:m]
        # across a row boundary this pairs two rows; the wrap term replaces it
        np.bitwise_xor(x[1:], x[:-1], out=d.reshape(-1)[1:])
        d[:, 0] = wrap[r:r + m]
        np.bitwise_count(d, out=c)
        counts[r:r + m] += c.sum(axis=1, dtype=np.uint32)


def simulate(netlist: Netlist, a: StimulusStream, b: StimulusStream) -> ToggleProfile:
    """Simulate both operand streams and count per-net transitions."""
    vectors = len(a.words)
    if vectors < 2:
        raise ValueError("need at least two vectors to count transitions")
    counts = np.zeros(len(netlist.net_names), np.int64)
    carry = np.zeros(len(netlist.net_names), _WORD)
    for values, start, _ in _chunks(netlist, a, b):
        _count_toggles(values, start == 0, carry, counts)
    dead = constant_nets(netlist)
    toggles = {net: count for net, count in enumerate(counts.tolist())
               if net not in dead}
    return ToggleProfile(vectors=vectors, toggles=toggles)


# With V vectors no threshold below 1/(V - 1) is resolved; at 10,000
# vectors this default selects exactly the nets that never toggle.
RARE_THRESHOLD = 1e-4


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the rare-net threshold is in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:  # a NaN fails this too
        raise ValueError(f"threshold {threshold} outside [0, 1]")


def rare_nets(profile: ToggleProfile, threshold: float) -> frozenset[int]:
    """Nets whose transition probability is at or below the threshold."""
    check_threshold(threshold)
    return frozenset(
        net for net in profile.toggles
        if profile.probability(net) <= threshold
    )


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_fields(texts):
    """`texts` as `csv.writer` writes fields: quoted if one holds , " CR or LF."""
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    return ['"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) else s
            for s in texts]


def export_activity(netlist: Netlist, profile: ToggleProfile, path) -> None:
    """Write per-net activity as CSV, one row per net, sorted by net id.

    The text is what `csv.writer` writes; per-net columns are built once.
    """
    inputs = netlist.primary_inputs
    names = _csv_fields(netlist.net_names)
    blocks = _csv_fields([""] * len(inputs) + [g.block for g in netlist.gates])
    slices = ([netlist.bit_slice(n) for n in inputs]
              + [g.bit_slice for g in netlist.gates])
    vectors = profile.vectors
    with open(path, "w", newline="") as fh:
        fh.write("net_id,net_name,block,slice,toggles,vectors,probability\r\n")
        fh.write("".join([
            f"{n},{names[n]},{blocks[n]},{slices[n]},{t},{vectors},"
            f"{t / (vectors - 1):.12f}\r\n"
            for n, t in sorted(profile.toggles.items())]))
