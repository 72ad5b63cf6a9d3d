"""Bit-parallel gate-level simulation and switching-activity extraction.

A census simulates one netlist under a list of operating points, each a
pair of equal-length operand streams, and counts every net's value
transitions at each point.  Each net's waveform is packed 64 vectors to a
little-endian `uint64` word.  Point p takes ceil(n_p / 64) words, the
points' words are laid end to end, and the concatenation is cut into
chunks of `CHUNK_WORDS` words.  A chunk holds one or more *pieces*; a
piece is one point's contiguous run of n vectors, strided over its own
W = ceil(n / 64) words: vector j*W + i of the piece is bit j of its word
i, and vectors past the point's last one repeat it, adding no
transitions.  A point that does not fit the rest of a chunk goes on as a
piece of the next.

`pack_points` unpacks the operand words into per-bit waveforms (two's
complement) in that layout once; they depend on the streams alone, so
one packing serves every netlist of the operand width.  The netlist is
evaluated gate by gate in topological order, one numpy bitwise ufunc per
gate over a whole row of a chunk.  A vector's predecessor is the same bit
of the word before it in its piece; for a piece's first word it is one
bit lower in the piece's last word, and bit 0 takes the point's previous
vector carried from the chunk before.  So the census is a popcount of
neighbouring words XOR-ed, with one wrap term per piece, summed per
piece.  Only functional transitions are counted; there is no timing or
glitch model.

Every chunk reuses one buffer as a C-contiguous (nets x words) array, net
k in row k, so the census's working memory is set by the netlist size and
the chunk size, not by the vector or point count.  The packed operand
rows hold 2 x width bits a vector, no more than the 64-bit stream words
they are made from (`evaluate`, which returns whole waveforms, is the
exception).

Control pins without an operand mapping (the adder carry-in) are tied low,
and nets made constant by the tie are excluded from the toggle census; see
`constant_nets`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .netlist import Netlist, operand_bit
from .stats import WordStats
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


def _input_pins(netlist: Netlist) -> tuple[list[int], dict[int, int]]:
    """Split the primary inputs into pins tied low and operand pins.

    Returns `(tied, rows)`: the pins without an operand mapping (the adder
    carry-in), and each operand pin's row in `PackedPoints.rows`.
    """
    tied, rows = [], {}
    for net in netlist.primary_inputs:
        pin = operand_bit(netlist.net_names[net])
        if pin is None:
            tied.append(net)
        else:
            rows[net] = (pin[0] == "b") * netlist.width + pin[1]
    return tied, rows


def constant_nets(netlist: Netlist) -> frozenset[int]:
    """Nets whose value is fixed by tied control pins (carry-in is held low).

    Synthesis sweeps such logic away; leaving it in the toggle census would
    report dead gates as rare regardless of stimulus, so the census skips
    them.  Operand bits are treated as free variables.
    """
    const = dict.fromkeys(_input_pins(netlist)[0], 0)
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


class Chunk(NamedTuple):
    """Words lo..hi-1 of the packed points, cut into pieces.

    Piece k starts at word `offsets[k]` of the chunk and runs to the next
    piece; it holds vectors `starts[k]`.. of point `points[k]`.
    """

    lo: int
    hi: int
    points: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True)
class PackedPoints:
    """The operand bits of a list of operating points, packed for a census.

    `rows[k * width + bit]` is operand k's (a, then b) bit over all
    chunks' words.  Point p has `lengths[p]` vectors, and `stats[p]` holds
    the target word statistics of its two streams.
    """

    width: int
    lengths: tuple[int, ...]
    stats: tuple[tuple[WordStats, WordStats], ...]
    rows: np.ndarray
    chunks: tuple[Chunk, ...]


def pack_points(width: int, pairs) -> PackedPoints:
    """Pack the operand stream pairs of `width`-bit operating points.

    The result depends on the streams alone, so one packing serves a
    census of every `width`-bit netlist.
    """
    pairs = tuple(pairs)
    if any(s.bit_width != width for pair in pairs for s in pair):
        raise ValueError(f"operand streams are not {width} bits wide")
    if any(len(a.words) != len(b.words) for a, b in pairs):
        raise ValueError("operand streams must have equal length")
    if any(len(a.words) < 2 for a, _ in pairs):
        raise ValueError("need at least two vectors to count transitions")
    nbytes = -(-width // 8)
    lengths = tuple(len(a.words) for a, _ in pairs)
    # first[p] is point p's first word; operands[p][k][t][i] is byte i of
    # word t of its operand k
    first = np.cumsum([0, *(-(-n // 64) for n in lengths)])
    operands = [[np.ascontiguousarray(s.words, "<i8").view(np.uint8)
                 .reshape(-1, 8)[:, :nbytes] for s in pair] for pair in pairs]
    rows = np.empty((2 * width, first[-1]), _WORD)
    chunks = []
    for lo in range(0, first[-1], CHUNK_WORDS):
        hi = min(lo + CHUNK_WORDS, first[-1])
        points = np.arange(np.searchsorted(first, lo, "right") - 1,
                           np.searchsorted(first, hi))
        offsets = np.maximum(first[points], lo) - lo
        starts = (lo + offsets - first[points]) * 64
        # planes[k][i][o + w][j] is byte i of operand k at vector j*W + w of
        # the piece at offset o, W words long
        planes = np.empty((2, nbytes, hi - lo, 64), np.uint8)
        for p, o, e, start in zip(points, offsets, [*offsets[1:], hi - lo],
                                  starts):
            stop = min(start + 64 * (e - o), lengths[p])
            for k, v in enumerate(operands[p]):
                piece = np.empty((nbytes, 64 * (e - o)), np.uint8)
                piece[:, :stop - start] = v[start:stop].T
                piece[:, stop - start:] = v[stop - 1, :, None]  # repeat the last
                planes[k, :, o:e] = piece.reshape(nbytes, 64, -1).transpose(0, 2, 1)
        for k, bit in itertools.product(range(2), range(width)):
            rows[k * width + bit, lo:hi].view(np.uint8)[:] = np.packbits(
                (planes[k, bit >> 3] >> (bit & 7)) & 1, bitorder="little")
        chunks.append(Chunk(lo, hi, points, offsets, starts))
    return PackedPoints(width, lengths,
                        tuple((a.target, b.target) for a, b in pairs),
                        rows, tuple(chunks))


def _chunks(netlist: Netlist, packed: PackedPoints):
    """Evaluate the netlist over `packed` chunk by chunk.

    Yields `(values, chunk)`: `values` is the (nets x words) array of the
    chunk's words, row k net k; the next chunk overwrites it.
    """
    if packed.width != netlist.width:
        raise ValueError("stream width does not match netlist operand width")
    nets = len(netlist.net_names)
    tied, pins = _input_pins(netlist)
    sources, rows = list(pins), list(pins.values())
    program = [(*_GATES[gate.kind], gate.inputs, net)
               for net, gate in zip(netlist.gate_nets, netlist.gates)]
    buf = np.empty(nets * max((c.hi - c.lo for c in packed.chunks), default=0),
                   _WORD)
    for chunk in packed.chunks:
        values = buf[:nets * (chunk.hi - chunk.lo)].reshape(nets, -1)
        # rows move when the chunk width changes, so tie the pins every chunk
        values[tied] = 0
        values[sources] = packed.rows[rows, chunk.lo:chunk.hi]
        view = list(values)
        for op, invert, ins, out in program:
            dst = view[out]
            if len(ins) == 2:
                op(view[ins[0]], view[ins[1]], out=dst)
            else:
                op(view[ins[0]], out=dst)
            if invert:
                np.invert(dst, out=dst)
        yield values, chunk


def evaluate(netlist: Netlist, a: StimulusStream, b: StimulusStream):
    """Return the full value waveform (uint8 array) for every net.

    This unpacks the simulator's packed words, so it holds one byte per net
    per vector; it is meant for checking the simulator, not for census runs.
    """
    packed = pack_points(a.bit_width, [(a, b)])
    waves = np.empty((len(netlist.net_names), len(a.words)), np.uint8)
    for values, chunk in _chunks(netlist, packed):
        # one point: each chunk is one piece
        (start,) = chunk.starts
        stop = min(start + 64 * values.shape[1], len(a.words))
        bits = np.unpackbits(values.view(np.uint8).reshape(len(values), -1, 8),
                             axis=2, bitorder="little").transpose(0, 2, 1)
        waves[:, start:stop] = bits.reshape(len(values), -1)[:, :stop - start]
    return dict(enumerate(waves))


def census(netlist: Netlist, packed: PackedPoints) -> Iterator[ToggleProfile]:
    """Count per-net transitions at every packed point in one pass.

    Returns an iterator of one `ToggleProfile` per point, in order; the
    profiles are built as they are taken.
    """
    nets = len(netlist.net_names)
    counts = np.zeros((len(packed.lengths), nets), np.int64)
    # each row's last vector of the chunk before, as bit 0: the predecessor
    # of vector 0 when the chunk's first piece goes on with the same point
    carry = np.zeros(nets, _WORD)
    for values, chunk in _chunks(netlist, packed):
        nwords = values.shape[1]
        offs = chunk.offsets
        # per piece: vector j*W's predecessor is bit j - 1 of its last word
        wrap = values[:, [*offs[1:] - 1, nwords - 1]] << 1
        wrap ^= values[:, offs]
        wrap[:, 0] ^= carry
        # a point's first vector has no predecessor: clear bit 0
        wrap &= np.where(chunk.starts == 0, ~_WORD.type(1), ~_WORD.type(0))
        np.right_shift(values[:, -1], 63, out=carry)
        sums = np.empty((nets, len(offs)), np.uint32)  # per row and piece
        block = max(1, _CENSUS_WORDS // nwords)
        diff = np.empty((block, nwords), _WORD)
        pop = np.empty((block, nwords), np.uint8)
        for r in range(0, nets, block):
            x = values[r:r + block].reshape(-1)
            m = len(x) // nwords
            d, c = diff[:m], pop[:m]
            # across a piece or row boundary this pairs unrelated words;
            # the wrap terms replace those
            np.bitwise_xor(x[1:], x[:-1], out=d.reshape(-1)[1:])
            d[:, offs] = wrap[r:r + m]
            np.bitwise_count(d, out=c)
            np.add.reduceat(c, offs, axis=1, out=sums[r:r + m])
        counts[chunk.points] += sums.T
    dead = constant_nets(netlist)
    live = [net for net in range(nets) if net not in dead]
    return (ToggleProfile(vectors, dict(zip(live, row[live].tolist())))
            for vectors, row in zip(packed.lengths, counts))


def simulate(netlist: Netlist, a: StimulusStream, b: StimulusStream) -> ToggleProfile:
    """Simulate both operand streams and count per-net transitions."""
    return next(census(netlist, pack_points(a.bit_width, [(a, b)])))


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
