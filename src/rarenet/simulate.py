"""Bit-parallel gate-level simulation and switching-activity extraction.

A census simulates one netlist under a list of operating points, each a
pair of equal-length operand streams, and counts every net's value
transitions at each point.  Each net's waveform is packed 64 vectors to a
little-endian `uint64` word.  Point p takes ceil(n_p / 64) words, the
points' words are laid end to end, and the concatenation is cut into
*windows* of `WINDOW_WORDS` words.  A window holds one or more *pieces*,
at most one per point; a piece is one point's contiguous run of n
vectors, strided over its own W = ceil(n / 64) words: vector j*W + i of
the piece is bit j of its word i, and vectors past the point's last one
repeat it, adding no transitions.  A point that does not fit the rest of
a window goes on as a piece of the next.

`pack_points` unpacks the operand words into per-bit waveforms (two's
complement) in that layout once; they depend on the streams alone, so
one packing serves every netlist of the operand width.  A netlist is
evaluated window by window, gates in topological order, one numpy
bitwise ufunc per gate over a whole row of a window.  A vector's
predecessor is the same bit of the word before it in its piece; for a
piece's first word it is one bit lower in the piece's last word, and bit
0 takes the point's previous vector, bit 63 of the last word of the piece
before (carried over from the window before for its first piece).  So
the census is a popcount of neighbouring words XOR-ed, with one wrap term
per piece.  Only functional transitions are counted; there is no timing
or glitch model.

Every window reuses one buffer, the *pool*, as a C-contiguous
(rows x words) array.  Primary input k keeps row k.  Gates go in *pages*
of `PAGE` consecutive gates; each page takes a slot of `PAGE` rows,
handed on to a later page once every reader of its nets has run (linear
scan over each page's last reader), and is counted right after its last
gate, while its rows are in cache.  So the census's working memory is
set by the nets live at once, not by the net, vector or point count: the
2,584 nets of a 16-bit Dadda multiplier take 1,120 rows (8.75 MiB at
1,024 words), the largest pool, and the 4,143 of a 16-bit Vedic
multiplier 928 rows.  The packed operand rows hold 2 x width bits a
vector, no more than the 64-bit stream words they are made from
(`evaluate`, which returns whole waveforms, is the exception).

Control pins without an operand mapping (the adder carry-in) are tied low,
and nets made constant by the tie are excluded from the toggle census; see
`constant_nets`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .netlist import GATE_ARITY, Netlist, operand_bit
from .stats import WordStats
from .stimulus import StimulusStream

WINDOW_WORDS = 1024  # 65,536 vectors per window
PAGE = 32  # gates per page; a page's nets share a slot of PAGE rows
_WORD = np.dtype("<u8")

# gate kind code (its position in `GATE_ARITY`) -> (ufunc on packed words,
# invert its result)
_GATES = tuple({
    "AND": (np.bitwise_and, False),
    "OR": (np.bitwise_or, False),
    "NAND": (np.bitwise_and, True),
    "NOR": (np.bitwise_or, True),
    "XOR": (np.bitwise_xor, False),
    "XNOR": (np.bitwise_xor, True),
    "NOT": (np.invert, False),
    "BUF": (np.positive, False),
}[kind] for kind in GATE_ARITY)


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
    for net, name in enumerate(netlist.input_names):
        pin = operand_bit(name)
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
    for net, kind, (first, second) in zip(netlist.gate_nets,
                                          netlist.kinds.tolist(),
                                          netlist.ins.tolist()):
        if first not in const and second not in const:
            continue
        # constant when every value of the free inputs gives one output
        op, invert = _GATES[kind]
        ins = (first,) if second < 0 else (first, second)
        values = ((const[i],) if i in const else (0, 1) for i in ins)
        outs = {(int(op(*vals)) ^ invert) & 1
                for vals in itertools.product(*values)}
        if len(outs) == 1:
            const[net] = outs.pop()
    return frozenset(const)


class Chunk(NamedTuple):
    """A census window: words lo..hi-1 of the packed points, cut into pieces.

    Piece k starts at word `offsets[k]` of the window and runs to the next
    piece; it holds vectors `starts[k]`.. of point `points[k]`, and no
    point has two pieces in one window.  The pool holds a window's words
    of each live net, a page at a time.
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
    windows' words; `chunks` cuts them into the census windows, every
    `WINDOW_WORDS` words.  Point p has `lengths[p]` vectors, and `stats[p]`
    holds the target word statistics of its two streams.
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
    for lo in range(0, first[-1], WINDOW_WORDS):
        hi = min(lo + WINDOW_WORDS, first[-1])
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


def _pool(netlist: Netlist) -> tuple[np.ndarray, int]:
    """Plan the window buffer: each net's row in it, and its row count.

    Primary input k keeps row k.  Gates go in pages of `PAGE` consecutive
    gates, and each page takes a slot of `PAGE` rows after the inputs'.  A
    slot is handed out again, by linear scan over a heap of (last reader,
    slot), only once every reader of its previous page has run.
    """
    inputs, count = len(netlist.input_names), len(netlist.kinds)
    # last[g]: the last gate that reads gate g's net, or g itself
    last = np.arange(count)
    reads = netlist.ins - inputs
    gates = reads >= 0
    np.maximum.at(last, reads[gates], np.nonzero(gates)[0])
    heap, free, slots = [], [], []
    for page, end in enumerate(
            np.maximum.reduceat(last, np.arange(0, count, PAGE)).tolist()):
        while heap and heap[0][0] < page * PAGE:
            free.append(heapq.heappop(heap)[1])
        slots.append(free.pop() if free else len(heap))
        heapq.heappush(heap, (end, slots[-1]))
    gate = np.arange(count)
    rows = inputs + PAGE * np.array(slots, np.int64)[gate // PAGE]
    rows += gate % PAGE
    return (np.concatenate([np.arange(inputs), rows]),
            inputs + PAGE * (len(heap) + len(free)))


def _chunks(netlist: Netlist, packed: PackedPoints):
    """Evaluate the netlist over `packed` window by window, page by page.

    Yields `(window, pages)`: `window` is each `Chunk` of `packed` in
    turn, and `pages` evaluates it, yielding `(net, rows)` for the
    primary inputs and then for each page of gates once its last gate has
    run: `rows` is the (n x words) array of nets net..net+n-1 over the
    window's words.  It is overwritten when its slot is handed out again,
    so take every page before the next, and all of them before the next
    window.
    """
    if packed.width != netlist.width:
        raise ValueError("stream width does not match netlist operand width")
    rows, size = _pool(netlist)
    tied, pins = _input_pins(netlist)
    sources, operands = list(pins), list(pins.values())
    inputs = len(netlist.input_names)
    ins = np.where(netlist.ins >= 0, rows[netlist.ins], -1)
    program = [(*_GATES[kind], first, second, out)
               for kind, (first, second), out in zip(
                   netlist.kinds.tolist(), ins.tolist(),
                   rows[inputs:].tolist())]
    pages = [(net, int(rows[net]), program[net - inputs:net - inputs + PAGE])
             for net in range(inputs, netlist.net_count, PAGE)]

    def evaluate_pages(pool):
        yield 0, pool[:inputs]
        view = list(pool)
        for net, row, page in pages:
            # `out` goes positionally: the keyword costs a third of a call
            for op, invert, first, second, out in page:
                dst = view[out]
                if second >= 0:
                    op(view[first], view[second], dst)
                else:
                    op(view[first], dst)
                if invert:
                    np.invert(dst, dst)
            yield net, pool[row:row + len(page)]

    buf = np.empty(size * max((w.hi - w.lo for w in packed.chunks), default=0),
                   _WORD)
    for window in packed.chunks:
        pool = buf[:size * (window.hi - window.lo)].reshape(size, -1)
        # rows move when the window width changes, so tie the pins every window
        pool[tied] = 0
        pool[sources] = packed.rows[operands, window.lo:window.hi]
        yield window, evaluate_pages(pool)


def evaluate(netlist: Netlist, a: StimulusStream, b: StimulusStream):
    """Return the full value waveform (uint8 array) for every net.

    This unpacks the simulator's packed words, so it holds one byte per net
    per vector; it is meant for checking the simulator, not for census runs.
    A vector left unpacked reads 2, which no oracle value equals.
    """
    packed = pack_points(a.bit_width, [(a, b)])
    waves = np.full((netlist.net_count, len(a.words)), 2, np.uint8)
    for window, pages in _chunks(netlist, packed):
        # one point: the window is one piece
        start = int(window.starts[0])
        stop = min(start + 64 * (window.hi - window.lo), len(a.words))
        for net, rows in pages:
            bits = np.unpackbits(rows.view(np.uint8).reshape(len(rows), -1, 8),
                                 axis=2, bitorder="little").transpose(0, 2, 1)
            waves[net:net + len(rows), start:stop] = bits.reshape(
                len(rows), -1)[:, :stop - start]
    return dict(enumerate(waves))


def census(netlist: Netlist, packed: PackedPoints) -> Iterator[ToggleProfile]:
    """Count per-net transitions at every packed point in one pass.

    Returns an iterator of one `ToggleProfile` per point, in order; the
    profiles are built as they are taken.
    """
    nets = netlist.net_count
    counts = np.zeros((len(packed.lengths), nets), np.int64)
    # each row's last word of the window before: its bit 63 is the
    # predecessor of vector 0 when the window's first piece goes on a point
    carry = np.zeros((nets, 1), _WORD)
    block = max(PAGE, len(netlist.input_names))  # rows in the largest page
    for window, pages in _chunks(netlist, packed):
        offs = window.offsets
        lasts = np.append(offs[1:], window.hi - window.lo) - 1
        sums = np.empty((nets, len(offs)), np.uint32)  # per net and piece
        # each net's first and last word of every piece
        head = np.empty((nets, len(offs)), _WORD)
        last = np.empty((nets, len(offs)), _WORD)
        diff = np.empty((block, window.hi - window.lo), _WORD)
        pop = np.empty(diff.shape, np.uint8)
        # count each page while its rows are in cache
        for net, rows in pages:
            span = slice(net, net + len(rows))
            d, c = diff[:len(rows)], pop[:len(rows)]
            x = rows.reshape(-1)
            # across a piece or row boundary this pairs unrelated words;
            # the wrap terms below count those
            np.bitwise_xor(x[1:], x[:-1], d.reshape(-1)[1:])
            d[:, offs] = 0
            np.bitwise_count(d, c)
            np.add.reduceat(c, offs, axis=1, out=sums[span])
            head[span] = rows[:, offs]
            last[span] = rows[:, lasts]
        # per piece: vector j*W's predecessor is bit j - 1 of its last word,
        # and vector 0's is bit 63 of the last word of the piece before
        wrap = last << 1
        wrap ^= head
        wrap ^= np.hstack([carry, last[:, :-1]]) >> 63
        # a point's first vector has no predecessor: clear bit 0
        wrap &= np.where(window.starts == 0, ~_WORD.type(1), ~_WORD.type(0))
        carry = last[:, -1:]
        sums += np.bitwise_count(wrap)
        counts[window.points] += sums.T
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
    span = profile.vectors - 1  # `probability`'s divisor, without the call
    return frozenset(net for net, t in profile.toggles.items()
                     if t / span <= threshold)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_fields(texts):
    """`texts` as `csv.writer` writes fields: quoted if one holds , " CR or LF."""
    if not _NEEDS_QUOTES.search("".join(texts)):
        return texts
    return ['"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) else s
            for s in texts]


@functools.lru_cache(maxsize=1)
def _activity_heads(netlist: Netlist) -> tuple[str, ...]:
    """Each net's `net_id,net_name,block,slice,` CSV text, built once for
    the points of one netlist; the memo holds the last netlist only."""
    inputs = netlist.primary_inputs
    blocks = ([""] * len(inputs)
              + list(map(_csv_fields(netlist.block_names).__getitem__,
                         netlist.blocks.tolist())))
    slices = [netlist.bit_slice(n) for n in inputs] + netlist.slices.tolist()
    return tuple(f"{n},{name},{block},{s},"
                 for n, (name, block, s) in enumerate(zip(
                     _csv_fields(netlist.net_names), blocks, slices)))


def export_activity(netlist: Netlist, profile: ToggleProfile, path) -> None:
    """Write per-net activity as CSV, one row per net, sorted by net id.

    The text is what `csv.writer` writes; per-net columns are built once
    per netlist.
    """
    heads = _activity_heads(netlist)
    vectors = profile.vectors
    with open(path, "w", newline="") as fh:
        fh.write("net_id,net_name,block,slice,toggles,vectors,probability\r\n")
        fh.write("".join([
            f"{heads[n]}{t},{vectors},{t / (vectors - 1):.12f}\r\n"
            for n, t in sorted(profile.toggles.items())]))
