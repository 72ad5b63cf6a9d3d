"""Structural gate-level netlist model.

A netlist is an immutable single-driver DAG of 1- and 2-input primitive
gates, held as columns.  Gate k has a kind `kinds[k]` (a uint8 code, its
kind's position in `GATE_ARITY`), inputs `ins[k]` (two net ids, the
second -1 for a one-input gate), a bit-slice annotation `slices[k]` (the
output-word column the value it produces belongs to) and a block
`blocks[k]` (a code into the `block_names` table, e.g. "FA13"); slices
and blocks drive region localization.  Netlists round-trip through a
deterministic text format.

Nets are numbered by position: the P primary inputs are nets 0..P-1 and
gate k drives net P+k, so a net id is also the net's simulator row.
Gates are listed in topological order: every gate reads only primary
inputs and the nets of gates listed before it.  The builder and
`export_netlist` produce this numbering and order, and `import_netlist`
checks each `net` and `gate` line against its position, so a file that
breaks either rule raises `NetlistError`.

A built gate's net is named `<block>.<kind><seq>`, seq counting the gates
of its block; those names are made the first time `net_names` is read.
`gates` is a read-only view that makes a `Gate` (a `typing.NamedTuple` of
`kind, inputs, bit_slice, block`) per index on demand.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textscan

GATE_ARITY: dict[str, int] = {
    "AND": 2, "OR": 2, "NAND": 2, "NOR": 2,
    "XOR": 2, "XNOR": 2, "NOT": 1, "BUF": 1,
}
_KINDS = tuple(GATE_ARITY)  # kind code -> kind
_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_ARITY = np.array(list(GATE_ARITY.values()))
_INT32 = np.iinfo(np.int32)


class NetlistError(Exception):
    """Raised for structural violations (cycles, missing drivers, bad arity)."""


def operand_bit(name: str) -> tuple[str, int] | None:
    """('a' or 'b', bit) for an operand pin name `a<k>`/`b<k>`, else None."""
    digits = name[1:]
    if name[:1] in ("a", "b") and digits.isascii() and digits.isdigit():
        return name[0], int(digits)
    return None


class Gate(NamedTuple):
    """One primitive gate: its kind (a `GATE_ARITY` key), the nets it
    reads, its output-word column and its block label.  A NamedTuple, so
    it is immutable and compares equal to the plain tuple of its fields."""

    kind: str
    inputs: tuple[int, ...]
    bit_slice: int
    block: str


class GateView(Sequence):
    """The gates of a netlist, read-only: `view[k]` makes gate k's `Gate`,
    and `len` makes none."""

    __slots__ = ("_netlist",)

    def __init__(self, netlist: Netlist):
        self._netlist = netlist

    def __len__(self) -> int:
        return len(self._netlist.kinds)

    def __getitem__(self, k: int) -> Gate:
        nl = self._netlist
        k = range(len(nl.kinds))[k]  # IndexError past either end
        first, second = nl.ins[k].tolist()
        return Gate(_KINDS[nl.kinds[k]],
                    (first,) if second < 0 else (first, second),
                    int(nl.slices[k]), nl.block_names[nl.blocks[k]])


def _column(values, dtype) -> np.ndarray:
    """`values` as a read-only array of `dtype`."""
    column = np.asarray(values, dtype)
    column.setflags(write=False)
    return column


class Netlist:
    """Immutable combinational netlist; gate k drives net P + k.

    `gate_names` are the names of the gate nets; without them each is
    named `<block>.<kind><seq>` when `net_names` is first read.
    """

    __slots__ = ("name", "width", "input_names", "kinds", "ins", "slices",
                 "blocks", "block_names", "primary_outputs", "_net_names")

    def __init__(self, name: str, width: int, input_names: tuple[str, ...],
                 kinds, ins, slices, blocks, block_names: tuple[str, ...],
                 primary_outputs: tuple[int, ...],
                 gate_names: tuple[str, ...] | None = None):
        self.name = name
        self.width = width
        self.input_names = tuple(input_names)
        self.kinds = _column(kinds, np.uint8)
        self.ins = _column(ins, np.int32).reshape(-1, 2)
        self.slices = _column(slices, np.int32)
        self.blocks = _column(blocks, np.int32)
        self.block_names = tuple(block_names)
        self.primary_outputs = tuple(primary_outputs)
        self._net_names = (None if gate_names is None
                           else self.input_names + tuple(gate_names))
        _check(width, self.input_names, self.kinds, 1 + (self.ins[:, 1] >= 0),
               self.ins, self.slices, self.primary_outputs)

    @property
    def output_width(self) -> int:
        return len(self.primary_outputs)

    @property
    def is_multiplier(self) -> bool:
        return self.output_width == 2 * self.width

    @property
    def primary_inputs(self) -> range:
        return range(len(self.input_names))

    @property
    def gate_nets(self) -> range:
        """The net each gate drives, in gate order."""
        return range(len(self.input_names), self.net_count)

    @property
    def net_count(self) -> int:
        return len(self.input_names) + len(self.kinds)

    @property
    def net_names(self) -> tuple[str, ...]:
        if self._net_names is None:
            self._net_names = self.input_names + _name_gates(
                self.kinds, self.blocks, self.block_names)
        return self._net_names

    @property
    def gates(self) -> GateView:
        return GateView(self)

    def driver_of(self, net_id: int) -> Gate | None:
        """The gate driving `net_id`; None for a primary input."""
        k = net_id - len(self.input_names)
        return self.gates[k] if 0 <= k < len(self.kinds) else None

    def bit_slice(self, net_id: int) -> int:
        """Column of a net: its gate's, or the bit of an operand pin (cin: 0)."""
        k = net_id - len(self.input_names)
        if 0 <= k < len(self.kinds):
            return int(self.slices[k])
        pin = operand_bit(self.input_names[net_id])
        return pin[1] if pin else 0


def _name_gates(kinds: np.ndarray, blocks: np.ndarray,
                block_names: tuple[str, ...]) -> tuple[str, ...]:
    """`<block>.<kind><seq>` per gate, seq counting the gates of its block."""
    kind = [name.lower() for name in _KINDS]
    seq = [0] * len(block_names)
    names = []
    for k, b in zip(kinds.tolist(), blocks.tolist()):
        names.append(f"{block_names[b]}.{kind[k]}{seq[b]}")
        seq[b] += 1
    return tuple(names)


def _check(width: int, input_names: tuple[str, ...], kinds: np.ndarray,
           arity: np.ndarray, ins: np.ndarray, slices: np.ndarray,
           outputs: tuple[int, ...], kind_names: tuple[str, ...] = _KINDS):
    """Raise `NetlistError` for the first fault of a netlist: in its
    primary input names, then in the first bad gate (its kind, its arity,
    its inputs in order, its slice), then in its outputs.

    `arity[k]` is the number of inputs gate k was given, the first two of
    them in `ins[k]`; `kind_names[c]` names kind code c, and a code past
    `GATE_ARITY` is unknown.
    """
    inputs = len(input_names)
    pins = set()
    for name in input_names:
        pin = operand_bit(name)
        if name != "cin" and (pin is None or pin[1] >= width):
            raise NetlistError(
                f"primary input {name!r} is neither cin nor a<k>/b<k> "
                f"with k < {width}")
        pins.add(pin or name)
    if len(pins) != inputs:
        raise NetlistError("two primary inputs name the same pin")
    nets = inputs + len(kinds)
    columns = len(outputs)
    known = kinds < len(_KINDS)
    # gate k may read only nets below its own
    reads = (ins >= 0) & (ins < np.arange(inputs, nets)[:, None])
    bad = (~known | (arity != _ARITY[np.where(known, kinds, 0)])
           | ~reads[:, 0] | ((arity > 1) & ~reads[:, 1])
           | (slices < 0) | (slices >= columns))
    if bad.any():
        k = int(np.argmax(bad))
        code = int(kinds[k])
        kind = kind_names[code] if code < len(kind_names) else f"code {code}"
        if not known[k]:
            raise NetlistError(f"unknown gate kind {kind}")
        if arity[k] != GATE_ARITY[kind]:
            raise NetlistError(f"gate {k} ({kind}) has wrong arity")
        for i in ins[k, :arity[k]].tolist():
            if not 0 <= i < inputs + k:
                if not 0 <= i < nets:
                    raise NetlistError(f"gate {k} reads unknown net {i}")
                raise NetlistError(
                    f"gate {k} is not in topological order (net {i})")
        raise NetlistError(f"gate {k} bit_slice {slices[k]} out of range")
    seen = set()
    for nid in outputs:
        if not 0 <= nid < nets:
            raise NetlistError(f"unknown primary output net {nid}")
        if nid in seen:
            raise NetlistError(f"primary output net {nid} is listed twice")
        seen.add(nid)


def _codes(labels: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct labels in first-seen order, and each label's code."""
    table = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    return (tuple(table),
            np.fromiter(map(table.__getitem__, labels), np.int32, len(labels)))


class NetlistBuilder:
    """Incremental netlist construction: all inputs first, then gates in
    topological order.  `gate` records a gate as given; `build` converts
    the gates to columns once and checks the result."""

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._ins: list[tuple[int, ...]] = []
        self._slices: list[int] = []
        self._blocks: list[str] = []
        self._outputs: list[int] = []

    def input(self, name: str) -> int:
        if self._kinds:
            raise NetlistError(
                f"input {name!r} added after a gate: inputs are nets 0..P-1")
        self._names.append(name)
        return len(self._names) - 1

    def gate(self, kind: str, inputs: tuple[int, ...] | list[int],
             bit_slice: int, block: str) -> int:
        self._kinds.append(kind)
        self._ins.append(tuple(inputs))
        self._slices.append(bit_slice)
        self._blocks.append(block)
        return len(self._names) + len(self._kinds) - 1

    def set_outputs(self, net_ids: list[int]) -> None:
        self._outputs = list(net_ids)

    def build(self) -> Netlist:
        count = len(self._kinds)
        arity = np.fromiter(map(len, self._ins), np.int64, count)
        given = np.fromiter(itertools.chain.from_iterable(self._ins),
                            np.int64, int(arity.sum()))
        ins = np.full((count, 2), -1, np.int64)
        held = arity[:, None] > np.arange(2)  # the first two inputs
        ins[held] = given[((np.cumsum(arity) - arity)[:, None]
                           + np.arange(2))[held]]
        kinds = np.fromiter(
            map(_CODES.get, self._kinds, itertools.repeat(len(_KINDS))),
            np.int64, count)
        slices = np.array(self._slices, np.int64)
        block_names, blocks = _codes(self._blocks)
        names, outputs = tuple(self._names), tuple(self._outputs)
        # the columns hold known kinds, one or two inputs >= 0 and int32
        # values; a gate they cannot hold is named here, by the same rules
        if (((kinds == len(_KINDS)) | (arity < 1) | (arity > 2)).any()
                or ((given < 0) | (given > _INT32.max)).any()
                or ((slices < _INT32.min) | (slices > _INT32.max)).any()):
            kind_names = tuple(dict.fromkeys(_KINDS + tuple(self._kinds)))
            table = {kind: code for code, kind in enumerate(kind_names)}
            codes = np.array([table[kind] for kind in self._kinds])
            _check(self.width, names, codes, arity, ins, slices, outputs,
                   kind_names)
        return Netlist(self.name, self.width, names, kinds, ins, slices,
                       blocks, block_names, outputs)


def export_netlist(netlist: Netlist) -> str:
    """Serialize to the deterministic text format (nets by id, gates in order)."""
    lines = [f"arch={netlist.name} width={netlist.width}"]
    pos = set(netlist.primary_outputs)
    inputs = len(netlist.primary_inputs)
    for nid, name in enumerate(netlist.net_names):
        flags = ""
        if nid < inputs:
            flags += " pi"
        if nid in pos:
            flags += " po"
        lines.append(f"net {nid} {name}{flags}")
    blocks = netlist.block_names
    for k, (kind, (first, second), col, block) in enumerate(zip(
            netlist.kinds.tolist(), netlist.ins.tolist(),
            netlist.slices.tolist(), netlist.blocks.tolist())):
        ins = f"{first},{second}" if second >= 0 else f"{first}"
        lines.append(f"gate {k} {_KINDS[kind]} out={inputs + k} in={ins} "
                     f"slice={col} block={blocks[block]}")
    # output order matters (bit weights); record it explicitly
    lines.append("outputs " + ",".join(str(i) for i in netlist.primary_outputs))
    return "\n".join(lines) + "\n"


_DIGITS = 9  # the longest number a netlist line may hold
_NUMBER = f"(?:0|[1-9][0-9]{{0,{_DIGITS - 1}}})"
_NUMBER_RULE = f"a number must be 1 to {_DIGITS} digits with no leading zero"
_HEADER = re.compile(f"arch=([!-~]+) width=({_NUMBER})")
_OUTPUTS = re.compile(f"outputs(?: ({_NUMBER}(?:,{_NUMBER})*))?")


def import_netlist(text: str) -> Netlist:
    """Read the text format in whole-array numpy passes over its bytes.

    The lines are exactly those `export_netlist` writes, in its order: the
    header `arch=<name> width=<n>`, one `net <id> <name>[ pi][ po]` line per
    net, one `gate <k> <kind> out=<net> in=<net>[,<net>] slice=<col>
    block=<label>` line per gate, and `outputs <net>,...` last.  Single
    spaces separate the fields, every other character is printable ASCII,
    and a number is 1 to 9 digits with no leading zero.  Whitespace around
    the whole text is ignored.  A line that breaks this grammar, a net or
    gate id that is not its line's position, an `out=` that is not the net
    its gate drives, or a kind or input count that `GATE_ARITY` does not
    allow raises `NetlistError` naming the first such file line.
    """
    text, raw, starts, ends, skipped = textscan.lines(text)
    if not text:
        raise NetlistError("empty netlist")
    size = int(ends[-1])
    # word[i] is the 8 bytes from offset i, little-endian, so one gather
    # reads the start of a field at every line's offset; the zero padding
    # after the text matches no field
    word = np.ndarray(size + 8, "<u8", raw, strides=(1,))
    last = ends.size - 1  # the outputs line
    spaces = np.append(np.flatnonzero(raw[:size] == ord(" ")), size)
    commas = np.append(np.flatnonzero(raw[:size] == ord(",")), size)
    digit = raw - np.uint8(ord("0"))  # wraps: only "0".."9" fall below 10
    problems: list[tuple[int, int, str]] = []  # (line, check, reason)

    def check(bad, rows, reason) -> None:
        """Note the first line of `rows` where `bad` holds; on one line, the
        check made first gives the reason."""
        if bad.any():
            k = int(np.argmax(bad))
            problems.append((int(rows[k]), len(problems), reason(k)))

    # besides the newlines, every byte is printable ASCII (" " to "~")
    odd = raw[:size] - np.uint8(ord(" ")) > ord("~") - ord(" ")
    if np.count_nonzero(odd) > last:
        odd[ends[:-1]] = False
        problems.append((int(np.searchsorted(ends, np.argmax(odd))), 0,
                         "a character is not printable ASCII"))
    head = text[:text.find("\n")] if last else text
    keys = [item.partition("=")[0] for item in head.split(" ")]
    header = _HEADER.fullmatch(head)
    if len(set(keys)) < len(keys):
        problems.append((0, len(problems), "netlist header repeats a key"))
    elif header is None:
        problems.append((0, len(problems),
                         "the header is not arch=<name> width=<n>"))

    # the net lines run from line 1 to the first line not starting "net "
    is_net = np.append(_reads(word, starts[1:last], b"net "), False)
    first_gate = 1 + int(np.argmin(is_net))
    rows = np.arange(1, first_gate)
    at = np.searchsorted(spaces, starts[rows])
    count = np.searchsorted(spaces, ends[rows]) - at
    cut = spaces[np.minimum(at[:, None] + np.arange(3), spaces.size - 1)]
    name_at = cut[:, 1] + 1
    name_end = np.where(count > 2, cut[:, 2], ends[rows])
    flags = ends[rows] - name_end  # the length of "", " pi", " po" or " pi po"
    pi = ((flags == 3) | (flags == 6)) & _reads(word, name_end, b" pi")
    po = (((flags == 3) & _reads(word, name_end, b" po"))
          | ((flags == 6) & _reads(word, name_end + 3, b" po")))
    check((count < 2) | (name_at >= name_end) | ((flags != 0) & ~(pi | po))
          | ((flags == 6) & ~(pi & po)), rows,
          lambda k: "not a net line of the form net <id> <name>[ pi][ po]")
    net_ids, ok = _numbers(digit, starts[rows] + 4, cut[:, 1])
    check(~ok, rows, lambda k: _NUMBER_RULE)
    check(net_ids != rows - 1, rows, lambda k: (
        f"net {net_ids[k]} is out of place: net lines must number 0..n-1 in "
        f"file order (expected net {k})"))
    inputs = int(np.argmin(np.append(pi, False)))  # the leading pi lines
    check(pi[inputs:], rows[inputs:], lambda k: (
        f"primary input net {net_ids[inputs + k]} follows a gate-driven net"))

    rows = np.arange(first_gate, last)
    gates = rows.size
    at = np.searchsorted(spaces, starts[rows])
    count = np.searchsorted(spaces, ends[rows]) - at
    cut = spaces[np.minimum(at[:, None] + np.arange(6), spaces.size - 1)]
    ins_at, ins_end = cut[:, 3] + 4, cut[:, 4]
    comma = np.searchsorted(commas, ins_at)
    pair = np.searchsorted(commas, ins_end) - comma  # 1 for two inputs
    split = np.where(pair > 0, commas[np.minimum(comma, commas.size - 1)],
                     ins_end)
    check(~_reads(word, starts[rows], b"gate ") | (count != 6)
          | ~_reads(word, cut[:, 2], b" out=") | ~_reads(word, cut[:, 3], b" in=")
          | ~_reads(word, cut[:, 4], b" slice=") | (pair > 1)
          | ~_reads(word, cut[:, 5], b" block="), rows,
          lambda k: ("not a gate line of the form gate <k> <kind> out=<net> "
                     "in=<net>[,<net>] slice=<col> block=<label>"))
    # a one-input gate reads its input twice; `pair` sets the arity
    numbers, ok = _numbers(
        digit,
        np.concatenate((cut[:, 0] + 1, cut[:, 2] + 5, ins_at,
                        np.where(pair > 0, split + 1, ins_at), cut[:, 4] + 7)),
        np.concatenate((cut[:, 1], cut[:, 3], split, ins_end, cut[:, 5])))
    check(~ok.reshape(5, gates).all(axis=0), rows, lambda k: _NUMBER_RULE)
    gate_ids, outs, first, second, columns = numbers.reshape(5, gates)
    kind = np.full(gates, -1)
    kind_at = cut[:, 1] + 1
    for i, name in enumerate(_KINDS):  # the space after a kind ends it
        kind[_reads(word, kind_at, f"{name} ".encode())] = i
    check(kind < 0, rows,
          lambda k: f"unknown gate kind (known: {', '.join(_KINDS)})")
    arity = np.array([GATE_ARITY[name] for name in _KINDS])[kind]
    check(arity != 1 + pair, rows, lambda k: (
        f"{_KINDS[kind[k]]} has arity {arity[k]}, not {1 + pair[k]}"))
    position = np.arange(gates)
    check((gate_ids != position) | (outs != inputs + position), rows,
          lambda k: (f"gate {gate_ids[k]} out={outs[k]} is not in topological "
                     f"order: gate line {k} must read gate {k} "
                     f"out={inputs + k}"))

    listed = _OUTPUTS.fullmatch(text[text.rfind("\n") + 1:]) if last else None
    if listed is None:
        problems.append((last, len(problems),
                         "the last line is not outputs <net>,<net>,..."))
    if problems:
        line, _, reason = min(problems)
        bad = bytes(raw[starts[line]:ends[line]]).decode("utf-8", "surrogatepass")
        raise NetlistError(
            f"netlist line {skipped + line + 1}: {reason}: {bad!r}")

    nets = first_gate - 1
    if nets != inputs + gates:
        raise NetlistError(f"{inputs} primary inputs and {gates} gates "
                           f"need {inputs + gates} nets, got {nets}")
    outputs = [int(n) for n in listed[1].split(",")] if listed[1] else []
    flagged = set(np.flatnonzero(po).tolist())
    if flagged != set(outputs):
        raise NetlistError(
            f"the po flags on net lines and the outputs line disagree on "
            f"nets {sorted(flagged ^ set(outputs))}")
    # the text is printable ASCII now, so byte offsets are string offsets
    names = _cut(text, name_at, name_end)
    block_names, blocks = _codes(_cut(text, cut[:, 5] + 7, ends[rows]))
    return Netlist(header[1], int(header[2]), names[:inputs], kind,
                   np.stack((first, np.where(pair > 0, second, -1)), axis=1),
                   columns, blocks, block_names, outputs, names[inputs:])


def _reads(word: np.ndarray, at: np.ndarray, prefix: bytes) -> np.ndarray:
    """Mask of the offsets `at` where the text holds `prefix` (at most 8
    bytes); `word[i]` holds the 8 text bytes from offset i, little-endian."""
    return (word[at] & (1 << 8 * len(prefix)) - 1
            == int.from_bytes(prefix, "little"))


def _numbers(digit: np.ndarray, at: np.ndarray,
             end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numbers written in the byte ranges [at, end), and a mask of the
    ranges that hold 1 to 9 digits with no leading zero."""
    value, ok = textscan.decimals(digit, at, end, _DIGITS)
    return (value.view(np.int64),
            ok & ((digit[at] != 0) | (end - at == 1)))


def _cut(text: str, at: np.ndarray, end: np.ndarray) -> list[str]:
    """The substrings text[at[i]:end[i]]."""
    return [text[i:j] for i, j in zip(at.tolist(), end.tolist())]


def save_netlist(netlist: Netlist, path: str | Path) -> None:
    Path(path).write_text(export_netlist(netlist))


def load_netlist(path: str | Path) -> Netlist:
    return import_netlist(Path(path).read_text())
