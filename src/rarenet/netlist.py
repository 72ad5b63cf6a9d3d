"""Structural gate-level netlist model.

A netlist is an immutable single-driver DAG of 1- and 2-input primitive
gates.  Every gate carries a bit-slice annotation (the output-word column
the value it produces belongs to) and a block label (e.g. "FA13"); these
drive region localization.  Netlists round-trip through a deterministic
text format.

Nets are numbered by position: the P primary inputs are nets 0..P-1 and
gate k drives net P+k, so a net id is also the net's simulator row.
Gates are listed in topological order: every gate reads only primary
inputs and the nets of gates listed before it.  The builder and
`export_netlist` produce this numbering and order, and `import_netlist`
checks each `net` and `gate` line against its position, so a file that
breaks either rule raises `NetlistError`.

A `Gate` is a `typing.NamedTuple` of `(kind, inputs, bit_slice, block)`:
immutable, cheap to build, and read by field name everywhere.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textscan

GATE_ARITY: dict[str, int] = {
    "AND": 2, "OR": 2, "NAND": 2, "NOR": 2,
    "XOR": 2, "XNOR": 2, "NOT": 1, "BUF": 1,
}


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


class Netlist:
    """Immutable combinational netlist; gate k drives net P + k."""

    __slots__ = ("name", "width", "gates", "net_names", "primary_outputs")

    def __init__(self, name: str, width: int, gates: tuple[Gate, ...],
                 net_names: tuple[str, ...], primary_outputs: tuple[int, ...]):
        self.name = name
        self.width = width
        self.gates = gates
        self.net_names = net_names
        self.primary_outputs = primary_outputs
        self._validate()

    @property
    def output_width(self) -> int:
        return len(self.primary_outputs)

    @property
    def is_multiplier(self) -> bool:
        return self.output_width == 2 * self.width

    @property
    def primary_inputs(self) -> range:
        return range(len(self.net_names) - len(self.gates))

    @property
    def gate_nets(self) -> range:
        """The net each gate drives, in gate order."""
        return range(len(self.primary_inputs), len(self.net_names))

    def driver_of(self, net_id: int) -> Gate | None:
        """The gate driving `net_id`; None for a primary input."""
        k = net_id - len(self.primary_inputs)
        return self.gates[k] if 0 <= k < len(self.gates) else None

    def bit_slice(self, net_id: int) -> int:
        """Column of a net: its gate's, or the bit of an operand pin (cin: 0)."""
        gate = self.driver_of(net_id)
        if gate is not None:
            return gate.bit_slice
        pin = operand_bit(self.net_names[net_id])
        return pin[1] if pin else 0

    def _validate(self) -> None:
        gates = self.gates
        n = len(self.net_names)
        inputs = n - len(gates)
        if inputs < 0:
            raise NetlistError(f"{len(gates)} gates drive only {n} nets")
        pins = set()
        for name in self.net_names[:inputs]:
            pin = operand_bit(name)
            if name != "cin" and (pin is None or pin[1] >= self.width):
                raise NetlistError(
                    f"primary input {name!r} is neither cin nor a<k>/b<k> "
                    f"with k < {self.width}")
            pins.add(pin or name)
        if len(pins) != inputs:
            raise NetlistError("two primary inputs name the same pin")
        columns = self.output_width
        for k, (kind, ins, col, _) in enumerate(gates):
            arity = GATE_ARITY.get(kind)
            if arity is None:
                raise NetlistError(f"unknown gate kind {kind}")
            if len(ins) != arity:
                raise NetlistError(f"gate {k} ({kind}) has wrong arity")
            driven = inputs + k  # gate k may read only nets below its own
            for i in ins:
                if not 0 <= i < driven:
                    if not 0 <= i < n:
                        raise NetlistError(f"gate {k} reads unknown net {i}")
                    raise NetlistError(
                        f"gate {k} is not in topological order (net {i})")
            if not 0 <= col < columns:
                raise NetlistError(f"gate {k} bit_slice {col} out of range")
        seen = set()
        for nid in self.primary_outputs:
            if not 0 <= nid < n:
                raise NetlistError(f"unknown primary output net {nid}")
            if nid in seen:
                raise NetlistError(f"primary output net {nid} is listed twice")
            seen.add(nid)


class NetlistBuilder:
    """Incremental netlist construction: all inputs first, then gates in
    topological order.  `build` checks the result."""

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width
        self._names: list[str] = []
        self._gates: list[Gate] = []
        self._outputs: list[int] = []
        self._block_seq: dict[str, int] = {}

    def input(self, name: str) -> int:
        if self._gates:
            raise NetlistError(
                f"input {name!r} added after a gate: inputs are nets 0..P-1")
        self._names.append(name)
        return len(self._names) - 1

    def gate(self, kind: str, inputs: tuple[int, ...] | list[int],
             bit_slice: int, block: str) -> int:
        seq = self._block_seq.get(block, 0)
        self._block_seq[block] = seq + 1
        names = self._names
        names.append(f"{block}.{kind.lower()}{seq}")
        self._gates.append(Gate(kind, tuple(inputs), bit_slice, block))
        return len(names) - 1

    def set_outputs(self, net_ids: list[int]) -> None:
        self._outputs = list(net_ids)

    def build(self) -> Netlist:
        return Netlist(self.name, self.width, tuple(self._gates),
                       tuple(self._names), tuple(self._outputs))


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
    for k, g in enumerate(netlist.gates):
        ins = ",".join(str(i) for i in g.inputs)
        lines.append(f"gate {k} {g.kind} out={inputs + k} in={ins} "
                     f"slice={g.bit_slice} block={g.block}")
    # output order matters (bit weights); record it explicitly
    lines.append("outputs " + ",".join(str(i) for i in netlist.primary_outputs))
    return "\n".join(lines) + "\n"


_DIGITS = 9  # the longest number a netlist line may hold
_NUMBER = f"(?:0|[1-9][0-9]{{0,{_DIGITS - 1}}})"
_NUMBER_RULE = f"a number must be 1 to {_DIGITS} digits with no leading zero"
_HEADER = re.compile(f"arch=([!-~]+) width=({_NUMBER})")
_OUTPUTS = re.compile(f"outputs(?: ({_NUMBER}(?:,{_NUMBER})*))?")
_KINDS = tuple(GATE_ARITY)


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
    ins = list(zip(first.tolist(), second.tolist()))
    for k in np.flatnonzero(pair == 0).tolist():
        ins[k] = ins[k][:1]
    gate_list = tuple(map(Gate._make, zip(
        map(_KINDS.__getitem__, kind.tolist()), ins, columns.tolist(),
        _cut(text, cut[:, 5] + 7, ends[rows]))))
    return Netlist(header[1], int(header[2]), gate_list,
                   tuple(_cut(text, name_at, name_end)), tuple(outputs))


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
