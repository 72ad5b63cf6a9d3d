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

from pathlib import Path
from typing import NamedTuple

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


def import_netlist(text: str) -> Netlist:
    """Parse the text format, checking each line's id against its position."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise NetlistError("empty netlist")
    names: list[str] = []
    inputs = 0
    gates: list[Gate] = []
    heads: list[tuple[int, int]] = []  # (id, out=) of each gate line
    flagged: set[int] = set()  # nets whose line carries the po flag
    outputs: list[int] = []
    for lineno, ln in enumerate(lines):
        parts = ln.split()
        try:
            if lineno == 0:
                header = dict(item.split("=", 1) for item in parts)
                if len(header) < len(parts):
                    raise NetlistError(f"netlist header repeats a key: {ln!r}")
                name = header["arch"]
                width = int(header["width"])
            elif parts[0] == "net":
                nid = int(parts[1])
                if nid != len(names):
                    raise NetlistError(
                        f"net {nid} is out of place: net lines must number "
                        f"0..n-1 in file order (expected net {len(names)})")
                names.append(parts[2])
                if "po" in parts[3:]:
                    flagged.add(nid)
                if "pi" in parts[3:]:
                    if inputs < nid:
                        raise NetlistError(f"primary input net {nid} follows "
                                           f"a gate-driven net")
                    inputs += 1
            elif parts[0] == "gate":
                fields = dict(p.split("=", 1) for p in parts[3:])
                heads.append((int(parts[1]), int(fields["out"])))
                gates.append(Gate(parts[2],
                                  tuple(int(s) for s in fields["in"].split(",")),
                                  int(fields["slice"]), fields["block"]))
            elif parts[0] == "outputs":
                outputs = [int(s) for s in parts[1].split(",")]
            else:
                raise NetlistError(f"unparseable line: {ln}")
        except (KeyError, IndexError, ValueError) as exc:
            raise NetlistError(
                f"malformed line {ln!r} ({type(exc).__name__}: {exc})") from None
    for k, (gid, out) in enumerate(heads):
        if (gid, out) != (k, inputs + k):
            raise NetlistError(
                f"gate {gid} out={out} is not in topological order: gate "
                f"line {k} must read gate {k} out={inputs + k}")
    if len(names) != inputs + len(gates):
        raise NetlistError(f"{inputs} primary inputs and {len(gates)} gates "
                           f"need {inputs + len(gates)} nets, got {len(names)}")
    if flagged != set(outputs):
        raise NetlistError(
            f"the po flags on net lines and the outputs line disagree on "
            f"nets {sorted(flagged ^ set(outputs))}")
    return Netlist(name, width, tuple(gates), tuple(names), tuple(outputs))


def save_netlist(netlist: Netlist, path: str | Path) -> None:
    Path(path).write_text(export_netlist(netlist))


def load_netlist(path: str | Path) -> Netlist:
    return import_netlist(Path(path).read_text())
