"""Structural gate-level netlist model.

A netlist is an immutable single-driver DAG of 1- and 2-input primitive
gates.  Every gate carries a bit-slice annotation (the output-word column
the value it produces belongs to) and a block label (e.g. "FA13"); these
drive region localization.  Netlists round-trip through a deterministic
text format.

Net ids run 0..n-1, one per net, and gates are listed in topological
order: every gate reads only primary inputs and the outputs of gates
listed before it.  The builder and `export_netlist` produce that order,
and `import_netlist` takes gates in file order, so a file that breaks
either rule raises `NetlistError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class Net:
    id: int
    name: str
    is_primary_input: bool
    bit_slice: int


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    inputs: tuple[int, ...]
    output: int
    bit_slice: int
    block: str


class Netlist:
    """Immutable combinational netlist with gates stored in topological order."""

    __slots__ = ("name", "width", "gates", "nets", "primary_inputs",
                 "primary_outputs", "_driver")

    def __init__(self, name: str, width: int, gates: tuple[Gate, ...],
                 nets: tuple[Net, ...], primary_inputs: tuple[int, ...],
                 primary_outputs: tuple[int, ...]):
        self.name = name
        self.width = width
        self.gates = gates
        self.nets = nets
        self.primary_inputs = primary_inputs
        self.primary_outputs = primary_outputs
        self._driver = {g.output: g for g in gates}
        self._validate()

    @property
    def output_width(self) -> int:
        return len(self.primary_outputs)

    @property
    def is_multiplier(self) -> bool:
        return self.output_width == 2 * self.width

    def driver_of(self, net_id: int) -> Gate | None:
        return self._driver.get(net_id)

    def gate_output_nets(self) -> tuple[int, ...]:
        return tuple(g.output for g in self.gates)

    def _validate(self) -> None:
        ids = [n.id for n in self.nets]
        if ids != list(range(len(ids))):
            raise NetlistError("net ids must run 0..n-1 without gaps")
        by_id = {n.id: n for n in self.nets}
        pis = set(self.primary_inputs)
        if len(self._driver) != len(self.gates):
            raise NetlistError("a net has more than one driver")
        pins = set()
        for nid in pis:
            if nid not in by_id:
                raise NetlistError(f"unknown primary input net {nid}")
            if nid in self._driver:
                raise NetlistError(f"primary input net {nid} has a gate driver")
            name = by_id[nid].name
            pin = operand_bit(name)
            if name != "cin" and (pin is None or pin[1] >= self.width):
                raise NetlistError(
                    f"primary input {name!r} is neither cin nor a<k>/b<k> "
                    f"with k < {self.width}")
            pins.add(pin or name)
        if len(pins) != len(pis):
            raise NetlistError("two primary inputs name the same pin")
        available = set(pis)
        for g in self.gates:
            if g.kind not in GATE_ARITY:
                raise NetlistError(f"unknown gate kind {g.kind}")
            if len(g.inputs) != GATE_ARITY[g.kind]:
                raise NetlistError(f"gate {g.id} ({g.kind}) has wrong arity")
            for i in g.inputs:
                if i not in by_id:
                    raise NetlistError(f"gate {g.id} reads unknown net {i}")
                if i not in available:
                    raise NetlistError(
                        f"gate {g.id} is not in topological order (net {i})")
            if g.output not in by_id:
                raise NetlistError(f"gate {g.id} drives unknown net {g.output}")
            if not 0 <= g.bit_slice < self.output_width:
                raise NetlistError(
                    f"gate {g.id} bit_slice {g.bit_slice} out of range")
            available.add(g.output)
        for nid in by_id:
            if nid not in pis and nid not in self._driver:
                raise NetlistError(f"net {nid} has no driver")
        for nid in self.primary_outputs:
            if nid not in by_id:
                raise NetlistError(f"unknown primary output net {nid}")


class NetlistBuilder:
    """Incremental netlist construction; gates are emitted in topological order."""

    def __init__(self, name: str, width: int):
        self.name = name
        self.width = width
        self._nets: list[Net] = []
        self._gates: list[Gate] = []
        self._pis: list[int] = []
        self._outputs: list[int] = []
        self._block_seq: dict[str, int] = {}

    def input(self, name: str, bit_slice: int) -> int:
        nid = len(self._nets)
        self._nets.append(Net(nid, name, True, bit_slice))
        self._pis.append(nid)
        return nid

    def gate(self, kind: str, inputs: tuple[int, ...] | list[int],
             bit_slice: int, block: str) -> int:
        inputs = tuple(inputs)
        if kind not in GATE_ARITY or len(inputs) != GATE_ARITY[kind]:
            raise NetlistError(f"bad gate {kind} with {len(inputs)} inputs")
        for i in inputs:
            if not 0 <= i < len(self._nets):
                raise NetlistError(f"unknown input net {i}")
        seq = self._block_seq.get(block, 0)
        self._block_seq[block] = seq + 1
        nid = len(self._nets)
        name = f"{block}.{kind.lower()}{seq}"
        self._nets.append(Net(nid, name, False, bit_slice))
        self._gates.append(Gate(len(self._gates), kind, inputs, nid, bit_slice, block))
        return nid

    def set_outputs(self, net_ids: list[int]) -> None:
        self._outputs = list(net_ids)

    def build(self) -> Netlist:
        return Netlist(self.name, self.width, tuple(self._gates),
                       tuple(self._nets), tuple(self._pis), tuple(self._outputs))


def slice_nets(netlist: Netlist, from_column: int) -> frozenset[int]:
    """Gate-output nets whose bit slice is at or above `from_column`.

    Primary inputs are excluded: their activity is set by the stimulus,
    not by the architecture.
    """
    if not 0 <= from_column < netlist.output_width:
        raise ValueError(
            f"from_column {from_column} out of range [0, {netlist.output_width})")
    return frozenset(g.output for g in netlist.gates if g.bit_slice >= from_column)


def export_netlist(netlist: Netlist) -> str:
    """Serialize to the deterministic text format (nets by id, gates in order)."""
    lines = [f"arch={netlist.name} width={netlist.width}"]
    pos = set(netlist.primary_outputs)
    for n in netlist.nets:
        flags = ""
        if n.is_primary_input:
            flags += " pi"
        if n.id in pos:
            flags += " po"
        lines.append(f"net {n.id} {n.name}{flags}")
    for g in netlist.gates:
        ins = ",".join(str(i) for i in g.inputs)
        lines.append(f"gate {g.id} {g.kind} out={g.output} in={ins} "
                     f"slice={g.bit_slice} block={g.block}")
    # output order matters (bit weights); record it explicitly
    lines.append("outputs " + ",".join(str(i) for i in netlist.primary_outputs))
    return "\n".join(lines) + "\n"


def import_netlist(text: str) -> Netlist:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise NetlistError("empty netlist")
    raw_nets: dict[int, tuple[str, bool]] = {}
    gates: list[Gate] = []
    outputs: list[int] = []
    for lineno, ln in enumerate(lines):
        parts = ln.split()
        try:
            if lineno == 0:
                header = dict(item.split("=", 1) for item in parts)
                name = header["arch"]
                width = int(header["width"])
            elif parts[0] == "net":
                nid = int(parts[1])
                if nid in raw_nets:
                    raise NetlistError(f"net {nid} is declared twice")
                raw_nets[nid] = (parts[2], "pi" in parts[3:])
            elif parts[0] == "gate":
                fields = dict(p.split("=", 1) for p in parts[3:])
                gates.append(Gate(int(parts[1]), parts[2],
                                  tuple(int(s) for s in fields["in"].split(",")),
                                  int(fields["out"]), int(fields["slice"]),
                                  fields["block"]))
            elif parts[0] == "outputs":
                outputs = [int(s) for s in parts[1].split(",")]
            else:
                raise NetlistError(f"unparseable line: {ln}")
        except (KeyError, IndexError, ValueError) as exc:
            raise NetlistError(
                f"malformed line {ln!r} ({type(exc).__name__}: {exc})") from None
    slice_of: dict[int, int] = {g.output: g.bit_slice for g in gates}
    nets = []
    pis = []
    for nid in sorted(raw_nets):
        nm, is_pi = raw_nets[nid]
        if is_pi:
            pin = operand_bit(nm)
            sl = pin[1] if pin else 0
            pis.append(nid)
        else:
            sl = slice_of.get(nid, 0)
        nets.append(Net(nid, nm, is_pi, sl))
    return Netlist(name, width, tuple(gates), tuple(nets), tuple(pis), tuple(outputs))


def save_netlist(netlist: Netlist, path: str | Path) -> None:
    Path(path).write_text(export_netlist(netlist))


def load_netlist(path: str | Path) -> Netlist:
    return import_netlist(Path(path).read_text())
