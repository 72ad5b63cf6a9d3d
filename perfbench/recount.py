"""Output checks that do not trust the simulator.

Every reader here parses the program's text formats on its own, and every
expected toggle count is recomputed with numpy from the operand words:

* primary inputs ``a<k>``/``b<k>``: the bit flips of the operand words;
* adder outputs: the N+1 bits of ``(a & m) + (b & m)``, m = 2^N - 1, so the
  top output is the unsigned carry-out (carry-in is tied low);
* multiplier outputs: the low 2N bits of the signed product ``a * b``.

Internal nets have no closed form and are not recounted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetlistInfo:
    """What the checker needs from a ``.net`` file."""

    width: int
    operand_bits: dict[int, tuple[str, int]]  # net id -> ("a"|"b", bit)
    outputs: tuple[int, ...]                  # LSB first
    gate_slices: dict[int, int]               # gate output net -> bit slice

    @property
    def is_multiplier(self) -> bool:
        return len(self.outputs) == 2 * self.width

    def count_at_or_above(self, column: int) -> int:
        return sum(1 for s in self.gate_slices.values() if s >= column)


def parse_netlist(text: str) -> NetlistInfo:
    lines = text.splitlines()
    header = dict(item.split("=", 1) for item in lines[0].split())
    operand_bits: dict[int, tuple[str, int]] = {}
    gate_slices: dict[int, int] = {}
    outputs: tuple[int, ...] = ()
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "net" and "pi" in parts[3:]:
            name = parts[2]
            if name[0] in "ab" and name[1:].isdigit():
                operand_bits[int(parts[1])] = (name[0], int(name[1:]))
        elif parts[0] == "gate":
            fields = dict(p.split("=", 1) for p in parts[3:])
            gate_slices[int(fields["out"])] = int(fields["slice"])
        elif parts[0] == "outputs":
            outputs = tuple(int(s) for s in parts[1].split(","))
    return NetlistInfo(int(header["width"]), operand_bits, outputs, gate_slices)


def parse_stream(text: str) -> tuple[dict[str, str], np.ndarray]:
    first, _, body = text.partition("\n")
    header = dict(item.split("=", 1) for item in first.split())
    return header, np.array(body.split(), dtype=np.int64)


@dataclass(frozen=True)
class ActivityRow:
    name: str
    toggles: int
    vectors: int
    probability: float


def parse_activity(text: str) -> dict[int, ActivityRow]:
    lines = text.splitlines()
    if not lines or lines[0] != ("net_id,net_name,block,slice,toggles,"
                                 "vectors,probability"):
        raise ValueError("activity CSV header mismatch")
    rows = {}
    for line in lines[1:]:
        nid, name, _block, _slice, tog, vec, prob = line.split(",")
        rows[int(nid)] = ActivityRow(name, int(tog), int(vec), float(prob))
    return rows


def bit_toggles(words: np.ndarray, nbits: int) -> list[int]:
    """Transition count of each of the low `nbits` bits of a word sequence."""
    flips = words[1:] ^ words[:-1]
    return [int(np.count_nonzero((flips >> k) & 1)) for k in range(nbits)]


def expected_toggles(info: NetlistInfo, a: np.ndarray,
                     b: np.ndarray) -> dict[int, int]:
    """Toggle counts of the operand-input and output nets, from the words."""
    n = info.width
    by_operand = {"a": bit_toggles(a, n), "b": bit_toggles(b, n)}
    expected = {nid: by_operand[op][bit]
                for nid, (op, bit) in info.operand_bits.items()}
    if info.is_multiplier:
        result = a * b
    else:
        m = (1 << n) - 1
        result = (a & m) + (b & m)
    for nid, count in zip(info.outputs, bit_toggles(result, len(info.outputs))):
        expected[nid] = count
    return expected


def check_activity(rows: dict[int, ActivityRow], info: NetlistInfo,
                   a: np.ndarray, b: np.ndarray) -> list[str]:
    """Mismatches between an activity table and the recount (empty if none)."""
    problems = []
    vectors = len(a)
    for nid, want in expected_toggles(info, a, b).items():
        row = rows.get(nid)
        if row is None:
            if want:
                problems.append(f"net {nid} missing, expected {want} toggles")
            continue
        if row.toggles != want:
            problems.append(f"net {nid} ({row.name}): {row.toggles} toggles, "
                            f"recount {want}")
    for nid, row in rows.items():
        if row.vectors != vectors:
            problems.append(f"net {nid}: vectors {row.vectors} != {vectors}")
        elif abs(row.probability - row.toggles / (vectors - 1)) > 1e-12:
            problems.append(f"net {nid}: probability {row.probability} "
                            f"!= {row.toggles}/{vectors - 1}")
    return problems


def rare_gate_count(rows: dict[int, ActivityRow], info: NetlistInfo,
                    threshold: float) -> int:
    """Gate-output nets whose toggle probability is at or below threshold."""
    return sum(1 for nid, row in rows.items()
               if nid in info.gate_slices
               and row.toggles / (row.vectors - 1) <= threshold)
