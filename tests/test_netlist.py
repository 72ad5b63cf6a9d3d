import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarenet.archlib import build_architecture
from rarenet.netlist import (
    GATE_ARITY,
    Gate,
    Netlist,
    NetlistBuilder,
    NetlistError,
    export_netlist,
    import_netlist,
    load_netlist,
    save_netlist,
)

from conftest import mutations


def small_netlist():
    bld = NetlistBuilder("demo", 2)
    a0 = bld.input("a0")
    b0 = bld.input("b0")
    s = bld.gate("XOR", (a0, b0), 0, "bit0")
    c = bld.gate("AND", (a0, b0), 1, "bit0")
    bld.set_outputs([s, c])
    return bld.build()


def test_builder_produces_valid_netlist():
    nl = small_netlist()
    assert nl.width == 2
    assert nl.output_width == 2
    assert len(nl.gates) == 2
    assert not nl.is_multiplier
    assert nl.driver_of(nl.primary_outputs[0]).kind == "XOR"
    assert nl.driver_of(nl.primary_inputs[0]) is None


def test_nets_are_numbered_inputs_then_gates():
    nl = small_netlist()
    assert nl.primary_inputs == range(2)
    assert nl.gate_nets == range(2, 4)
    assert nl.net_names == ("a0", "b0", "bit0.xor0", "bit0.and1")
    assert [nl.driver_of(n) for n in nl.gate_nets] == list(nl.gates)
    assert nl.driver_of(4) is None
    assert [nl.bit_slice(n) for n in range(4)] == [0, 0, 0, 1]


def test_gate_validation():
    # the builder records gates as given; build() checks them.  Net 0 is
    # the input a0, and each gate listed drives the next net
    big = 1 << 40  # more than the int32 columns hold
    for gates, outputs, message in (
            ([("NOT", (0, 0), 0)], None, "gate 0 (NOT) has wrong arity"),
            ([("AND", (0, 0, 0), 0)], None, "gate 0 (AND) has wrong arity"),
            ([("BUF", (), 0)], None, "gate 0 (BUF) has wrong arity"),
            ([("AND", (0, 99), 0)], None, "gate 0 reads unknown net 99"),
            ([("AND", (0, -1), 0)], None, "gate 0 reads unknown net -1"),
            ([("AND", (big, 0), 0)], None, f"gate 0 reads unknown net {big}"),
            ([("MAJ3", (0, 0), 0)], None, "unknown gate kind MAJ3"),
            ([("AND", (0, 1), 0)], None,
             "gate 0 is not in topological order (net 1)"),
            ([("AND", (0, 0), 2)], None, "gate 0 bit_slice 2 out of range"),
            ([("AND", (0, 0), -1)], None, "gate 0 bit_slice -1 out of range"),
            ([("AND", (0, 0), big)], None,
             f"gate 0 bit_slice {big} out of range"),
            ([("AND", (0, 0), 0)], [1, 5], "unknown primary output net 5"),
            ([("AND", (0, 0), 0)], [1, 1],
             "primary output net 1 is listed twice"),
            # the first bad gate is named, and its first fault
            ([("NOT", (0, 0), 0), ("MAJ3", (0, 0), 0)], None,
             "gate 0 (NOT) has wrong arity"),
            ([("MAJ3", (0, 0), 0), ("NOT", (0, 0), 0)], None,
             "unknown gate kind MAJ3"),
            ([("AND", (0, 0), 0), ("AND", (0, 3), 9)], None,
             "gate 1 reads unknown net 3"),
            ([("AND", (0, 2), 9), ("AND", (0, 5), 0)], None,
             "gate 0 is not in topological order (net 2)"),
            ([("AND", (0, 0), 9), ("AND", (0, 9), 0)], None,
             "gate 0 bit_slice 9 out of range")):
        bld = NetlistBuilder("bad", 2)
        a0 = bld.input("a0")
        nets = [bld.gate(kind, inputs, col, "x")
                for kind, inputs, col in gates]
        bld.set_outputs(outputs or [nets[0], a0])
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            bld.build()


def test_builder_rejects_input_after_gate():
    bld = NetlistBuilder("bad", 2)
    a0 = bld.input("a0")
    bld.gate("NOT", (a0,), 0, "x")
    with pytest.raises(NetlistError, match="after a gate"):
        bld.input("b0")


@pytest.mark.parametrize("names", [("a0", "x0"), ("a0", "b2"), ("a0", "a0")])
def test_primary_input_names_are_validated(names):
    bld = NetlistBuilder("bad", 2)
    ins = [bld.input(name) for name in names]
    bld.set_outputs([bld.gate("AND", ins, 0, "x")])
    with pytest.raises(NetlistError):
        bld.build()


def test_export_import_round_trip_is_byte_identical():
    for kind, width in (("RCA", 4), ("CSA", 8), ("BOOTH", 4)):
        nl = build_architecture(kind, width)
        text = export_netlist(nl)
        back = import_netlist(text)
        assert export_netlist(back) == text
        assert back.width == nl.width
        assert back.primary_outputs == nl.primary_outputs


def test_import_preserves_structure():
    nl = small_netlist()
    back = import_netlist(export_netlist(nl))
    assert list(back.gates) == list(nl.gates)
    assert back.net_names == nl.net_names
    assert back.bit_slice(2) == 0
    assert back.bit_slice(3) == 1


def test_import_rejects_cycle():
    text = (
        "arch=x width=2\n"
        "net 0 a0 pi\n"
        "net 1 u po\n"
        "net 2 v po\n"
        "gate 0 AND out=1 in=0,2 slice=0 block=b\n"
        "gate 1 AND out=2 in=0,1 slice=0 block=b\n"
        "outputs 1,2\n"
    )
    with pytest.raises(NetlistError):
        import_netlist(text)


def test_import_rejects_gates_out_of_file_order():
    # acyclic, but the gate reading net 2 is listed before the gate driving it
    text = (
        "arch=x width=1\n"
        "net 0 a0 pi\n"
        "net 1 b0 pi\n"
        "net 2 u\n"
        "net 3 v po\n"
        "gate 1 AND out=3 in=0,2 slice=0 block=b\n"
        "gate 0 XOR out=2 in=0,1 slice=0 block=b\n"
        "outputs 3\n"
    )
    with pytest.raises(NetlistError, match="topological order"):
        import_netlist(text)
    lines = text.splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    assert len(import_netlist("\n".join(lines)).gates) == 2


def test_import_rejects_repeated_net_line():
    lines = export_netlist(build_architecture("RCA", 4)).splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("net 12 "))
    lines.insert(k + 1, "net 12 renamed")
    with pytest.raises(NetlistError, match="net 12"):
        import_netlist("\n".join(lines))


RCA4_LINES = export_netlist(build_architecture("RCA", 4)).splitlines()


def test_import_rejects_gate_lines_with_one_id():
    # every gate line reads `gate 0`: each id must equal the line's position
    lines = [re.sub(r"^gate \d+ ", "gate 0 ", ln) for ln in RCA4_LINES]
    with pytest.raises(NetlistError, match="gate line 1 must read gate 1"):
        import_netlist("\n".join(lines))


def _swap_ids(lines, x, y, fields=r"net |out=|in=|,|outputs "):
    """Exchange net ids x and y wherever `fields` precede an id."""
    swap = {str(x): str(y), str(y): str(x)}
    return [re.sub(rf"({fields})(\d+)\b",
                   lambda m: m[1] + swap.get(m[2], m[2]), ln) for ln in lines]


def test_import_rejects_primary_input_after_gate_net():
    # cin (net 8) and the first gate-driven net (9) exchange ids everywhere,
    # and the net lines stay sorted: consistent, but cin now follows net 8
    lines = _swap_ids(RCA4_LINES, 8, 9)
    k = lines.index("net 9 cin pi")
    lines[k], lines[k + 1] = lines[k + 1], lines[k]
    assert lines[k:k + 2] == ["net 8 FA0.xor0", "net 9 cin pi"]
    with pytest.raises(NetlistError, match="primary input net 9 follows"):
        import_netlist("\n".join(lines))


def test_import_rejects_gate_out_off_position():
    # gates 2 and 3 exchange their output nets (11 and 12) in every gate
    # line: each net still has one driver, but gate 2 no longer drives P + 2
    lines = _swap_ids(RCA4_LINES, 11, 12, "out=|in=|,")
    assert "gate 2 AND out=12 in=0,4 slice=0 block=FA0" in lines
    with pytest.raises(NetlistError, match="must read gate 2 out=11"):
        import_netlist("\n".join(lines))


def test_builder_rejects_repeated_primary_output():
    bld = NetlistBuilder("demo", 2)
    a0, b0 = bld.input("a0"), bld.input("b0")
    s = bld.gate("XOR", (a0, b0), 0, "bit0")
    bld.set_outputs([s, s])
    with pytest.raises(NetlistError, match="output net 2 is listed twice"):
        bld.build()


def test_import_rejects_repeated_primary_output():
    # net 10 is the one flagged output and fills all five output columns
    lines = [ln.replace(" po", "") if ln.startswith("net ") and
             not ln.startswith("net 10 ") else ln for ln in RCA4_LINES]
    lines[-1] = "outputs 10,10,10,10,10"
    with pytest.raises(NetlistError, match="net 10 is listed twice"):
        import_netlist("\n".join(lines))


def test_import_rejects_missing_po_flags():
    lines = [ln.replace(" po", "") for ln in RCA4_LINES]
    with pytest.raises(NetlistError,
                       match=re.escape("disagree on nets [10, 15, 20, 25, 28]")):
        import_netlist("\n".join(lines))


def test_import_rejects_po_flags_that_disagree_with_outputs():
    # the carry-out's flag moves from net 28 to net 27
    lines = [ln.replace("net 28 FA3.or4 po", "net 28 FA3.or4")
             .replace("net 27 FA3.and3", "net 27 FA3.and3 po")
             for ln in RCA4_LINES]
    assert "net 27 FA3.and3 po" in lines
    with pytest.raises(NetlistError, match=re.escape("nets [27, 28]")):
        import_netlist("\n".join(lines))


def test_import_rejects_junk_line():
    with pytest.raises(NetlistError):
        import_netlist("arch=x width=2\nwat 1 2 3\n")


def test_import_rejects_repeated_header_key():
    lines = list(RCA4_LINES)
    lines[0] += " width=8"
    with pytest.raises(NetlistError, match="netlist header repeats a key"):
        import_netlist("\n".join(lines))


def test_file_round_trip(tmp_path):
    nl = build_architecture("RCA", 4)
    path = tmp_path / "rca4.net"
    save_netlist(nl, path)
    back = load_netlist(path)
    assert export_netlist(back) == export_netlist(nl)


def test_golden_export_fixture(request):
    golden = request.path.parent / "data" / "rca4.net"
    nl = build_architecture("RCA", 4)
    assert export_netlist(nl) == golden.read_text()


# SHA-256 of the exported text of every supported kind and width.  A change
# to a generator must keep every gate, net name, column and order, so these
# digests pin all 36 netlists byte for byte.
GOLDEN_DIGESTS = [
    ("RCA", 4,
     "09bcfabbf8fce91d4d0574cd929d6e03225868543a71dd64488b43ca7caaabe0"),
    ("RCA", 8,
     "1de405def9bb77819beff81cdf35689b06d55e469a994024ee31ae36218c329f"),
    ("RCA", 16,
     "74ab6464e12de4550c95f1243f2b63bb664fc439876d73438770bac1adf5a652"),
    ("RCA", 32,
     "7d7f27f8a3fbde46f2eb7631ebfcf75c3bc08cb87e022bfca1bb590c28a58338"),
    ("CLA", 4,
     "bb17de730567b56eaacf758f8a0bd8d82d6f7c52dca1d5dab9aaa7f960695b5c"),
    ("CLA", 8,
     "86e4e6386c2dbe822ccb581449210bc4809f32432be9bc70602f76f48cd9a88b"),
    ("CLA", 16,
     "fd6fe7ef5980a884dc7340f9f9697144f5be0e5b66984de327616de105efda51"),
    ("CLA", 32,
     "0553c99f4066cafaa4bfb1391d7b276802f0b1226e2df18cadd1a39bff3a8daa"),
    ("CKA", 4,
     "169f638d044deb347112a5d7b1f2c8b6973f09e08e3f60d46b867bf6bd165bab"),
    ("CKA", 8,
     "eb808583cdb8b0bc786a94b289f00a822d95ee9b0a10073929da4ea35fa15885"),
    ("CKA", 16,
     "81a551394d2a05289a8c7dba72c5d17b5fd01fa25532f2447536a15773a423cb"),
    ("CKA", 32,
     "e3200dca68a2252138f4ff4f7c3f92ca3a189c0b1946c11dea34688c3e8b0db1"),
    ("CSA", 4,
     "7704f1dc4afef4b56607a95aaa67d0428062b85a96a2268572016c784b61a446"),
    ("CSA", 8,
     "6b3d29cc9c451c5537bdfce77a82952efe0a15fe6bb3851efb9b370d281e36ea"),
    ("CSA", 16,
     "5b5441cfac633c663a0f5868a5005d41fbf0f5a7752a948003887dddd34224a4"),
    ("CSA", 32,
     "b2f8860044403afe9aabe23437c325357ff2a283e3fc08198dd1aae3d421dbb2"),
    ("KSA", 4,
     "858f459e7a9efecac2d4a6f22c632e0c176db346c88ff2d3b9eb2eb92f258f4b"),
    ("KSA", 8,
     "ae28e767c882d797d87a1515938a867644b8e6e120dc786df8f7bd9ae2ad3590"),
    ("KSA", 16,
     "cfd1479963b71eab882e99efae535f6060f1c32b646a1135ccce63e514436f31"),
    ("KSA", 32,
     "c3c36938bd19fd758041e791a0b3a866b40c7d20c1a2c110780790eed7314bb7"),
    ("HYBRID", 4,
     "5f58f3694f0154e070a674b89c99d16f63a4d70059a8d29e880acb8ea0502846"),
    ("HYBRID", 8,
     "fd3575e13e4cdc4ef7baff9f6a53ed2b7649cd1559a0e867f6f1ab095d4cab58"),
    ("HYBRID", 16,
     "55e69d2d3adec87d8fd2e3700bb8baf4757eb8961a7ca898a934c94a09322fd4"),
    ("HYBRID", 32,
     "34ed19660bd57a212787f104eea6d9186a4aaec9f3836e82969b5289a650147e"),
    ("ARRAY", 4,
     "9599f1a2bf97f7b3608e3dea96488611089e8fc3ce6a14d06db6403f588e3f3e"),
    ("ARRAY", 8,
     "f6a2a8508f5376eb9c8feefe40ddbaac778f4bdcd67d3e966fae24b5af74f826"),
    ("ARRAY", 16,
     "9acf73176096a6313f198528ca19d714efbe555d1fa6094adba32422aac02f91"),
    ("VEDIC", 4,
     "b310ef746cceae745a82664061d748a3010fc4dd2cfbeb54a5ddb1810d73d97a"),
    ("VEDIC", 8,
     "2230ea0b31398453834dfddfae75fd2e439903658f02dcd95f6dd01a8e381c84"),
    ("VEDIC", 16,
     "11e5bc408276e70f69315ce60db5e549f190c74b085f58f899f6ce63e81f9657"),
    ("DADDA", 4,
     "0b4025bf5e881f12ee5ccdefc32f7bb0fb4bce83a192185811c8d4e0f32f8209"),
    ("DADDA", 8,
     "4a1975df3c38bd315447fb0baa3737eaec23b9bea82b50ec074149bea7bb8678"),
    ("DADDA", 16,
     "f7d8617631a1dd4cda8e409aa35a2aecd1f302c9549e9189a3628d3124dcefb0"),
    ("BOOTH", 4,
     "794b5d0998a4715e3d4ec269c9dc3724f3ab317039124813a47535e0f2c6aa54"),
    ("BOOTH", 8,
     "34112cb536e17478afd1787d8c5963c88d3be6815a070c084a723607b9fb45d0"),
    ("BOOTH", 16,
     "71556fc78b894e76ec36c22d5b960da3dc44af8595302eadfef40ca07960a77d"),
]


@pytest.mark.parametrize("kind,width,digest", GOLDEN_DIGESTS)
def test_golden_netlist_digest(kind, width, digest, netlist_of):
    text = export_netlist(netlist_of(kind, width))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    back = import_netlist(text)
    assert export_netlist(back) == text
    assert _outcome(reference_import, text) == text


RCA4_TEXT = (Path(__file__).parent / "data" / "rca4.net").read_text()


@settings(max_examples=300, deadline=None)
@given(mutations(RCA4_TEXT))
def test_mutated_netlist_imports_or_raises_netlist_error(text):
    try:
        import_netlist(text)
    except NetlistError:
        pass


# A line-by-line reader of the grammar `import_netlist` documents, kept as
# the reference the array reader is compared with.
_ID = "(?:0|[1-9][0-9]{0,8})"
_N = f"({_ID})"
_REF_HEADER = re.compile(f"arch=([!-~]+) width={_N}")
_REF_NET = re.compile(f"net {_N} ([!-~]+)( pi)?( po)?")
_REF_GATE = re.compile(f"gate {_N} ([!-~]+) out={_N} in={_N}(?:,{_N})? "
                       f"slice={_N} block=([!-~]*)")
_REF_OUTPUTS = re.compile(f"outputs(?: ({_ID}(?:,{_ID})*))?")


def reference_import(text):
    stripped = text.lstrip()
    first = text.count("\n", 0, len(text) - len(stripped)) + 1
    lines = stripped.rstrip().split("\n")
    if lines == [""]:
        raise NetlistError("empty netlist")
    names, pi, po, gates, in_nets = [], [], [], [], True
    for i, line in enumerate(lines):
        def bad():
            raise NetlistError(f"netlist line {first + i}: bad line")
        if not re.fullmatch("[ -~]*", line):
            bad()
        if i == 0:
            header = _REF_HEADER.fullmatch(line)
            if not header or len(lines) == 1:
                bad()
        elif i == len(lines) - 1:
            listed = _REF_OUTPUTS.fullmatch(line)
            if not listed:
                bad()
            outputs = (tuple(int(s) for s in listed[1].split(","))
                       if listed[1] else ())
        elif in_nets and line.startswith("net "):
            net = _REF_NET.fullmatch(line)
            if (not net or int(net[1]) != len(names)
                    or net[3] and not all(pi)):
                bad()
            names.append(net[2])
            pi.append(bool(net[3]))
            po.append(bool(net[4]))
        else:
            in_nets = False
            gate = _REF_GATE.fullmatch(line)
            if not gate:
                bad()
            ins = tuple(int(s) for s in (gate[4], gate[5]) if s is not None)
            k, inputs = len(gates), sum(pi)
            if (GATE_ARITY.get(gate[2]) != len(ins) or int(gate[1]) != k
                    or int(gate[3]) != inputs + k):
                bad()
            gates.append(Gate(gate[2], ins, int(gate[6]), gate[7]))
    inputs = sum(pi)
    if len(names) != inputs + len(gates):
        raise NetlistError("net count")
    if {n for n, flag in enumerate(po) if flag} != set(outputs):
        raise NetlistError("po flags")
    kinds = list(GATE_ARITY)
    blocks = list(dict.fromkeys(g.block for g in gates))
    return Netlist(header[1], int(header[2]), names[:inputs],
                   [kinds.index(g.kind) for g in gates],
                   [(*g.inputs, -1)[:2] for g in gates],
                   [g.bit_slice for g in gates],
                   [blocks.index(g.block) for g in gates], blocks, outputs,
                   names[inputs:])


def _outcome(reader, text):
    """The exported netlist `reader` reads from `text`, or the file line its
    error names, or "error" for an error that names no line."""
    try:
        return export_netlist(reader(text))
    except NetlistError as exc:
        named = re.match(r"netlist line \d+:", str(exc))
        return named[0] if named else "error"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_agrees_with_line_by_line_reference(netlist_of, data):
    source = data.draw(st.sampled_from(
        [None] + [(kind, width) for kind, width, _ in GOLDEN_DIGESTS]))
    text = (RCA4_TEXT if source is None
            else export_netlist(netlist_of(*source)))
    text = data.draw(mutations(text))
    assert _outcome(import_netlist, text) == _outcome(reference_import, text)


def _edit(line_number, edit):
    lines = list(RCA4_LINES)
    lines[line_number - 1] = edit(lines[line_number - 1])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text,line", [
    pytest.param(_edit(12, lambda ln: ln.replace(" po", "\tpo")), 12, id="tab"),
    pytest.param(_edit(31, lambda ln: ln.replace(" out=", "  out=")), 31,
                 id="double-space"),
    pytest.param(_edit(5, lambda ln: ln + "\r"), 5, id="crlf"),
    pytest.param(_edit(21, lambda ln: ln + "\n"), 22, id="blank-inner-line"),
    pytest.param(_edit(33, lambda ln: re.sub(r"(slice=\S+) (block=\S+)",
                                             r"\2 \1", ln)), 33,
                 id="reordered-fields"),
    pytest.param(_edit(7, lambda ln: ln + " x"), 7, id="trailing-token"),
    pytest.param(_edit(40, lambda ln: re.sub(r" slice=\S+", "", ln)), 40,
                 id="missing-field"),
    pytest.param(_edit(4, lambda ln: ln.replace("net 2 ", "net 1000000002 ")),
                 4, id="ten-digit-id"),
    pytest.param(_edit(5, lambda ln: ln.replace("net 3 ", "net \u0663 ")), 5,
                 id="non-ascii-digit"),
    pytest.param("\n\n" + _edit(31, lambda ln: ln + " x"), 33,
                 id="leading-blank-lines"),
])
def test_reader_names_the_bad_line(text, line):
    with pytest.raises(NetlistError, match=f"^netlist line {line}: "):
        import_netlist(text)
    assert _outcome(reference_import, text) == f"netlist line {line}:"
