import pytest

from rarenet.archlib import build_architecture
from rarenet.netlist import (
    NetlistBuilder,
    NetlistError,
    export_netlist,
    import_netlist,
    load_netlist,
    save_netlist,
    slice_nets,
)


def small_netlist():
    bld = NetlistBuilder("demo", 2)
    a0 = bld.input("a0", 0)
    b0 = bld.input("b0", 0)
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


def test_gate_validation():
    bld = NetlistBuilder("bad", 2)
    a0 = bld.input("a0", 0)
    with pytest.raises(NetlistError):
        bld.gate("NOT", (a0, a0), 0, "x")  # wrong arity
    with pytest.raises(NetlistError):
        bld.gate("AND", (a0, 99), 0, "x")  # unknown net
    with pytest.raises(NetlistError):
        bld.gate("MAJ3", (a0, a0), 0, "x")  # unknown kind


@pytest.mark.parametrize("names", [("a0", "x0"), ("a0", "b2"), ("a0", "a0")])
def test_primary_input_names_are_validated(names):
    bld = NetlistBuilder("bad", 2)
    ins = [bld.input(name, 0) for name in names]
    bld.set_outputs([bld.gate("AND", ins, 0, "x")])
    with pytest.raises(NetlistError):
        bld.build()


def test_slice_out_of_range():
    nl = small_netlist()
    with pytest.raises(ValueError):
        slice_nets(nl, 2)
    with pytest.raises(ValueError):
        slice_nets(nl, -1)


def test_slice_nets_excludes_primary_inputs():
    nl = small_netlist()
    assert slice_nets(nl, 0) == {2, 3}
    assert slice_nets(nl, 1) == {3}


def test_slice_nets_monotone_in_column():
    nl = build_architecture("CLA", 16)
    prev = None
    for col in range(nl.output_width):
        cur = slice_nets(nl, col)
        if prev is not None:
            assert cur <= prev
        prev = cur


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
    assert [(g.kind, g.inputs, g.output) for g in back.gates] == \
           [(g.kind, g.inputs, g.output) for g in nl.gates]
    assert back.nets[2].bit_slice == 0
    assert back.nets[3].bit_slice == 1


def test_import_rejects_cycle():
    text = (
        "arch=x width=2\n"
        "net 0 a0 pi\n"
        "net 1 u\n"
        "net 2 v\n"
        "gate 0 AND out=1 in=0,2 slice=0 block=b\n"
        "gate 1 AND out=2 in=0,1 slice=0 block=b\n"
        "outputs 1,2\n"
    )
    with pytest.raises(NetlistError):
        import_netlist(text)


def test_import_rejects_junk_line():
    with pytest.raises(NetlistError):
        import_netlist("arch=x width=2\nwat 1 2 3\n")


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
