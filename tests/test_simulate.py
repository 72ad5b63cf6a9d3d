import csv
import gc
import io
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from rarenet.archlib import ALL_KINDS
from rarenet.simulate import (WINDOW_WORDS, ToggleProfile, _chunks, _pool,
                              census, constant_nets, evaluate,
                              export_activity, pack_points, rare_nets,
                              simulate)
from rarenet.netlist import (Netlist, NetlistBuilder, export_netlist,
                             import_netlist)
from rarenet.stats import WordStats
from rarenet.stimulus import generate

from conftest import ARCHS, make_stream


def bigint_reference(netlist, a_words, b_words):
    """Independent evaluator: each net's waveform packed into one big int."""
    n_vec = len(a_words)
    mask = (1 << n_vec) - 1
    values = {}
    for pid in netlist.primary_inputs:
        name = netlist.net_names[pid]
        acc = 0
        for t in range(n_vec):
            if name[0] == "a" and name[1:].isdigit():
                bit = (int(a_words[t]) >> int(name[1:])) & 1
            elif name[0] == "b" and name[1:].isdigit():
                bit = (int(b_words[t]) >> int(name[1:])) & 1
            else:
                bit = 0
            acc |= bit << t
        values[pid] = acc
    ops = {
        "AND": lambda x, y: x & y,
        "OR": lambda x, y: x | y,
        "NAND": lambda x, y: ~(x & y) & mask,
        "NOR": lambda x, y: ~(x | y) & mask,
        "XOR": lambda x, y: x ^ y,
        "XNOR": lambda x, y: ~(x ^ y) & mask,
        "NOT": lambda x: ~x & mask,
        "BUF": lambda x: x,
    }
    out = {}
    for net, g in zip(netlist.gate_nets, netlist.gates):
        out[net] = ops[g.kind](*[values[i] if i in values else out[i]
                                 for i in g.inputs])
        values[net] = out[net]
    return values


def as_int(wave):
    acc = 0
    for t, v in enumerate(wave):
        acc |= int(v) << t
    return acc


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_waveforms_match_reference_width_4(kind, netlist_of):
    nl = netlist_of(kind, 4)
    pairs = list(itertools.product(range(16), repeat=2))
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    got = evaluate(nl, make_stream(a, 4), make_stream(b, 4))
    ref = bigint_reference(nl, a, b)
    for net, wave in got.items():
        assert as_int(wave) == ref[net], nl.net_names[net]


# 500 vectors fill 8 words per row, the last one padded
@pytest.mark.parametrize("kind,vectors",
                         [*((kind, 300) for kind in ALL_KINDS), ("BOOTH", 500)],
                         ids=[*ALL_KINDS, "BOOTH-500"])
def test_waveforms_match_reference_width_8_random(kind, vectors, netlist_of):
    nl = netlist_of(kind, 8)
    rng = np.random.default_rng(17)
    a = rng.integers(-128, 128, vectors)
    b = rng.integers(-128, 128, vectors)
    got = evaluate(nl, make_stream(a, 8), make_stream(b, 8))
    ref = bigint_reference(nl, a, b)
    for net, wave in got.items():
        assert as_int(wave) == ref[net]


# 65,666 vectors: a third chunk of three words, the last one padded
@pytest.mark.parametrize("vectors", [10, 65_536 + 130])
def test_toggle_counts_hand_cases(vectors, netlist_of):
    nl = netlist_of("RCA", 4)
    # constant inputs: nothing toggles
    prof = simulate(nl, make_stream([5] * vectors, 4),
                    make_stream([2] * vectors, 4))
    assert all(t == 0 for t in prof.toggles.values())
    # LSB alternates every vector: the bit-0 sum net toggles every cycle
    prof = simulate(nl, make_stream([0, 1] * (vectors // 2), 4),
                    make_stream([0] * vectors, 4))
    s0 = nl.primary_outputs[0]
    assert prof.toggles[s0] == vectors - 1
    assert prof.probability(s0) == 1.0


def assert_profile_matches_reference(nl, a, b, prof):
    vectors = len(a)
    assert prof.vectors == vectors
    # census skips exactly the nets made constant by the tied carry-in
    assert set(prof.toggles) == set(range(len(nl.net_names))) - constant_nets(nl)
    for net, acc in bigint_reference(nl, a, b).items():
        if net not in prof.toggles:
            assert acc in (0, (1 << vectors) - 1)
            continue
        flips = (acc ^ (acc >> 1)) & ((1 << (vectors - 1)) - 1)
        assert prof.toggles[net] == flips.bit_count(), nl.net_names[net]


def random_pair(width, vectors, rng):
    half = 1 << (width - 1)
    return tuple(make_stream(rng.integers(-half, half, vectors), width)
                 for _ in "ab")


def assert_toggles_match_reference(nl, vectors, seed=23):
    a, b = random_pair(nl.width, vectors, np.random.default_rng(seed))
    prof = simulate(nl, a, b)
    assert_profile_matches_reference(nl, a.words, b.words, prof)


# 63/64/65 straddle the first packed-word boundary
@pytest.mark.parametrize("vectors", [2, 63, 64, 65, 500])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_toggle_count_matches_reference(kind, vectors, netlist_of):
    assert_toggles_match_reference(netlist_of(kind, 8), vectors)


# Past a whole window: one vector past it, the census carries into a
# window of one vector; 130 past it, a last window of three words, the last
# one padded; exactly two windows, no padding, and the carry meets a full
# window.  The same cases past half a window stay within one window.
@pytest.mark.parametrize("kind,vectors", [
    (kind, span + extra) for span in (WINDOW_WORDS * 32, WINDOW_WORDS * 64)
    for kind, extra in (("RCA", 1), ("RCA", 130), ("ARRAY", 130),
                        ("RCA", span))])
def test_toggle_count_matches_reference_across_chunks(kind, vectors,
                                                      netlist_of):
    assert_toggles_match_reference(netlist_of(kind, 4), vectors)


def test_one_word_chunks_match_reference(netlist_of, monkeypatch):
    # the package attribute `rarenet.simulate` is the function, not the module
    monkeypatch.setattr(sys.modules["rarenet.simulate"], "WINDOW_WORDS", 1)
    nl = netlist_of("CSA", 8)
    assert_toggles_match_reference(nl, 500)
    rng = np.random.default_rng(3)
    a = rng.integers(-128, 128, 300)
    b = rng.integers(-128, 128, 300)
    got = evaluate(nl, make_stream(a, 8), make_stream(b, 8))
    ref = bigint_reference(nl, a, b)
    assert all(as_int(wave) == ref[net] for net, wave in got.items())


# points of 1, 1, 1, 2 and 8 words in windows of 3: the first window holds
# three points, the fourth shares a window with the fifth, which spans four
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_census_of_unequal_points_matches_each_point(kind, netlist_of,
                                                     monkeypatch):
    monkeypatch.setattr(sys.modules["rarenet.simulate"], "WINDOW_WORDS", 3)
    nl = netlist_of(kind, 8)
    rng = np.random.default_rng(29)
    pairs = [random_pair(8, n, rng) for n in (2, 63, 64, 65, 500)]
    packed = pack_points(8, pairs)
    assert [c.points.tolist() for c in packed.chunks] == [
        [0, 1, 2], [3, 4], [4], [4], [4]]
    profiles = list(census(nl, packed))
    assert len(profiles) == len(pairs)
    for (a, b), prof in zip(pairs, profiles):
        assert prof == simulate(nl, a, b)
        assert_profile_matches_reference(nl, a.words, b.words, prof)


def assert_census_matches_each_point(nl, pairs):
    """The census of `pairs` equals each point's `simulate` and the
    big-integer reference, and `evaluate` of the last point equals the
    reference."""
    packed = pack_points(nl.width, pairs)
    for (a, b), prof in zip(pairs, census(nl, packed), strict=True):
        assert prof == simulate(nl, a, b)
        assert_profile_matches_reference(nl, a.words, b.words, prof)
    a, b = pairs[-1]
    ref = bigint_reference(nl, a.words, b.words)
    got = evaluate(nl, a, b)
    assert all(as_int(wave) == ref[net] for net, wave in got.items())


# the points above in windows of 3 words: the 500-vector point alone is
# 8 words, in pieces of 3, 3 and 2 in three windows
@pytest.mark.parametrize("kind", ["CSA", "ARRAY"])
def test_census_windows_match_each_point(kind, netlist_of, monkeypatch):
    monkeypatch.setattr(sys.modules["rarenet.simulate"], "WINDOW_WORDS", 3)
    nl = netlist_of(kind, 8)
    rng = np.random.default_rng(31)
    pairs = [random_pair(8, n, rng) for n in (2, 63, 64, 65, 500)]
    packed = pack_points(8, pairs)
    assert [w.hi - w.lo for w, _ in _chunks(nl, packed)] == [3, 3, 3, 3, 1]
    # a window holds at most one piece of each point
    assert all(len(set(w.points.tolist())) == len(w.points)
               for w in packed.chunks)
    assert_census_matches_each_point(nl, pairs)


# one gate a page, and 11 gates a page, which divides no width-8 gate count
@pytest.mark.parametrize("page", [1, 11])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_census_pages_match_each_point(kind, page, netlist_of, monkeypatch):
    module = sys.modules["rarenet.simulate"]
    monkeypatch.setattr(module, "WINDOW_WORDS", 3)
    monkeypatch.setattr(module, "PAGE", page)
    nl = netlist_of(kind, 8)
    assert page == 1 or len(nl.kinds) % page
    rng = np.random.default_rng(37)
    pairs = [random_pair(8, n, rng) for n in (2, 63, 64, 65, 500)]
    assert_census_matches_each_point(nl, pairs)


def every_net_live_netlist():
    """16 operand pins, a page of 32 gates of every kind over them, then a
    chain of 47 XOR gates from the page's last gate that reads the pins
    and then the page's other gates, newest first: the first page is read
    by the last gate, so no slot is handed out twice and the buffer holds
    a row for every net."""
    builder = NetlistBuilder("LIVE8", 8)
    pins = [builder.input(f"{op}{bit}") for op in "ab" for bit in range(8)]
    kinds = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF")
    page = []
    for k in range(32):
        kind = kinds[k % len(kinds)]
        ins = pins[k % 16:k % 16 + 1] if kind in ("NOT", "BUF") else [
            pins[k % 16], pins[(5 * k + 3) % 16]]
        page.append(builder.gate(kind, ins, 0, f"G{k}"))
    chain = page.pop()
    for net in pins + page[::-1]:
        chain = builder.gate("XOR", [chain, net], 0, "CHAIN")
    builder.set_outputs([chain])
    return builder.build()


def test_census_with_every_net_live(monkeypatch):
    monkeypatch.setattr(sys.modules["rarenet.simulate"], "WINDOW_WORDS", 3)
    nl = every_net_live_netlist()
    rows, size = _pool(nl)
    assert len(set(rows.tolist())) == nl.net_count == 95
    assert size == 16 + 3 * 32
    rng = np.random.default_rng(41)
    pairs = [random_pair(8, n, rng) for n in (2, 63, 64, 65, 500)]
    assert_census_matches_each_point(nl, pairs)


@pytest.mark.parametrize("kind,width", ARCHS,
                         ids=[f"{k}{w}" for k, w in ARCHS])
def test_page_plan_keeps_each_net_until_read_and_counted(kind, width,
                                                         netlist_of):
    """Replays the gates over the planned rows: no slot is handed out
    before every reader of its previous page has run, so each net still
    holds its row when a gate reads it and when its page is counted."""
    page = sys.modules["rarenet.simulate"].PAGE
    nl = netlist_of(kind, width)
    rows, size = _pool(nl)
    rows = rows.tolist()
    inputs = len(nl.input_names)
    assert rows[:inputs] == list(range(inputs))
    assert (size - inputs) % page == 0
    holder = dict(enumerate(range(inputs)))  # row -> the net it holds
    gate_nets = list(nl.gate_nets)
    for k, (net, ins) in enumerate(zip(gate_nets, nl.ins.tolist())):
        assert all(holder[rows[i]] == i for i in ins if i >= 0)
        # a page's gates fill one slot in order
        assert rows[net] - rows[gate_nets[k - k % page]] == k % page
        assert inputs <= rows[net] < size
        holder[rows[net]] = net
        if k % page == page - 1 or k == len(gate_nets) - 1:
            counted = gate_nets[k - k % page:k + 1]
            assert all(holder[rows[n]] == n for n in counted)


def test_census_memory_is_bounded_in_point_count(netlist_of):
    nl = netlist_of("VEDIC", 16)
    rng = np.random.default_rng(7)
    peaks = []
    for points in (1, 8):
        pairs = [random_pair(16, 65_536, rng) for _ in range(points)]
        gc.collect()
        tracemalloc.start()
        try:
            for _ in census(nl, pack_points(16, pairs)):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_simulate_memory_is_bounded_in_vector_count(netlist_of):
    nl = netlist_of("VEDIC", 16)
    rng = np.random.default_rng(5)
    peaks = []
    for vectors in (65_536, 262_144):
        a = make_stream(rng.integers(-(1 << 15), 1 << 15, vectors), 16)
        b = make_stream(rng.integers(-(1 << 15), 1 << 15, vectors), 16)
        gc.collect()
        tracemalloc.start()
        try:
            simulate(nl, a, b)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
    # the window buffer, plus 4 MiB for the packed rows, the gate program
    # and the row views (about 2.4 MB of it here)
    assert peaks[0] <= 8 * WINDOW_WORDS * _pool(nl)[1] + (4 << 20), peaks


# the two largest buffers: DADDA16 holds 1,120 rows of its 2,584 nets and
# VEDIC16 928 of its 4,143, 8.75 and 7.25 MiB at 1,024 words
@pytest.mark.parametrize("kind,rows", [("DADDA", 1120), ("VEDIC", 928)])
def test_simulate_memory_is_set_by_the_pool(kind, rows, netlist_of):
    nl = netlist_of(kind, 16)
    assert _pool(nl)[1] == rows
    a, b = random_pair(16, 65_536, np.random.default_rng(5))
    gc.collect()
    tracemalloc.start()
    try:
        simulate(nl, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20, peak


def test_constant_nets_from_tied_carry_in(netlist_of):
    nl = netlist_of("RCA", 16)
    dead = constant_nets(nl)
    gate_dead = dead & set(nl.gate_nets)
    assert len(gate_dead) == 1
    (net,) = gate_dead
    assert nl.driver_of(net).block == "FA0"
    assert constant_nets(netlist_of("DADDA", 8)) == frozenset()
    # census and rare-net scan never see the dead net
    prof = simulate(nl, make_stream([0, 1] * 5, 16), make_stream([0] * 10, 16))
    assert net not in prof.toggles
    assert net not in rare_nets(prof, 1.0)


def test_rare_net_threshold_boundary():
    prof = ToggleProfile(vectors=101, toggles={0: 0, 1: 10, 2: 11, 3: 100})
    assert rare_nets(prof, 0.1) == {0, 1}
    assert rare_nets(prof, 0.0) == {0}
    assert rare_nets(prof, 1.0) == {0, 1, 2, 3}
    for bad in (-0.1, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            rare_nets(prof, bad)


def test_simulate_validates_inputs(netlist_of):
    nl = netlist_of("RCA", 4)
    with pytest.raises(ValueError):
        simulate(nl, make_stream([1], 4), make_stream([2], 4))
    with pytest.raises(ValueError):
        simulate(nl, make_stream([1, 2], 8), make_stream([1, 2], 8))
    with pytest.raises(ValueError):
        simulate(nl, make_stream([1, 2], 4), make_stream([1, 2, 3], 4))


def test_activity_export_is_deterministic(tmp_path, netlist_of):
    nl = netlist_of("RCA", 4)
    target = WordStats(0.0, 2.0, 0.5, 4)
    prof = simulate(nl, generate(target, 1000, 1), generate(target, 1000, 2))
    p1 = tmp_path / "a1.csv"
    p2 = tmp_path / "a2.csv"
    export_activity(nl, prof, p1)
    export_activity(nl, prof, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "net_id,net_name,block,slice,toggles,vectors,probability"


def test_activity_golden_fixture(tmp_path, netlist_of, request):
    golden = request.path.parent / "data" / "activity_rca4.csv"
    nl = netlist_of("RCA", 4)
    target = WordStats(0.0, 2.0, 0.5, 4)
    prof = simulate(nl, generate(target, 1000, 1), generate(target, 1000, 2))
    path = tmp_path / "activity.csv"
    export_activity(nl, prof, path)
    assert path.read_text() == golden.read_text()



def _csv_writer_activity(nl, prof) -> str:
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(["net_id", "net_name", "block", "slice", "toggles",
                     "vectors", "probability"])
    for net in sorted(prof.toggles):
        gate = nl.driver_of(net)
        writer.writerow([net, nl.net_names[net], gate.block if gate else "",
                         nl.bit_slice(net), prof.toggles[net], prof.vectors,
                         f"{prof.probability(net):.12f}"])
    return ref.getvalue()


def test_activity_export_matches_csv_writer(tmp_path, netlist_of):
    """The rows are what `csv.writer` writes, quoting included."""
    text = export_netlist(netlist_of("RCA", 4))
    text = text.replace("net 14 FA1.xor0", 'net 14 FA1,"xor0"')
    text = text.replace("block=FA2", 'block=F,A"2')
    imported = import_netlist(text)
    assert imported.net_names[14] == 'FA1,"xor0"'
    names = list(imported.net_names)
    names[20], names[21] = "line\nbreak", "carriage\rreturn"
    built = Netlist(imported.name, imported.width, imported.input_names,
                    imported.kinds, imported.ins, imported.slices,
                    imported.blocks, imported.block_names,
                    imported.primary_outputs,
                    names[len(imported.input_names):])
    target = WordStats(0.0, 2.0, 0.5, 4)
    prof = simulate(imported, generate(target, 1000, 1),
                    generate(target, 1000, 2))
    for nl, quoted in ((imported, ['"FA1,""xor0"""', '"F,A""2"']),
                       (built, ['"line\nbreak"', '"carriage\rreturn"'])):
        path = tmp_path / "activity.csv"
        export_activity(nl, prof, path)
        ref = _csv_writer_activity(nl, prof)
        assert path.read_bytes().decode() == ref
        assert all(q in ref for q in quoted)


def test_activity_heads_follow_the_netlist_exported(tmp_path, netlist_of):
    """Per-net heads are memoised per netlist: exporting A, then B, then A
    again, where A and B share name and width but not net names, writes
    each netlist's own rows."""
    a = netlist_of("RCA", 4)
    b = import_netlist(export_netlist(a).replace("net 14 FA1.xor0",
                                                 'net 14 FA1,"renamed"'))
    assert (a.name, a.width) == (b.name, b.width)
    assert a.net_names != b.net_names
    target = WordStats(0.0, 2.0, 0.5, 4)
    prof = simulate(a, generate(target, 1000, 1), generate(target, 1000, 2))
    texts = []
    for k, nl in enumerate((a, b, a)):
        path = tmp_path / f"activity{k}.csv"
        export_activity(nl, prof, path)
        texts.append(path.read_bytes().decode())
        assert texts[-1] == _csv_writer_activity(nl, prof)
    assert '"FA1,""renamed"""' in texts[1]
    assert texts[0] == texts[2] != texts[1]


# len(constant_nets) for every supported kind and width: the tied carry-in
# and the gates it fixes; multipliers have no carry-in
CONSTANT_NET_COUNTS = {
    "RCA": (2, 2, 2, 2), "CLA": (5, 9, 17, 33), "CKA": (3, 3, 3, 3),
    "CSA": (2, 2, 2, 2), "KSA": (5, 9, 17, 33), "HYBRID": (5, 5, 5, 5),
    "ARRAY": (0, 0, 0), "VEDIC": (0, 0, 0), "DADDA": (0, 0, 0),
    "BOOTH": (0, 0, 0),
}


@pytest.mark.parametrize("kind,width,count", [
    (kind, width, count)
    for kind, counts in CONSTANT_NET_COUNTS.items()
    for width, count in zip((4, 8, 16, 32), counts)])
def test_constant_net_count(netlist_of, kind, width, count):
    assert len(constant_nets(netlist_of(kind, width))) == count
