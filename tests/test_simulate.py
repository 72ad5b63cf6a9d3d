import gc
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from rarenet.archlib import ALL_KINDS
from rarenet.simulate import (CHUNK_WORDS, ToggleProfile, evaluate,
                              export_activity, rare_nets, simulate)
from rarenet.stats import WordStats
from rarenet.stimulus import generate

from conftest import make_stream


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_waveforms_match_reference_width_8_random(kind, netlist_of):
    nl = netlist_of(kind, 8)
    rng = np.random.default_rng(17)
    a = rng.integers(-128, 128, 300)
    b = rng.integers(-128, 128, 300)
    got = evaluate(nl, make_stream(a, 8), make_stream(b, 8))
    ref = bigint_reference(nl, a, b)
    for net, wave in got.items():
        assert as_int(wave) == ref[net]


def test_toggle_counts_hand_cases(netlist_of):
    nl = netlist_of("RCA", 4)
    # constant inputs: nothing toggles
    prof = simulate(nl, make_stream([5] * 10, 4), make_stream([2] * 10, 4))
    assert all(t == 0 for t in prof.toggles.values())
    # LSB alternates every vector: the bit-0 sum net toggles every cycle
    prof = simulate(nl, make_stream([0, 1] * 5, 4), make_stream([0] * 10, 4))
    s0 = nl.primary_outputs[0]
    assert prof.toggles[s0] == 9
    assert prof.probability(s0) == 1.0


def assert_toggles_match_reference(nl, vectors, seed=23):
    half = 1 << (nl.width - 1)
    rng = np.random.default_rng(seed)
    a = rng.integers(-half, half, vectors)
    b = rng.integers(-half, half, vectors)
    prof = simulate(nl, make_stream(a, nl.width), make_stream(b, nl.width))
    ref = bigint_reference(nl, a, b)
    for net, acc in ref.items():
        if net not in prof.toggles:
            # census skips nets made constant by the tied carry-in
            assert acc in (0, (1 << vectors) - 1)
            continue
        flips = (acc ^ (acc >> 1)) & ((1 << (vectors - 1)) - 1)
        assert prof.toggles[net] == flips.bit_count(), nl.net_names[net]


# 63/64/65 straddle the first packed-word boundary
@pytest.mark.parametrize("vectors", [2, 63, 64, 65, 500])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_toggle_count_matches_reference(kind, vectors, netlist_of):
    assert_toggles_match_reference(netlist_of(kind, 8), vectors)


def test_toggle_count_matches_reference_across_chunks(netlist_of):
    # one vector past the first chunk: the census carries into a chunk of one
    assert CHUNK_WORDS * 64 == 65_536
    assert_toggles_match_reference(netlist_of("RCA", 4), 65_537)


def test_one_word_chunks_match_reference(netlist_of, monkeypatch):
    # the package attribute `rarenet.simulate` is the function, not the module
    monkeypatch.setattr(sys.modules["rarenet.simulate"], "CHUNK_WORDS", 1)
    nl = netlist_of("CSA", 8)
    assert_toggles_match_reference(nl, 500)
    rng = np.random.default_rng(3)
    a = rng.integers(-128, 128, 300)
    b = rng.integers(-128, 128, 300)
    got = evaluate(nl, make_stream(a, 8), make_stream(b, 8))
    ref = bigint_reference(nl, a, b)
    assert all(as_int(wave) == ref[net] for net, wave in got.items())


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


def test_constant_nets_from_tied_carry_in(netlist_of):
    from rarenet.simulate import constant_nets

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
    with pytest.raises(ValueError):
        rare_nets(prof, -0.1)


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
    from rarenet.simulate import constant_nets

    assert len(constant_nets(netlist_of(kind, width))) == count
