import itertools

import numpy as np
import pytest

from rarenet.adders import ADDER_KINDS, build_adder
from rarenet.simulate import evaluate

from conftest import ADDERS, make_stream


def output_words(netlist, values):
    out = np.zeros(len(next(iter(values.values()))), dtype=np.int64)
    for k, po in enumerate(netlist.primary_outputs):
        out |= values[po].astype(np.int64) << k
    return out


def adder_outputs(netlist, a_words, b_words):
    w = netlist.width
    va = evaluate(netlist, make_stream(a_words, w), make_stream(b_words, w))
    return output_words(netlist, va)


@pytest.mark.parametrize("kind", ADDERS)
def test_exhaustive_width_4(kind, netlist_of):
    nl = netlist_of(kind, 4)
    pairs = list(itertools.product(range(16), repeat=2))
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    got = adder_outputs(nl, a, b)
    assert np.array_equal(got, np.array(a) + np.array(b))


@pytest.mark.parametrize("kind", ADDERS)
@pytest.mark.parametrize("width", [8, 16, 32])
def test_random_sample_matches_sum(kind, width, netlist_of):
    rng = np.random.default_rng(width)
    a = rng.integers(0, 1 << width, 2000)
    b = rng.integers(0, 1 << width, 2000)
    got = adder_outputs(netlist_of(kind, width), a, b)
    assert np.array_equal(got, a + b)


def test_unsupported_parameters_rejected():
    with pytest.raises(ValueError):
        build_adder("RCA", 12)
    with pytest.raises(ValueError):
        build_adder("NOPE", 16)


def test_ripple_structure_counts(netlist_of):
    nl = netlist_of("RCA", 16)
    assert len(nl.gates) == 80
    assert len(nl.primary_inputs) == 33
    blocks = {}
    for g in nl.gates:
        blocks.setdefault(g.block, []).append(g)
    assert set(blocks) == {f"FA{i}" for i in range(16)}
    for gs in blocks.values():
        assert sorted(g.kind for g in gs) == ["AND", "AND", "OR", "XOR", "XOR"]


def test_ripple_slice_counts(netlist_of):
    nl = netlist_of("RCA", 16)
    at_or_above = {col: sum(g.bit_slice >= col for g in nl.gates)
                   for col in (0, 8, 13)}
    assert at_or_above == {0: 80, 8: 40, 13: 15}


def test_skip_logic_present_per_block(netlist_of):
    nl = netlist_of("CKA", 16)
    blocks = {g.block for g in nl.gates}
    for b in range(4):
        assert f"skip{b}" in blocks


def test_every_output_column_covered(netlist_of):
    for kind in ADDERS:
        for width in (4, 8, 16, 32):
            nl = netlist_of(kind, width)
            cols = {g.bit_slice for g in nl.gates}
            assert cols >= set(range(width + 1)), (kind, width)


def test_cross_kind_agreement(netlist_of):
    rng = np.random.default_rng(99)
    a = rng.integers(0, 1 << 32, 500)
    b = rng.integers(0, 1 << 32, 500)
    results = [adder_outputs(netlist_of(k, 32), a, b) for k in ADDERS]
    for got in results[1:]:
        assert np.array_equal(got, results[0])


def test_kind_list_stable():
    assert ADDER_KINDS == ("RCA", "CLA", "CKA", "CSA", "KSA", "HYBRID")
    assert set(ADDERS) == set(ADDER_KINDS)
