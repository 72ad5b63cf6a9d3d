import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rarenet.estimate import effective_slice_start
from rarenet.stats import (
    Breakpoints,
    WordStats,
    alpha_msb,
    breakpoints,
    empirical_bit_profile,
    empirical_word_stats,
    nint,
    rho_msb,
)
from rarenet.stimulus import generate

from conftest import make_stream


def test_nint_rounds_half_away_from_zero():
    assert nint(0.5) == 1
    assert nint(-0.5) == -1
    assert nint(2.5) == 3
    assert nint(-2.5) == -3
    assert nint(2.4) == 2
    assert nint(-2.4) == -2
    assert nint(0.0) == 0


def test_sign_bit_correlation_reference_values():
    # closed forms: (2/pi) arcsin and (1/pi) arccos
    assert rho_msb(0.0) == 0.0
    assert rho_msb(1.0) == pytest.approx(1.0, abs=1e-15)
    assert rho_msb(-1.0) == pytest.approx(-1.0, abs=1e-15)
    assert rho_msb(0.99) == pytest.approx(0.909893, abs=1e-6)
    assert alpha_msb(0.0) == pytest.approx(0.5, abs=1e-15)
    assert alpha_msb(1.0) == 0.0
    assert alpha_msb(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert alpha_msb(0.99) == pytest.approx(0.0450534, abs=1e-6)


def test_sign_bit_functions_reject_out_of_range():
    for bad in (1.0000001, -1.1, 2.0):
        with pytest.raises(ValueError):
            rho_msb(bad)
        with pytest.raises(ValueError):
            alpha_msb(bad)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_activity_correlation_identity(rho):
    # arcsin + arccos = pi/2 links the two closed forms
    assert rho_msb(rho) / 2 + alpha_msb(rho) == pytest.approx(0.5, abs=1e-12)
    assert -1.0 <= rho_msb(rho) <= 1.0
    assert 0.0 <= alpha_msb(rho) <= 1.0


@given(st.floats(min_value=-1.0, max_value=0.999),
       st.floats(min_value=0.0005, max_value=0.001))
def test_activity_decreases_with_correlation(rho, step):
    assert alpha_msb(rho + step) < alpha_msb(rho)


def test_breakpoint_fixture_sigma_1024():
    bp = breakpoints(WordStats(0.0, 1024.0, 0.99, 16))
    assert (bp.bp0, bp.bp1) == (8, 11)


def test_breakpoints_clamped_to_word():
    bp = breakpoints(WordStats(0.0, 1e9, 0.99, 16))
    assert bp.bp1 == 15
    bp = breakpoints(WordStats(0.0, 0.01, 0.0, 16))
    assert bp.bp0 == 0 and bp.bp0 <= bp.bp1


def test_breakpoints_degenerate_cases():
    assert breakpoints(WordStats(0.0, 0.0, 0.5, 16)) == Breakpoints(0, 0)
    assert breakpoints(WordStats(0.0, 100.0, 1.0, 16)) == Breakpoints(0, 0)


@given(st.floats(min_value=1.0, max_value=1e6),
       st.floats(min_value=-0.999, max_value=0.999))
def test_breakpoints_ordered_and_in_range(sigma, rho):
    bp = breakpoints(WordStats(0.0, sigma, rho, 16))
    assert 0 <= bp.bp0 <= bp.bp1 <= 15


def test_combined_breakpoints_widest_region(netlist_of):
    # an adder's output boundary is the widest region of its operands'
    nl = netlist_of("RCA", 16)
    a = Breakpoints(4, 9)
    b = Breakpoints(6, 7)
    assert effective_slice_start(nl, a, b) == Breakpoints(4, 9)
    assert effective_slice_start(nl, b, a) == Breakpoints(4, 9)
    s = WordStats(0.0, 1024.0, 0.99, 16)
    assert effective_slice_start(nl, breakpoints(s), breakpoints(s)) == breakpoints(s)


def test_empirical_word_stats_matches_numpy():
    rng = np.random.default_rng(7)
    words = rng.integers(-500, 500, size=4000)
    stats = empirical_word_stats(make_stream(words, 16))
    x = words.astype(float)
    assert stats.mean == pytest.approx(x.mean())
    assert stats.std_dev == pytest.approx(x.std(ddof=1))
    d = x - x.mean()
    assert stats.rho == pytest.approx(np.dot(d[:-1], d[1:]) / np.dot(d, d))


def test_empirical_word_stats_constant_stream():
    stats = empirical_word_stats(make_stream([42] * 10, 16))
    assert stats.std_dev == 0.0
    assert stats.rho == 0.0


def test_empirical_recovers_generated_target():
    target = WordStats(0.0, 1024.0, 0.9, 16)
    stream = generate(target, 20_000, 11)
    got = empirical_word_stats(stream)
    assert got.std_dev == pytest.approx(1024.0, rel=0.05)
    assert got.rho == pytest.approx(0.9, rel=0.05)


def test_empirical_bit_profile_known_patterns():
    # alternating LSB toggles every cycle; upper bits stay constant
    prof = empirical_bit_profile(make_stream([0, 1] * 50, 8))
    assert prof.activities[0] == pytest.approx(1.0)
    assert prof.probs[0] == pytest.approx(0.5)
    assert prof.activities[7] == 0.0


def test_word_stats_validation():
    with pytest.raises(ValueError):
        WordStats(0.0, -1.0, 0.0, 16)
    with pytest.raises(ValueError):
        WordStats(0.0, 1.0, 1.5, 16)
    for width in (1, 65):
        with pytest.raises(ValueError):
            WordStats(0.0, 1.0, 0.0, width)
    assert WordStats(0.0, 1000.0, 0.0, 8).fits_range() is False
    assert WordStats(0.0, 40.0, 0.0, 8).fits_range() is True
