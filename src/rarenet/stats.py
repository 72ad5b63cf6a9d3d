"""Dual-bit-type word-level statistical model.

A two's-complement word driven by a correlated Gaussian source splits into
three bit regions: an LSB region of effectively random bits (activity 0.5),
a transition region, and an MSB/sign region whose bits are highly correlated
and toggle rarely.  This module gives the breakpoints BP0/BP1 and sign-bit
activity/correlation in closed form from sigma and rho; it has no model of
the transition bits, which `empirical_bit_profile` only measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .stimulus import StimulusStream


@dataclass(frozen=True)
class WordStats:
    """Word-level signal statistics for an N-bit two's-complement signal."""

    mean: float
    std_dev: float
    rho: float
    bit_width: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 <= self.std_dev < math.inf:  # NaN fails every comparison
            raise ValueError(
                f"std_dev must be finite and >= 0, got {self.std_dev}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [-1, 1], got {self.rho}")
        if not 2 <= self.bit_width <= 64:  # words are held as int64
            raise ValueError(f"bit_width must be in 2..64, got {self.bit_width}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bit_width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.bit_width - 1)) - 1

    def fits_range(self) -> bool:
        """True when mean +/- 3 sigma lies inside the representable range."""
        return (self.mean - 3.0 * self.std_dev >= self.min_value
                and self.mean + 3.0 * self.std_dev <= self.max_value)


@dataclass(frozen=True)
class Breakpoints:
    """Region boundaries: bits < bp0 are LSB-random, bits >= bp1 are sign-like."""

    bp0: int
    bp1: int


@dataclass(frozen=True)
class BitProfile:
    """Per-bit signal probability and transition activity, LSB first."""

    probs: tuple[float, ...]
    activities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.activities) != len(self.probs):
            raise ValueError("profile vectors must have identical length")


def nint(x: float) -> int:
    """Round half away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _check_rho(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {rho}")


def rho_msb(rho: float) -> float:
    """Sign-bit lag-1 correlation for word-level correlation rho."""
    _check_rho(rho)
    return (2.0 / math.pi) * math.asin(rho)


def alpha_msb(rho: float) -> float:
    """Sign-bit transition activity for word-level correlation rho."""
    _check_rho(rho)
    return (1.0 / math.pi) * math.acos(rho)


def breakpoints(stats: WordStats) -> Breakpoints:
    """Compute (BP0, BP1) from word statistics.

    BP0 = nint(log2(2*sigma*(1 - rho_msb))), BP1 = nint(log2(6*sigma*sqrt(1 - rho_msb))),
    both clamped into [0, N-1] with bp0 <= bp1 enforced.  A zero-variance or
    perfectly-correlated signal has no meaningful regions: bp0 = bp1 = 0.
    """
    n = stats.bit_width
    rm = rho_msb(stats.rho)
    if stats.std_dev == 0.0 or rm >= 1.0:
        return Breakpoints(0, 0)
    bp0_raw = nint(math.log2(2.0 * stats.std_dev * (1.0 - rm)))
    bp1_raw = nint(math.log2(6.0 * stats.std_dev * math.sqrt(1.0 - rm)))
    bp0 = min(max(bp0_raw, 0), n - 1)
    bp1 = min(max(bp1_raw, 0), n - 1)
    bp0 = min(bp0, bp1)
    return Breakpoints(bp0, bp1)


def empirical_word_stats(stream: "StimulusStream") -> WordStats:
    """Sample mean / standard deviation / lag-1 autocorrelation of a stream."""
    x = np.asarray(stream.words, dtype=np.float64)
    if x.size < 2:
        raise ValueError("stream must contain at least 2 words")
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        return WordStats(mean, 0.0, 0.0, stream.bit_width)
    d = x - mean
    rho = float(np.dot(d[:-1], d[1:]) / np.dot(d, d))
    rho = min(1.0, max(-1.0, rho))
    return WordStats(mean, std, rho, stream.bit_width)


def empirical_bit_profile(stream: "StimulusStream") -> BitProfile:
    """Measured per-bit profile of a two's-complement word stream."""
    x = np.asarray(stream.words, dtype=np.int64)
    if x.size < 2:
        raise ValueError("stream must contain at least 2 words")
    n = stream.bit_width
    u = x & ((1 << n) - 1)
    probs = []
    acts = []
    for i in range(n):
        bits = ((u >> i) & 1).astype(np.float64)
        probs.append(float(np.mean(bits)))
        acts.append(float(np.count_nonzero(bits[1:] != bits[:-1]) / (bits.size - 1)))
    return BitProfile(tuple(probs), tuple(acts))
