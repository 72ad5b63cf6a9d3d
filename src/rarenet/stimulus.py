"""Seeded correlated stimulus generation.

A stream is a chain plus a quantisation.  The chain is a unit-variance
lag-1 autoregressive Gaussian sequence, set by (rho, length, seed), whose
first 100 samples are discarded so emitted words are stationary; streams
that share (rho, seed) share one chain.  Quantisation scales and shifts it
to the target word statistics, rounds, and saturates to the
two's-complement range.  The same (target, length, seed) always yields the
identical stream (numpy PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stats import WordStats

_WARMUP = 100


@dataclass(frozen=True)
class StimulusStream:
    """A seeded sequence of two's-complement words realizing target stats."""

    words: np.ndarray
    bit_width: int
    seed: int
    target: WordStats

    def __post_init__(self) -> None:
        self.words.setflags(write=False)

    def __len__(self) -> int:
        return int(self.words.size)


def check_range(target: WordStats) -> None:
    """Raise `ValueError` when mean +/- 3 sigma does not fit the word."""
    if not target.fits_range():
        raise ValueError(
            f"target mean +/- 3 sigma exceeds the {target.bit_width}-bit range")


def unit_chain(rho: float, length: int, seed: int) -> np.ndarray:
    """`length` stationary samples of the unit-variance AR(1) chain."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(length + _WARMUP)
    scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    # the recurrence runs on Python floats: the same IEEE operations in the
    # same order as elementwise numpy, without per-element array access
    y = [float(w[0])]
    for drive in (scale * w[1:]).tolist():
        y.append(rho * y[-1] + drive)
    return np.array(y[_WARMUP:])


def quantise(target: WordStats, chain: np.ndarray, seed: int) -> StimulusStream:
    """Scale, round and saturate a `unit_chain` of `target.rho` to `target`."""
    check_range(target)
    x = np.rint(target.mean + target.std_dev * chain)
    words = np.clip(x, float(target.min_value), float(target.max_value))
    return StimulusStream(words.astype(np.int64), target.bit_width, seed, target)


def generate(target: WordStats, length: int, seed: int) -> StimulusStream:
    """Generate `length` words of AR(1) Gaussian stimulus matching `target`."""
    check_range(target)
    return quantise(target, unit_chain(target.rho, length, seed), seed)


def dump_stream(stream: StimulusStream) -> str:
    """Serialize a stream to the text format; each distinct word is formatted once."""
    t = stream.target
    values, index = np.unique(stream.words, return_inverse=True)
    lines = np.array([f"{v}\n" for v in values.tolist()], dtype=object)[index]
    return (f"width={stream.bit_width} seed={stream.seed} "
            f"mu={t.mean!r} sigma={t.std_dev!r} rho={t.rho!r}\n"
            + "".join(lines.tolist()))


def parse_stream(text: str) -> StimulusStream:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty stream file")
    header = dict(item.split("=", 1) for item in lines[0].split())
    missing = [k for k in ("width", "seed", "mu", "sigma", "rho")
               if k not in header]
    if missing:
        raise ValueError(f"stream header lacks {', '.join(missing)}")
    width = int(header["width"])
    seed = int(header["seed"])
    target = WordStats(
        float(header["mu"]), float(header["sigma"]), float(header["rho"]), width)
    try:
        words = np.array(list(map(int, lines[1:])), dtype=np.int64)
    except OverflowError:
        raise ValueError("stream word outside the 64-bit range") from None
    lo, hi = target.min_value, target.max_value
    if words.size and (words.min() < lo or words.max() > hi):
        raise ValueError(f"stream word out of {width}-bit range")
    return StimulusStream(words, width, seed, target)


def save_stream(stream: StimulusStream, path: str | Path) -> None:
    Path(path).write_text(dump_stream(stream))


def load_stream(path: str | Path) -> StimulusStream:
    return parse_stream(Path(path).read_text())
