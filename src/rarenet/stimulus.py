"""Seeded correlated stimulus generation.

Streams are drawn from a lag-1 autoregressive Gaussian process, scaled and
shifted to the target word statistics, rounded, and saturated to the
two's-complement range.  The first 100 samples of the chain are discarded
so emitted words are stationary.  Generation is reproducible: the same
(target, length, seed) always yields the identical stream (numpy PCG64).
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


def generate(target: WordStats, length: int, seed: int) -> StimulusStream:
    """Generate `length` words of AR(1) Gaussian stimulus matching `target`."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    if not target.fits_range():
        raise ValueError(
            f"target mean +/- 3 sigma exceeds the {target.bit_width}-bit range")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(length + _WARMUP)
    rho = target.rho
    scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    # the recurrence runs on Python floats: the same IEEE operations in the
    # same order as elementwise numpy, without per-element array access
    y = [float(w[0])]
    for drive in (scale * w[1:]).tolist():
        y.append(rho * y[-1] + drive)
    y = np.array(y[_WARMUP:])
    x = np.rint(target.mean + target.std_dev * y)
    lo = float(target.min_value)
    hi = float(target.max_value)
    words = np.clip(x, lo, hi).astype(np.int64)
    return StimulusStream(words, target.bit_width, seed, target)


def dump_stream(stream: StimulusStream) -> str:
    """Serialize a stream to the text interchange format (bit-exact)."""
    t = stream.target
    lines = [
        f"width={stream.bit_width} seed={stream.seed} "
        f"mu={t.mean!r} sigma={t.std_dev!r} rho={t.rho!r}"
    ]
    lines.extend(map(str, stream.words.tolist()))
    return "\n".join(lines) + "\n"


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
