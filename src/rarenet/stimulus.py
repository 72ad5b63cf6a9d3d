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

import contextlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import textscan
from .stats import WordStats

_WARMUP = 100

# the stream length and seed of every command and config that omits them
DEFAULT_VECTORS = 10_000
DEFAULT_SEED = 1


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(length + _WARMUP)
    w[1:] *= math.sqrt(max(0.0, 1.0 - rho * rho))
    # the recurrence runs in place on Python floats: the same IEEE
    # operations in the same order as elementwise numpy, without numpy's
    # per-element cost or a list of a float object per sample
    last, view = float(w[0]), memoryview(w)
    for i in range(1, len(w)):
        view[i] = last = rho * last + view[i]
    return w[_WARMUP:]


def quantise(target: WordStats, chain: np.ndarray, seed: int) -> StimulusStream:
    """Scale, round and saturate a `unit_chain` of `target.rho` to `target`."""
    check_range(target)
    # 2**(w-1) is exact as a float, but above 53 bits `max_value` is not
    top = 2.0 ** (target.bit_width - 1)
    x = np.clip(np.rint(target.mean + target.std_dev * chain), -top, top)
    over = x == top
    x[over] = 0  # at 64 bits `top` is beyond int64
    words = x.astype(np.int64)
    words[over] = target.max_value
    return StimulusStream(words, target.bit_width, seed, target)


def generate(target: WordStats, length: int, seed: int) -> StimulusStream:
    """Generate `length` words of AR(1) Gaussian stimulus matching `target`."""
    check_range(target)
    return quantise(target, unit_chain(target.rho, length, seed), seed)


def dump_stream(stream: StimulusStream) -> str:
    """Serialize a stream to the text format; each distinct word is formatted once."""
    t = stream.target
    words = stream.words
    lo = int(words.min(initial=0))  # 0 gives an empty stream a span too
    span = int(words.max(initial=0)) - lo
    if span < 1 << 16:  # every span up to 16 bits: an O(n) offset table
        offsets = words - lo
        present = np.zeros(span + 1, dtype=bool)
        present[offsets] = True
        values = np.flatnonzero(present) + lo
        index = (np.cumsum(present) - 1)[offsets]
    else:
        values, index = np.unique(words, return_inverse=True)
    lines = np.array([f"{v}\n" for v in values.tolist()], dtype=object)[index]
    return (f"width={stream.bit_width} seed={stream.seed} "
            f"mu={t.mean!r} sigma={t.std_dev!r} rho={t.rho!r}\n"
            + "".join(lines.tolist()))


# the header's ASCII forms: an integer, and a number as an integer or in a
# form `repr(float)` writes; key -> (the form of its value, its parser)
_INTEGER = re.compile("-?[0-9]+")
_NUMBER = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?|inf)|nan")
_HEADER = {"width": (_INTEGER, int), "seed": (_INTEGER, int),
           "mu": (_NUMBER, float), "sigma": (_NUMBER, float),
           "rho": (_NUMBER, float)}
_DIGITS = 19  # 2**63 has 19 decimal digits


def integer(text: str) -> int:
    """An integer typed in a config value or a flag, in the header's form."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def number(text: str) -> float:
    """A number typed in a config value or a flag: ASCII with no `_`, read
    by `float`, so `1e4`, `.5` and `nan` pass."""
    if text.isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            return float(text)
    raise ValueError(f"{text!r} is not a number")


def parse_stream(text: str) -> StimulusStream:
    """Read the text format: a header line, then one word per line.

    The header is the items `width=<int> seed=<int> mu=<number>
    sigma=<number> rho=<number>`, separated by ASCII spaces or tabs, each
    once and in any order.  Values are ASCII: an integer is `-?[0-9]+`,
    and a number is an integer or a form `repr(float)` writes, such as
    `0.5`, `-0.0`, `1e-05` or `nan`.  A word line is `-?[0-9]{1,19}` and nothing else;
    lines end in `\\n`, and whitespace around the whole text is ignored.
    Any other header or word line raises `ValueError`; a word error names
    the first bad file line.
    """
    text, raw, starts, ends, skipped = textscan.lines(text)
    if not text:
        raise ValueError("empty stream file")
    head = bytes(raw[:ends[0]]).decode("utf-8", "surrogatepass")
    header = {}
    for item in re.findall("[^ \t]+", head):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"stream header item {item!r} is not key=value")
        if key in header:
            raise ValueError(f"stream header repeats a key: {head!r}")
        if key not in _HEADER:
            raise ValueError(f"stream header has an unknown key {key!r} "
                             f"(known: {', '.join(_HEADER)})")
        form, parse = _HEADER[key]
        if not form.fullmatch(value):
            noun = "an integer" if parse is int else "a number"
            raise ValueError(f"stream header {key}={value!r} is not {noun}")
        header[key] = parse(value)
    missing = [k for k in _HEADER if k not in header]
    if missing:
        raise ValueError(f"stream header lacks {', '.join(missing)}")
    width = header["width"]
    target = WordStats(header["mu"], header["sigma"], header["rho"], width)

    starts, ends = starts[1:], ends[1:]  # the word lines
    neg = raw[starts] == ord("-")
    value, ok = textscan.decimals(raw - np.uint8(ord("0")), starts + neg,
                                  ends, _DIGITS)
    bad = ~ok | (value > neg + np.uint64(2**63 - 1))
    words = value.view(np.int64)
    words *= 1 - 2 * neg  # 2**63 reads as -2**63, which negation keeps
    bad |= (words < target.min_value) | (words > target.max_value)
    if bad.any():
        k = int(np.argmax(bad))
        line = bytes(raw[starts[k]:ends[k]]).decode("utf-8", "surrogatepass")
        if not _INTEGER.fullmatch(line):
            reason = "not a decimal integer"
        elif len(line.lstrip("-")) > _DIGITS:
            reason = f"more than {_DIGITS} digits, beyond the 64-bit range"
        elif not -2**63 <= int(line) < 2**63:
            reason = "word outside the 64-bit range"
        else:
            reason = f"word outside the {width}-bit range"
        raise ValueError(f"stream line {skipped + k + 2}: {reason}")
    return StimulusStream(words, width, header["seed"], target)


def save_stream(stream: StimulusStream, path: str | Path) -> None:
    Path(path).write_text(dump_stream(stream))


def load_stream(path: str | Path) -> StimulusStream:
    return parse_stream(Path(path).read_text())
