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
    """Read the text format: a header line, then one word per line.

    A word line is `-?[0-9]{1,19}` and nothing else; lines end in `\\n`, and
    whitespace around the whole text is ignored.  Any other word line, or a
    header that lacks or repeats a key, raises `ValueError`.
    """
    stripped = text.lstrip()
    skipped = text.count("\n", 0, len(text) - len(stripped))
    head, _, body = stripped.rstrip().partition("\n")
    if not head:
        raise ValueError("empty stream file")
    items = head.split()
    header = dict(item.split("=", 1) for item in items)
    if len(header) < len(items):
        raise ValueError(f"stream header repeats a key: {head!r}")
    missing = [k for k in ("width", "seed", "mu", "sigma", "rho")
               if k not in header]
    if missing:
        raise ValueError(f"stream header lacks {', '.join(missing)}")
    width = int(header["width"])
    seed = int(header["seed"])
    target = WordStats(
        float(header["mu"]), float(header["sigma"]), float(header["rho"]), width)
    first = skipped + 2  # the file line number of the first word
    words = _parse_words(body, first)
    lo, hi = target.min_value, target.max_value
    if words.size and (words.min() < lo or words.max() > hi):
        k = int(np.argmax((words < lo) | (words > hi)))
        raise ValueError(
            f"stream line {first + k}: word outside the {width}-bit range")
    return StimulusStream(words, width, seed, target)


_DIGITS = 19  # 2**63 has 19 decimal digits


def _parse_words(body: str, first_line: int) -> np.ndarray:
    """The int64 words of `body`, one per line, in whole-array passes.

    `first_line` is the file line number of the body's first line; an error
    names the first line that is not a word.
    """
    if not body:
        return np.zeros(0, np.int64)
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, raw.size)
    neg = raw[starts] == ord("-")  # the body ends in a non-blank line
    length = ends - starts - neg  # digits per line, if all are digits
    digit = raw - np.uint8(ord("0"))  # wraps: only "0".."9" fall below 10
    # the non-digits are exactly the newlines and leading signs, or junk
    junk = (np.count_nonzero(digit < 10) + breaks.size + np.count_nonzero(neg)
            < raw.size)
    longest = int(length.max())
    columns = min(longest, _DIGITS)
    # Horner over the right-aligned digit columns, most significant first;
    # 19 digits cannot overflow uint64.  A column past a line's length reads
    # another line's byte (an index >= -raw.size) and is masked to 0.
    value = np.zeros(starts.size, np.uint64)
    column = np.empty(starts.size, np.uint8)
    present = np.empty(starts.size, bool)
    at = ends - columns
    for col in range(columns - 1, -1, -1):
        digit.take(at, out=column)
        column *= np.greater(length, col, out=present)
        value *= 10
        value += column
        at += 1
    if junk or length.min() < 1 or longest >= _DIGITS:
        # name the first line that is not a 64-bit word, if there is one
        bad = ((length < 1) | (length > _DIGITS)
               | (value > neg + np.uint64(2**63 - 1)))
        junk_line = -1
        if junk:
            allowed = digit < 10
            allowed[breaks] = True
            allowed[starts[neg]] = True
            junk_line = int(np.searchsorted(breaks, np.argmin(allowed)))
            bad[junk_line] = True
        if bad.any():
            k = int(np.argmax(bad))
            if k == junk_line or length[k] < 1:
                reason = "not a decimal integer"
            elif length[k] > _DIGITS:
                reason = f"more than {_DIGITS} digits, beyond the 64-bit range"
            else:
                reason = "word outside the 64-bit range"
            raise ValueError(f"stream line {first_line + k}: {reason}")
    words = value.view(np.int64)
    words *= 1 - 2 * neg  # 2**63 reads as -2**63, which negation keeps
    return words


def save_stream(stream: StimulusStream, path: str | Path) -> None:
    Path(path).write_text(dump_stream(stream))


def load_stream(path: str | Path) -> StimulusStream:
    return parse_stream(Path(path).read_text())
