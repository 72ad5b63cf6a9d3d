"""Whole-array scanning of line-oriented text, shared by the file readers.

A reader finds its lines with `lines` and reads its decimal fields with
`decimals`, in a few numpy passes over the UTF-8 bytes.  Offsets are byte
offsets, which equal `str` offsets only up to the first non-ASCII character.
"""

from __future__ import annotations

import numpy as np


def lines(text: str) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, int]:
    """The text less the whitespace around it; its UTF-8 bytes plus 16 zero
    bytes, so that a short read past its end is harmless; the byte offsets
    where each line starts and ends (at its newline, or the end of the
    text); and the number of lines skipped before the first."""
    stripped = text.lstrip()
    skipped = text.count("\n", 0, len(text) - len(stripped))
    text = stripped.rstrip()
    data = text.encode("utf-8", "surrogatepass")
    raw = np.frombuffer(data + bytes(16), np.uint8)
    breaks = np.flatnonzero(raw[:len(data)] == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, len(data))
    return text, raw, starts, ends, skipped


def decimals(digit: np.ndarray, at: np.ndarray, end: np.ndarray,
             most: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 values of the byte ranges [at, end), and a mask of the
    ranges that hold 1 to `most` (at most 19) ASCII digits; where the mask
    is False the value means nothing.

    `digit` is the text's bytes minus ord("0"), wrapping, so only "0".."9"
    fall below 10.  Horner runs over the right-aligned digit columns, most
    significant first; 19 digits cannot overflow uint64.  A column past a
    range's start reads another range's byte, or the padding, and is
    masked to 0.
    """
    length = end - at
    ok = (length >= 1) & (length <= most)
    columns = min(int(length.max(initial=0)), most)
    value = np.zeros(at.size, np.uint64)
    column = np.empty(at.size, np.uint8)
    present = np.empty(at.size, bool)
    index = end - columns
    for col in range(columns - 1, -1, -1):
        digit.take(index, out=column)
        column *= np.greater(length, col, out=present)
        ok &= column < 10
        value *= 10
        value += column
        index += 1
    return value, ok
