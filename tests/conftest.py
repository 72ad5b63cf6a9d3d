import numpy as np
import pytest
from hypothesis import strategies as st

from rarenet.archlib import ALL_KINDS, build_architecture
from rarenet.stats import WordStats
from rarenet.stimulus import StimulusStream

ADDERS = ("RCA", "CLA", "CKA", "CSA", "KSA", "HYBRID")
MULTS = ("ARRAY", "VEDIC", "DADDA", "BOOTH")

_cache = {}


@pytest.fixture(scope="session")
def netlist_of():
    """Session-wide builder cache; large netlists are built once."""
    def build(kind, width):
        key = (kind, width)
        if key not in _cache:
            _cache[key] = build_architecture(kind, width)
        return _cache[key]
    return build


def make_stream(words, width):
    """Wrap a raw word sequence as a stream for the simulator."""
    arr = np.asarray(words, dtype=np.int64)
    return StimulusStream(arr, width, 0, WordStats(0.0, 1.0, 0.0, width))


def to_signed(value, width):
    """Reinterpret unsigned words (scalar or array) as two's complement."""
    if np.isscalar(value):
        return value - (1 << width) if value >= 1 << (width - 1) else value
    value = np.asarray(value, dtype=np.int64)
    return np.where(value >= 1 << (width - 1), value - (1 << width), value)


# characters that can turn one valid token of the text formats into another
_MUTATION_CHARS = "0123456789-+.,:=#_ \nabcdegiklnoprstuwxACDNOR"


@st.composite
def mutations(draw, text):
    """`text` after one to four random edits.

    An edit replaces a span of up to 8 characters with up to 8 drawn ones
    (so it also deletes or inserts), or deletes or repeats a whole line.
    """
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 8)))
            text = text[:i] + draw(st.text(_MUTATION_CHARS, max_size=8)) + text[j:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if draw(st.booleans()) else [lines[k]] * 2
            text = "\n".join(lines)
    return text
