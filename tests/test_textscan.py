import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarenet.textscan import decimals, lines

# digits with junk at any position: a sign, a space, the bytes just
# outside "0".."9", and a non-ASCII digit of two UTF-8 bytes
_FIELD = st.one_of(
    st.text("0123456789-+ /:x٥", max_size=25),
    st.integers(2**63 - 40, 2**63 + 40).map(str),
    st.integers(2**64 - 40, 2**64 + 40).map(str),
    st.integers(0, 10**19 + 40).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n),
              st.integers(0, 5), st.integers(0, 10**19)),
)


def _ranges(fields):
    """The fields joined by newlines, as padded bytes minus ord("0"), and
    each field's byte range."""
    data = "\n".join(fields).encode()
    sizes = np.array([len(f.encode()) for f in fields], np.int64)
    at = np.concatenate(([0], np.cumsum(sizes + 1)[:-1]))
    digit = np.frombuffer(data + bytes(16), np.uint8) - np.uint8(ord("0"))
    return digit, at, at + sizes


@pytest.mark.parametrize("most", [9, 19])
@settings(max_examples=300, deadline=None)
@given(fields=st.lists(_FIELD, min_size=1, max_size=10))
def test_decimals_agrees_with_regex_and_int(most, fields):
    value, ok = decimals(*_ranges(fields), most)
    assert value.dtype == np.uint64 and ok.dtype == bool
    for field, v, good in zip(fields, value.tolist(), ok.tolist()):
        assert good == bool(re.fullmatch(f"[0-9]{{1,{most}}}", field)), field
        if good:
            assert v == int(field), field


def test_decimals_of_no_ranges():
    value, ok = decimals(np.zeros(16, np.uint8), np.zeros(0, np.int64),
                         np.zeros(0, np.int64), 19)
    assert value.size == ok.size == 0


@settings(max_examples=200, deadline=None)
@given(st.text("ab1 \n\t٥", max_size=30))
def test_lines_cut_the_stripped_text_at_its_newlines(text):
    stripped, raw, starts, ends, skipped = lines(text)
    assert stripped == text.strip()
    assert bytes(raw) == stripped.encode() + bytes(16)
    cut = [bytes(raw[i:j]).decode() for i, j in zip(starts, ends)]
    assert cut == stripped.split("\n")
    # the newlines in the leading whitespace are the skipped lines
    assert skipped == text[:len(text) - len(text.lstrip())].count("\n")
