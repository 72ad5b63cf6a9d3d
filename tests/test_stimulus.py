import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarenet.stats import WordStats, empirical_bit_profile, empirical_word_stats
from rarenet.stimulus import (StimulusStream, dump_stream, generate, load_stream,
                              parse_stream, quantise, save_stream)

from conftest import mutations

TARGET = WordStats(0.0, 1024.0, 0.99, 16)


def test_same_seed_reproduces_stream():
    a = generate(TARGET, 500, 3)
    b = generate(TARGET, 500, 3)
    assert np.array_equal(a.words, b.words)


def test_different_seeds_differ():
    a = generate(TARGET, 500, 3)
    b = generate(TARGET, 500, 4)
    assert not np.array_equal(a.words, b.words)


def test_words_saturate_to_range():
    wide = WordStats(0.0, 40.0, 0.0, 8)
    s = generate(wide, 5000, 1)
    assert s.words.min() >= -128
    assert s.words.max() <= 127
    assert s.words.dtype == np.int64


def test_stream_is_write_locked():
    s = generate(TARGET, 10, 1)
    with pytest.raises(ValueError):
        s.words[0] = 0


def test_length_and_range_validation():
    with pytest.raises(ValueError):
        generate(TARGET, 1, 1)
    with pytest.raises(ValueError):
        generate(WordStats(0.0, 1e6, 0.0, 8), 10, 1)


def test_validation_precedes_chain_work(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("the chain was started")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    with pytest.raises(ValueError, match="length"):
        generate(TARGET, 1, 1)
    with pytest.raises(ValueError, match="exceeds the 8-bit range"):
        generate(WordStats(0.0, 1e6, 0.99, 8), 10_000, 1)
    with pytest.raises(ValueError, match="exceeds the 8-bit range"):
        quantise(WordStats(0.0, 1e6, 0.99, 8), np.zeros(10), 1)


def test_target_statistics_recovered():
    # at rho=0.99 the sample-mean standard error is sigma*sqrt((1+rho)/(1-rho))/sqrt(n)
    # ~= 0.14 sigma, so the 0.1 sigma bound only holds for favourable seeds
    s = generate(TARGET, 10_000, 3)
    got = empirical_word_stats(s)
    assert abs(got.mean) <= 0.1 * TARGET.std_dev
    assert got.std_dev == pytest.approx(TARGET.std_dev, rel=0.05)
    assert got.rho == pytest.approx(TARGET.rho, rel=0.05)


def test_uncorrelated_stream_has_random_low_bits():
    s = generate(WordStats(0.0, 1024.0, 0.0, 16), 10_000, 2)
    prof = empirical_bit_profile(s)
    for i in range(6):
        assert prof.activities[i] == pytest.approx(0.5, abs=0.02)


def test_text_round_trip_is_exact():
    s = generate(TARGET, 200, 9)
    text = dump_stream(s)
    back = parse_stream(text)
    assert np.array_equal(back.words, s.words)
    assert back.target == s.target
    assert back.seed == s.seed
    assert dump_stream(back) == text


def test_file_round_trip(tmp_path):
    s = generate(TARGET, 100, 5)
    path = tmp_path / "stream.txt"
    save_stream(s, path)
    back = load_stream(path)
    assert np.array_equal(back.words, s.words)


def test_golden_stream_fixture(request):
    golden = request.path.parent / "data" / "stream_w16_seed5.txt"
    s = generate(TARGET, 50, 5)
    assert dump_stream(s) == golden.read_text()


def _line_per_word(stream):
    """Reference text: the header, then one `str(word)` line per word."""
    t = stream.target
    header = (f"width={stream.bit_width} seed={stream.seed} "
              f"mu={t.mean!r} sigma={t.std_dev!r} rho={t.rho!r}")
    return "\n".join([header, *map(str, stream.words.tolist())]) + "\n"


@pytest.mark.parametrize("width", [2, 16, 64])
def test_dump_stream_matches_line_per_word_format(width):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    rng = np.random.default_rng(width)
    words = np.concatenate([[lo, hi, 0, -1, hi, lo, lo],
                            rng.integers(lo, hi, 300, endpoint=True)])
    target = WordStats(0.5, 0.25, -0.3, width)
    for ws in (words, words[:0]):
        stream = StimulusStream(ws.astype(np.int64), width, 11, target)
        assert dump_stream(stream) == _line_per_word(stream)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_stream("not a header\n1\n2\n")
    with pytest.raises(ValueError):
        parse_stream("")


def test_parse_rejects_repeated_header_key():
    # a repeated key must not silently override the first
    with pytest.raises(ValueError, match="stream header repeats a key"):
        parse_stream("width=8 seed=1 mu=0.0 sigma=1.0 rho=0.5 width=16\n300\n-2\n")


def _any_width_stream(width, words):
    return StimulusStream(np.array(words, dtype=np.int64), width, 3,
                          WordStats(-0.5, 2.0, 0.25, width))


@st.composite
def streams(draw):
    width = draw(st.integers(2, 64))
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return _any_width_stream(width, draw(st.lists(st.integers(lo, hi),
                                                  max_size=40)))


@settings(max_examples=300, deadline=None)
@given(streams())
@example(_any_width_stream(64, [-(1 << 63), (1 << 63) - 1, 0, -1, -(1 << 63)]))
@example(_any_width_stream(64, []))
@example(_any_width_stream(2, []))
def test_parse_inverts_dump(stream):
    back = parse_stream(dump_stream(stream))
    assert back.words.dtype == np.int64
    assert np.array_equal(back.words, stream.words)
    assert (back.bit_width, back.seed, back.target) == (
        stream.bit_width, stream.seed, stream.target)


def test_whitespace_around_the_text_is_ignored():
    s = generate(TARGET, 30, 2)
    text = dump_stream(s)
    assert text.endswith("\n")
    for variant in (text, text.rstrip("\n"), "\n \n" + text + "\n\t\n"):
        assert np.array_equal(parse_stream(variant).words, s.words)


HEADER = "width=64 seed=1 mu=0.0 sigma=1.0 rho=0.5"


# every bad word sits on line 4 of the file
@pytest.mark.parametrize("word, reason", [
    ("", "not a decimal integer"),  # a blank line inside the body
    ("-", "not a decimal integer"),
    ("1" * 20, "more than 19 digits"),
    (str(1 << 63), "word outside the 64-bit range"),
    (str(-(1 << 63) - 1), "word outside the 64-bit range"),
    ("+5", "not a decimal integer"),
    (" 5", "not a decimal integer"),
    ("1_000", "not a decimal integer"),
    ("\u0665", "not a decimal integer"),
    ("5\r", "not a decimal integer"),
    ("4\r5", "not a decimal integer"),
    ("--5", "not a decimal integer"),
    ("5-", "not a decimal integer"),
])
def test_parse_rejects_bad_word_naming_its_line(word, reason):
    with pytest.raises(ValueError, match=f"^stream line 4: {reason}"):
        parse_stream(f"{HEADER}\n1\n-2\n{word}\n3\n")


@pytest.mark.parametrize("word", [str(1 << 15), str(-(1 << 15) - 1)])
def test_parse_rejects_word_outside_header_width_naming_its_line(word):
    head = HEADER.replace("width=64", "width=16")
    # the range's own ends pass; the first word outside it is named
    text = f"{head}\n{(1 << 15) - 1}\n{-(1 << 15)}\n{word}\n70000\n"
    with pytest.raises(ValueError,
                       match="^stream line 4: word outside the 16-bit range$"):
        parse_stream(text)


def _line_per_word_reader(text):
    """Reference reader: each body line must fullmatch the word pattern and
    fit int64.  Returns the words, or the file line number of the first
    line that does not."""
    lines = text.strip().split("\n")[1:]
    for k, line in enumerate(lines):
        if (not re.fullmatch(r"-?[0-9]{1,19}", line)
                or not -(1 << 63) <= int(line) < 1 << 63):
            return k + 2
    return [int(line) for line in lines]


_WORDISH = st.one_of(st.integers(-(1 << 64), 1 << 64).map(str),
                     st.text("0123456789-+_ \t\r\u0665x", max_size=22))


@settings(max_examples=300, deadline=None)
@given(st.lists(_WORDISH, max_size=12))
def test_parse_agrees_with_line_per_word_reader(lines):
    text = "\n".join([HEADER, *lines]) + "\n"
    expected = _line_per_word_reader(text)
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=f"^stream line {expected}: "):
            parse_stream(text)
    else:
        assert parse_stream(text).words.tolist() == expected


def test_error_names_the_first_bad_line_of_the_file():
    # line numbers count the blank lines before the header
    with pytest.raises(ValueError, match="^stream line 4: not a decimal"):
        parse_stream(f"\n\n{HEADER}\nx\n")
    # an overflow before a junk line, and a junk line before an overflow
    with pytest.raises(ValueError, match="^stream line 3: word outside"):
        parse_stream(f"{HEADER}\n1\n{1 << 63}\n1x\n")
    with pytest.raises(ValueError, match="^stream line 2: not a decimal"):
        parse_stream(f"{HEADER}\n{'9' * 25}x\n{1 << 63}\n")
    with pytest.raises(ValueError, match="^stream line 3: not a decimal"):
        parse_stream(f"{HEADER}\n7\n\n{'9' * 20}\n")


def test_parse_rejects_word_beyond_64_bits():
    with pytest.raises(ValueError, match="64-bit"):
        parse_stream("width=8 seed=1 mu=0.0 sigma=1.0 rho=0.5\n"
                     "1\n99999999999999999999\n")


def test_parse_rejects_width_outside_word():
    for width in (1, 65):
        with pytest.raises(ValueError, match="2..64"):
            parse_stream(f"width={width} seed=1 mu=0.0 sigma=1.0 rho=0.5\n1\n")


SMALL_STREAM = dump_stream(generate(WordStats(0.0, 16.0, 0.9, 8), 20, 1))


@settings(max_examples=300, deadline=None)
@given(mutations(SMALL_STREAM))
def test_mutated_stream_parses_or_raises_value_error(text):
    try:
        parse_stream(text)
    except ValueError:
        pass
