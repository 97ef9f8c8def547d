"""Word and digit-stream tests; expected digit blocks come from the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorlog import numeration
from floorlog.exact import ExactReal
from floorlog.numeration import (
    digit_stream,
    from_word,
    parse_word,
    to_word,
    word_str,
)
from oracles import oracle_digits, to_word_per_digit


def test_to_word_examples():
    assert to_word(85, 2) == (1, 0, 1, 0, 1, 0, 1)
    assert to_word(0, 2) == (0,)
    assert to_word(10, 10) == (1, 0)
    assert to_word(181, 2) == (1, 0, 1, 1, 0, 1, 0, 1)


_WORD_BASES = st.one_of(st.integers(min_value=2, max_value=16),
                        st.sampled_from([255, 256, 1000, 4095, 4096]))


@settings(max_examples=80, deadline=None)
@given(base=_WORD_BASES, bits=st.integers(min_value=0, max_value=6000),
       shape=st.sampled_from(["random", "power", "power - 1"]), data=st.data())
def test_split_words_equal_the_digit_loop(base, bits, shape, data):
    """Past _SPLIT_BITS bits to_word splits by base^(2^i); powers of the
    base and their predecessors put zeros and base - 1 digits across every
    split, random values the rest."""
    if shape == "random":
        n = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    else:
        m = max(1, bits // base.bit_length())
        n = base**m - (shape == "power - 1")
    assert to_word(n, base) == to_word_per_digit(n, base)


@pytest.mark.parametrize("base", [2, 3, 10, 4096])
def test_split_words_at_forty_thousand_bits(base):
    m = 40_000 // base.bit_length()
    for n in (base**m - 1, base**m, base**m + 12345, (1 << 40_000) - 1):
        assert numeration._SPLIT_BITS < n.bit_length() <= 40_000
        assert to_word(n, base) == to_word_per_digit(n, base)


def test_from_word_general_digits():
    assert from_word((1, 0, 0, 2), 2) == 10
    assert from_word((1, 3), 2) == 5
    assert from_word((0,), 2) == 0
    assert from_word(to_word(85, 2), 2) == 85


def test_from_word_rejects():
    with pytest.raises(ValueError):
        from_word((), 2)
    with pytest.raises(ValueError):
        from_word((1, -1), 2)
    with pytest.raises(ValueError):
        to_word(-1, 2)


def test_word_str_and_parse():
    assert word_str((1, 0, 1)) == "101"
    assert word_str((1, 12, 0)) == "[1,12,0]"
    assert parse_word("101") == (1, 0, 1)
    assert parse_word("[1,12,0]") == (1, 12, 0)
    assert parse_word(word_str((0,))) == (0,)


def test_digit_stream_frozen_values():
    inv_sqrt2 = 1 / ExactReal.sqrt(2)
    assert digit_stream(inv_sqrt2, 2, 8) == [1, 0, 1, 1, 0, 1, 0, 1]
    third = ExactReal(Fraction(1, 3))
    assert digit_stream(third, 2, 6) == [0, 1, 0, 1, 0, 1]
    assert digit_stream(third, 10, 5) == [3, 3, 3, 3, 3]
    # greedy convention: terminating expansions end in zeros, not (b-1)s
    assert digit_stream(ExactReal(Fraction(3, 4)), 2, 6) == [1, 1, 0, 0, 0, 0]
    assert digit_stream(ExactReal(0), 2, 4) == [0, 0, 0, 0]


def test_digit_stream_matches_oracle_on_surds():
    golden_frac = ((1 + ExactReal.sqrt(5)) / 2).frac()
    for base in (2, 3, 10):
        assert digit_stream(golden_frac, base, 40) == oracle_digits(golden_frac, base, 40)
    v = (ExactReal.sqrt(7) / 3).frac()
    assert digit_stream(v, 2, 64) == oracle_digits(v, 2, 64)


def test_digit_stream_requires_unit_interval():
    with pytest.raises(ValueError):
        digit_stream(ExactReal(1), 2, 4)
    with pytest.raises(ValueError):
        digit_stream(ExactReal(-1) / 2, 2, 4)


@settings(max_examples=200)
@given(n=st.integers(min_value=0, max_value=10**12), base=st.integers(min_value=2, max_value=16))
def test_word_roundtrip(n, base):
    w = to_word(n, base)
    assert from_word(w, base) == n
    assert all(0 <= d < base for d in w)
    assert w == (0,) or w[0] != 0


@settings(max_examples=60)
@given(
    num=st.integers(min_value=0, max_value=999),
    den=st.integers(min_value=1, max_value=1000),
    base=st.sampled_from([2, 3, 10]),
    count=st.integers(min_value=1, max_value=48),
)
def test_rational_digits_match_long_division(num, den, base, count):
    if num >= den:
        num %= den
    x = ExactReal(Fraction(num, den))
    assert digit_stream(x, base, count) == oracle_digits(x, base, count)


@settings(max_examples=60)
@given(
    c=st.fractions(min_value=0, max_value=1, max_denominator=30),
    d=st.sampled_from([2, 3, 5, 7]),
    count=st.integers(min_value=1, max_value=40),
)
def test_digit_partial_sums_bracket_value(c, d, count):
    x = (ExactReal(c) * ExactReal.sqrt(d)).frac()
    digits = digit_stream(x, 2, count)
    partial = ExactReal(0)
    for i, dig in enumerate(digits, start=1):
        partial = partial + ExactReal(Fraction(dig, 2**i))
    diff = x - partial
    assert diff.sign() >= 0
    assert diff < Fraction(1, 2**count)
