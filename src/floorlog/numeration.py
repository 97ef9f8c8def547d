"""Base-b words and greedy digit expansions.

Words are tuples of nonnegative ints, most significant digit first.  A word
produced by ``to_word`` is canonical (digits < b, no leading zero, and 0 is
the single digit 0), but ``from_word`` deliberately accepts digits >= b as
well: the jump-digit sequences feeding this module live on the alphabet
{0, ..., 2b-2}.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact import ExactReal

Word = tuple[int, ...]


def to_word(n: int, base: int) -> Word:
    """Canonical base-b expansion of n >= 0, MSD first; (0)_b is (0,)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 0:
        raise ValueError("to_word expects a nonnegative integer")
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    return tuple(reversed(digits))


def from_word(digits: Iterable[int], base: int) -> int:
    """Horner evaluation of a digit word; digits may exceed base-1.

    from_word("1002", 2) is 10 and a digit word like (1, 3) in base 2
    evaluates to 5.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    value = 0
    seen = False
    for d in digits:
        d = int(d)
        if d < 0:
            raise ValueError("digits must be nonnegative")
        value = value * base + d
        seen = True
    if not seen:
        raise ValueError("empty digit word has no value")
    return value


def as_digits(w) -> Word:
    """A digit word as a tuple of ints; a string like "102" is read digit by digit."""
    return tuple(map(int, w))


def word_str(word: Sequence[int]) -> str:
    """Compact rendering: "1010" when digits fit one glyph, else "[1,12,0]"."""
    if not word or (min(word) >= 0 and max(word) <= 9):
        return "".join(map(str, word))
    return "[" + ",".join(map(str, word)) + "]"


def parse_word(text: str) -> Word:
    """Inverse of word_str for both renderings."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated digit list {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(int(t) for t in inner.split(","))
    if not text:
        return ()
    if not text.isdigit():
        raise ValueError(f"cannot read {text!r} as a digit word")
    return tuple(int(ch) for ch in text)


def digit_stream(x: ExactReal, base: int, count: int) -> list[int]:
    """First ``count`` greedy base-b digits of x in [0, 1), MSD first.

    They are the base-b digits of floor(x * b^count), zero-padded on the
    left to ``count``, so the whole prefix costs one exact floor.  Greedy
    means terminating expansions get a tail of zeros, never of (b-1)s, which
    keeps digit tails aligned with fractional parts: 0.d1 d2 ... read back
    through from_word always equals floor-scaled x.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    x = ExactReal(x)
    if x.sign() < 0 or x >= 1:
        raise ValueError("digit_stream needs 0 <= x < 1")
    block = (x * base**count).__floor__()
    # x < 1 makes block < b**count, so its word fits the prefix
    word = to_word(block, base) if block else ()
    return [0] * (count - len(word)) + list(word)
