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


# above this many bits to_word splits n by powers base^(2^i) rather than
# peeling one digit per divmod, and the parts it splits down to are this
# small; on a 2-CPU x86 box, CPython 3.11, splitting won in every base from
# 2 to 4096 from about 800 bits on (2.9x in base 2 at 2000 bits, 8x in
# base 4096 at 40000), and below 600 bits it lost in the large bases
_SPLIT_BITS = 512


def to_word(n: int, base: int) -> Word:
    """Canonical base-b expansion of n >= 0, MSD first; (0)_b is (0,)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 0:
        raise ValueError("to_word expects a nonnegative integer")
    if n == 0:
        return (0,)
    if n.bit_length() > _SPLIT_BITS:
        return _split_word(n, base)
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    return tuple(reversed(digits))


def _split_word(n: int, base: int) -> Word:
    """to_word by divide and conquer over the powers base^(2^i).

    Peeling digits costs one divmod of the whole number per digit, so
    quadratic time in the digit count times the size.  Here a part below
    base^(2^(i+1)) splits by base^(2^i) into a high and a low part, each
    below base^(2^i): the low part fills exactly 2^i digits, zero-padded,
    and so does the high part unless it leads the word.  Parts of at most
    _SPLIT_BITS bits peel their digits in to_word; the split costs a few
    divisions of large numbers per level.
    """
    powers = [base]  # powers[i] = base^(2^i), the last one squared above n
    while 2 * powers[-1].bit_length() - 1 <= n.bit_length():
        powers.append(powers[-1] * powers[-1])
    digits: list[int] = []

    def emit(part: int, i: int, pad: bool) -> None:
        """Digits of part < base^(2^(i+1)), padded to 2^(i+1) of them if pad."""
        if i < 0 or part.bit_length() <= _SPLIT_BITS:
            word = to_word(part, base)
            if pad:
                digits.extend([0] * ((1 << (i + 1)) - len(word)))
            digits.extend(word)
            return
        high, part = divmod(part, powers[i])
        leads = high == 0 and not pad
        if not leads:
            emit(high, i - 1, pad)
        emit(part, i - 1, not leads)

    emit(n, len(powers) - 1, False)
    return tuple(digits)


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
