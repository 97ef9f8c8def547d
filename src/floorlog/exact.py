"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

Every number is stored as (A + B*sqrt(d)) / C with integer A, B, C and a
squarefree radicand d.  Comparisons, floors and fractional parts are decided
by integer arithmetic alone (squaring plus isqrt), so nothing in this module
ever touches a float.  That property is load-bearing: the sequence machinery
built on top promises exact verdicts, and a single rounding error in a
comparison would silently corrupt them.

Rationals are the d == 1 case (with B == 0).  Arithmetic between two
irrational values with different radicands (say sqrt(2) + sqrt(3)) would leave
the representable set and raises; comparison across radicands is still total,
decided by a two-level sign/squaring analysis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rationalish = Union[int, Fraction, "ExactReal"]


class ParseError(ValueError):
    """Raised when text does not describe a rational or quadratic surd."""


class IncompatibleRadicandsError(ValueError):
    """Raised when arithmetic would mix sqrt(d1) and sqrt(d2), d1 != d2.

    Only arithmetic is restricted this way.  ``compare`` stays total across
    radicands.
    """


def _sign(n) -> int:
    if n > 0:
        return 1
    if n < 0:
        return -1
    return 0


def _sign_quadratic(a, b, d) -> int:
    """Sign of a + b*sqrt(d) for integers a, b and squarefree d >= 2.

    Case analysis on the rational and radical parts; the mixed-sign cases
    reduce to comparing a*a against b*b*d, which is exact.
    """
    if b == 0:
        return _sign(a)
    if b > 0:
        if a >= 0:
            return 1
        return _sign(b * b * d - a * a)
    if a <= 0:
        return -1
    return _sign(a * a - b * b * d)


def floor_quadratic(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d))/c) for integers a, b, d >= 1 and c > 0.

    Precondition: d is not a perfect square unless b == 0.  The quadruple
    need not be reduced.  With s = isqrt(b^2 d), for b > 0 the value sits
    strictly inside ((a+s)/c, (a+s+1)/c), because b*sqrt(d) is irrational;
    a multiple of c strictly between the consecutive integers a+s and
    a+s+1 does not exist, so floor((a+s)/c) is the answer.  The b < 0 case
    mirrors it one unit down, inside ((a-s-1)/c, (a-s)/c).  This is the one
    place in the package that takes an integer square root.
    """
    if b == 0:
        return a // c
    s = isqrt(b * b * d)
    if b > 0:
        return (a + s) // c
    return (a - s - 1) // c


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*d with d squarefree. Returns (s, d)."""
    if n < 1:
        raise ValueError("squarefree_decompose needs n >= 1")
    s, d, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


_INT = r"-?\d+"
_RAT = rf"{_INT}(?:/\d+)?"
_SURD_RE = re.compile(
    rf"^\s*(?:(?P<rat>{_RAT})\s*(?P<op>[+-])\s*)?"
    rf"(?:(?P<coef>{_RAT})\s*\*\s*)?(?P<neg>-)?sqrt\(\s*(?P<rad>\d+)\s*\)\s*$"
)
_RAT_RE = re.compile(rf"^\s*(?P<rat>{_RAT})\s*$")

# squarefree_decompose divides by trial, which takes about sqrt(n) steps on
# a prime radicand; past this cap parse refuses rather than hang
_RADICAND_CAP = 10**12


class ExactReal:
    """A rational number or real quadratic surd, compared and floored exactly.

    Value is (_a + _b*sqrt(_d)) / _c with _c > 0, _d squarefree, _d == 1
    exactly when the value is rational (then _b == 0), and gcd(_a,_b,_c) == 1.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, value: Rationalish = 0):
        if isinstance(value, ExactReal):
            self._a, self._b, self._c, self._d = value._a, value._b, value._c, value._d
        elif isinstance(value, int):
            self._a, self._b, self._c, self._d = value, 0, 1, 1
        elif isinstance(value, Fraction):
            self._a, self._b, self._c, self._d = value.numerator, 0, value.denominator, 1
        else:
            raise TypeError(f"cannot build ExactReal from {type(value).__name__}")

    # -- construction ------------------------------------------------------

    @classmethod
    def _raw(cls, a, b, c, d) -> "ExactReal":
        """Normalize and wrap an (a + b*sqrt(d))/c quadruple of integers."""
        if c == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 1:
            raise ValueError("radicand must be positive")
        if b == 0:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        out = object.__new__(cls)
        out._a, out._b, out._c, out._d = a, b, c, d
        return out

    @classmethod
    def sqrt(cls, n: int) -> "ExactReal":
        """Exact sqrt of a nonnegative integer; sqrt(8) becomes 2*sqrt(2)."""
        if n < 0:
            raise ValueError("sqrt of a negative integer is not real")
        if n == 0:
            return cls(0)
        s, d = squarefree_decompose(n)
        return cls._raw(0, s, 1, d) if d > 1 else cls(s)

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        """Parse "7", "-1/3", "sqrt(8)", "1/2+1/2*sqrt(5)", "1+2*sqrt(4)".

        The radicand is normalized squarefree and a vanishing surd part
        collapses to a rational (1+2*sqrt(4) parses as 5).  Radicands above
        10**12 are refused.
        """
        if not isinstance(text, str):
            raise ParseError(f"expected a string, got {type(text).__name__}")
        m = _RAT_RE.match(text)
        if m:
            return cls(_parse_rat(m.group("rat")))
        m = _SURD_RE.match(text)
        if m:
            rat = _parse_rat(m.group("rat")) if m.group("rat") else Fraction(0)
            coef = _parse_rat(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("op") == "-":
                coef = -coef
            if m.group("neg"):
                coef = -coef
            rad = _parse_int(m.group("rad"))
            if rad <= 0:
                raise ParseError(f"radicand must be positive in {text!r}")
            if rad > _RADICAND_CAP:
                raise ParseError(
                    f"radicand {rad} exceeds the cap {_RADICAND_CAP} in {text!r}"
                )
            return cls(rat) + cls(coef) * cls.sqrt(rad)
        raise ParseError(f"cannot parse {text!r} as a rational or quadratic surd")

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def radicand(self) -> int:
        """The squarefree d in a + c*sqrt(d); 1 for rationals."""
        return self._d

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def radical_coeff(self) -> Fraction:
        return Fraction(self._b, self._c)

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._a, self._c)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ExactReal | None":
        if isinstance(value, ExactReal):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactReal(value)
        return None

    def _common_radicand(self, other: "ExactReal"):
        if self._d == other._d:
            return self._d
        if self._d == 1:
            return other._d
        if other._d == 1:
            return self._d
        raise IncompatibleRadicandsError(
            f"cannot combine sqrt({self._d}) with sqrt({other._d}) arithmetically"
        )

    def __add__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        return ExactReal._raw(
            self._a * o._c + o._a * self._c,
            self._b * o._c + o._b * self._c,
            self._c * o._c,
            d,
        )

    __radd__ = __add__

    def __neg__(self) -> "ExactReal":
        return ExactReal._raw(-self._a, -self._b, self._c, self._d)

    def __sub__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        return ExactReal._raw(
            self._a * o._a + self._b * o._b * d,
            self._a * o._b + self._b * o._a,
            self._c * o._c,
            d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "ExactReal":
        if self._a == 0 and self._b == 0:
            raise ZeroDivisionError("division by zero")
        norm = self._a * self._a - self._b * self._b * self._d
        return ExactReal._raw(self._c * self._a, -self._c * self._b, norm, self._d)

    def __truediv__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._common_radicand(o)
        return self * o._inverse()

    def __rtruediv__(self, other) -> "ExactReal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        return _sign_quadratic(self._a, self._b, self._d)

    def compare(self, other: Rationalish) -> int:
        """Total three-way comparison, exact, valid across radicands."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare ExactReal with {type(other).__name__}")
        if self._d == o._d or self._d == 1 or o._d == 1:
            return (self - o).sign()
        # sign of P + Q*sqrt(d1) - R*sqrt(d2) with Q, R nonzero, d1 != d2.
        p = self._a * o._c - o._a * self._c
        q = self._b * o._c
        r = o._b * self._c
        left = _sign_quadratic(p, q, self._d)  # never 0: q != 0
        if r > 0 and left <= 0:
            return -1
        if r < 0 and left >= 0:
            return 1
        # both sides share a sign; compare squares, again a quadratic sign.
        inner = _sign_quadratic(
            p * p + q * q * self._d - r * r * o._d, 2 * p * q, self._d
        )
        return inner if left > 0 else -inner

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._c == o._c and self._d == o._d

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._c))
        return hash((self._a, self._b, self._c, self._d))

    # -- floor and friends --------------------------------------------------

    def __floor__(self) -> int:
        """Exact floor via one integer square root (see floor_quadratic)."""
        return floor_quadratic(self._a, self._b, self._d, self._c)

    def __ceil__(self) -> int:
        return -((-self).__floor__())

    def floor(self) -> int:
        return self.__floor__()

    def ceil(self) -> int:
        return self.__ceil__()

    def frac(self) -> "ExactReal":
        """Fractional part, always in [0, 1); frac(-1/3) is 2/3."""
        return self - self.__floor__()

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        if self._b == 0:
            return str(self.rational_part)
        coef = self.radical_coeff
        root = f"sqrt({self._d})" if abs(coef) == 1 else f"{abs(coef)}*sqrt({self._d})"
        if self._a == 0:
            return root if coef > 0 else f"-{root}"
        joiner = "+" if coef > 0 else "-"
        return f"{self.rational_part}{joiner}{root}"

    def __repr__(self) -> str:
        return f"ExactReal({str(self)!r})"


def over_common_denominator(
    *values: ExactReal,
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Write values as (a_i + b_i*sqrt(d))/c over one c > 0 and one radicand d.

    Returns (c, d, ((a_1, b_1), ...)) with c the least common multiple of
    the denominators and d the shared radicand, 1 when every value is
    rational.  Integer loops that step such numbers by integer affine maps
    start from this form and never build another ExactReal.
    """
    c, d = 1, 1
    for x in values:
        if x._d != 1:
            if d not in (1, x._d):
                raise IncompatibleRadicandsError(
                    f"cannot combine sqrt({d}) with sqrt({x._d}) over one denominator"
                )
            d = x._d
        c = c * x._c // gcd(c, x._c)
    return c, d, tuple((x._a * (c // x._c), x._b * (c // x._c)) for x in values)


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:  # past the interpreter's int-conversion digit limit
        raise ParseError(f"{len(token)}-digit integer literal is too long") from None


def _parse_rat(token: str) -> Fraction:
    token = token.strip()
    if "/" in token:
        num, den = (_parse_int(part) for part in token.split("/"))
        if den == 0:
            raise ParseError(f"zero denominator in {token!r}")
        return Fraction(num, den)
    return Fraction(_parse_int(token))

