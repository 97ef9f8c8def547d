"""Digits carried by consecutive jump positions.

For a normalized instance the difference r_k = c_{k+1} - base*c_k is an
integer in {0, ..., 2*base-2}: it tells how the jump positions read off,
digit by digit, a perturbed copy of the expansion of frac(1/alpha).  Each
term is pinned down by two exact threshold tests

    P_k:  frac(base^k / alpha)  >=  frac(beta / alpha)

which sort index k into one of four shapes relative to the digit
a = digit k+1 of frac(1/alpha):

    tag   (P_k, P_{k+1})   r_k
    A     (T, T)           a
    B     (T, F)           a - 1        (forces a >= 1)
    C     (F, T)           base + a
    D     (F, F)           base + a - 1

The module evaluates r_k by independent routes, classifies every index,
and decides ultimate periodicity: a replayable modular certificate when
alpha is rational, a theorem-backed refusal when alpha is an irrational
surd.  For a surd the remainder machine r_digits takes one exact floor
per digit while its numbers are short, and once they are long runs a
block of digits on fixed-point numbers per exact step in base base^L,
which checks the block's digits.  DigitSource is the interface
every digit stream is read through; InstanceTables serves the stream
c_1, r_1, r_2, ... through it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, takewhile
from typing import NamedTuple

from .exact import _sign_quadratic, floor_quadratic, over_common_denominator
from .numeration import digit_stream
from .sequences import ConsistencyError, JumpData, NormalizedInstance, jump_positions

_TAG_BY_TESTS = {
    (True, True): "A",
    (True, False): "B",
    (False, True): "C",
    (False, False): "D",
}


# ---------------------------------------------------------------------------
# the two evaluation routes


def r_direct(norm: NormalizedInstance, k: int) -> int:
    """Closed form: floor(base*frac((base^k-beta)/alpha) + (base-1)*frac(beta/alpha))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    b = norm.base
    body = ((b**k - norm.beta) / norm.alpha).frac()
    tail = (norm.beta / norm.alpha).frac()
    return (b * body + (b - 1) * tail).floor()


def r_recur(norm: NormalizedInstance, k: int) -> int:
    """Difference of fresh jump positions: c_{k+1} - base*c_k.

    Every floor is recomputed from the k-th power directly, so this route
    shares no intermediate state with r_direct; agreement between the two is
    a real cross-check, not an algebraic tautology.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def c(j: int) -> int:
        return ((norm.base**j - norm.beta) / norm.alpha).floor()

    return c(k + 1) - norm.base * c(k)


# the block schedule of r_digits' surd branch: L digits on fixed-point
# numbers of P = bitlen(base^L) + guard + 4 bits, then one exact step in
# base base^L.  On a 2-CPU x86 box, CPython 3.11, r_stream at the
# perfbench surd-deep depths (1500-3700 bits) was fastest at L = 64
# (L = 32 up to 16 % slower, L = 128 up to 9 %, L = 256 up to 56 %); at
# k = 10^4 L = 128 ran 10-20 % faster than L = 64, which already ran
# 6-19x faster than the per-digit machine.  The guard makes a straddle
# suspect about once in 2^guard digits
_BLOCK_DIGITS = 64
_BLOCK_GUARD_BITS = 64


def r_digits(norm: NormalizedInstance) -> Iterator[int]:
    """The terms r_1, r_2, ... of r, generated by the fractional-remainder machine.

    Carries g_k = frac((base^k - beta)/alpha) across steps:
    z = base*g + tau, r_k = floor(z), next g = frac(z), where
    tau = (base-1)*frac(beta/alpha).  The machine runs on integers alone.
    g is held as (A + B*sqrt(d))/C over one fixed denominator C, so a step
    is B' = base*B + t for a fixed t and A' = base*A + const - r*C, with
    r = floor((base*A + const + B'*sqrt(d))/C), one call of the exact
    floor kernel floor_quadratic, which takes B' of either sign or zero.
    B passes zero at most once: B' - x* = base*(B - x*) for the fixed
    point x* = -t/(base - 1), so B_k = x* + base^k*(B_0 - x*) is monotone
    in k.

    Blocks.  Once s = floor(|B|*sqrt(d)) reaches floor_s, the machine
    runs L = _BLOCK_DIGITS digits per exact step: L digits on
    fixed-point numbers read off its own state, then one exact step in
    base base^L that checks them and moves the state L digits on.  Next
    to A and B it then carries a square-root spigot, s and the remainder
    R = B^2 d - s^2, taken by one floor_quadratic call on entry.

    - The start of a block.  Put phi = frac(|B|*sqrt(d)), so that
      R = (|B|*sqrt(d) - s)*(|B|*sqrt(d) + s) = phi*(2*s + phi) and
      phi = R/(2*s + phi) lies in (R/(2*s + 1), R/(2*s)].  With
      P = bitlen(base^L) + guard + 4 (guard = _BLOCK_GUARD_BITS) and
      F = floor(R*2^P/(2*s + 1)), 2^P*phi > F, and 2^P*phi <=
      R*2^P/(2*s + 1) * (1 + 1/(2*s)) < F + 1 + 2^P/(2*s) <= F + 3/2
      once s >= 2^P (as R*2^P/(2*s + 1) < 2^P*phi < 2^P).  So 2^P*phi
      lies in [F, F + 2).  For B > 0, g = (y + phi)/C with y = A + s;
      for B < 0, g = (y + 1 - phi)/C with y = A - s - 1, and 2^P*(1 - phi)
      lies in (2^P - F - 2, 2^P - F].  y is small, since g is in [0, 1).
      Then G = ((y << P) + F) // C, or ((y << P) + 2^P - F - 2) // C,
      satisfies G <= 2^P*g < G + 1 + 2/C <= G + 3.  One root per call,
      floor(t*sqrt(d)*2^P), gives T = (const*2^P + that root) // C with
      2^P*tau in [T, T + 2) the same way.
    - Each digit.  z = base*G + T, the next G = z mod 2^P and r = z >> P.
      If 2^P*g lies in [G, G + e), then 2^P*(base*g + tau) lies in
      [z, z + base*e + 2), so after i digits the error is below
      3*base^i + 2*(base^i - 1)/(base - 1) < 5*base^i <= 5*base^L <
      2^(P - guard).  r is the true floor of base*g + tau unless the
      error carries z across a multiple of 2^P, which needs
      z mod 2^P >= 2^P - 2^(P - guard): the top guard bits of the new G
      all ones.  Such a digit abandons the block, and the per-digit
      step redoes it and the next L - 1 digits from the block's start,
      whose state is untouched.  G may start at -1 or -2; a z below
      zero then leaves a G with its top bits all ones and is caught by
      the same test.
    - The end of a block.  Unrolling z = base*g + tau L times gives
      base^L*g_k + (base^L - 1)*frac(beta/alpha) = R_L + g_(k+L), where
      R_L is the Horner value of r_k .. r_(k+L-1) in base base; g lies
      in [0, 1), so R_L is the floor and g_(k+L) the fractional part.
      That is one step of this machine in base base^L, with
      (base^L - 1)*frac(beta/alpha) in place of tau: the constants
      const_L = (base^L - 1)/(base - 1)*const and
      t_L = (base^L - 1)/(base - 1)*t.  The spigot steps with it: while
      B keeps its sign, |B'| = base^L*|B| + tau' with tau' = +-t_L, so
      s' = s0 + delta with s0 = base^L*s + floor(tau'*sqrt(d)) and
      0 <= delta <= base^L, and R0 = B'^2 d - s0^2 follows from R with
      the constants of _block_constants.  delta is the largest integer
      with delta*(2*s0 + delta) <= R0.  Put D = 2*s0 + base^L + 1 and
      e = floor(R0/D).  e never overshoots: R0 < (delta + 1)*(2*s0 +
      delta + 1) <= (delta + 1)*D.  And R0 >= delta*(2*s0 + delta) gives
      R0/D >= delta - (base^L + 1)^2/(4*D), so once D > (base^L + 1)^2/4
      e is delta or delta - 1, and after s0 + e and R0 - e*(2*s0 + e)
      one unit step at most is left.  The step gives the exact state L
      digits on and R_L, which must equal the Horner value of the
      block's digits, or ConsistencyError is raised.
    - The threshold.  Blocks start only from s >= floor_s =
      max(2^P, U // base^L + base^L + 1), U the larger of
      |floor(+-t_L*sqrt(d))|; the first term is almost always the larger,
      and until the block constants exist floor_s is 2^P.  The test is
      B^2 d >= floor_s^2, without a root.  As U >= |t_L|*sqrt(d),
      base^L*s > U + base^(2L) follows, and with it two facts.  First,
      the sign: |B|*sqrt(d) >= s > |t_L|*sqrt(d)/base^L, so
      |B| > (1 - base^-i)*|t|/(base - 1) for 0 <= i <= L, and every
      B_(k+i) = base^i*B + (base^i - 1)/(base - 1)*t of the block is
      nonzero with the sign of B.  A B about to change sign or hit zero
      is near the fixed point x* = -t/(base - 1), where |B|*sqrt(d) is
      about U/base^L, below floor_s, so those digits take the per-digit
      step.  Second, s0 > base^(2L), so D > (base^L + 1)^2/4.  The exact
      step thus costs a few multiplications by numbers of L*log2(base)
      bits and one division with a quotient that size, in place of L
      digit steps.
    - Cost.  The block constants (three roots) are formed on the first
      entry into block mode, so a short read pays nothing for them, and
      each entry takes one root for s.  A per-digit term is one integer
      square root of about 2*k*log2(base) bits at depth k.  It runs for
      the first P/log2(base) or so digits, near a sign change of B, and
      for the L digits after an abandoned block, which at depth k thus
      cost L such roots.

    A rational stream (d == 1, so B = t = 0 throughout) takes its own
    loop, one divmod per term: r, A' = divmod(base*A + const, C).  A stays
    below C, so a term costs a few operations on numbers of the size of
    the slope's denominators, with no floor_quadratic call and no spigot.

    jump_positions and this machine both carry a remainder, and both
    run blocks of 64 levels on fixed-point numbers, but not on the same
    state, and not by the same rule.  jump_positions takes two
    fixed-point roots once per call, of q*sqrt(d) and f*sqrt(d), the
    radical parts of 1/alpha and beta/alpha over C.  It steps
    H_k = A_k*2^M + W_k, the rational part A_k of the numerator of
    (base^k - beta)/alpha over C above a fixed-point lower bound W_k of
    its radical part, keeps only H_k mod C*2^M, an integer that holds
    no root of its own, and reads r_k off the carries out of it with a
    correction where the bound straddles an integer.  There
    floor_quadratic on (A_k, B_k) gives c_k, and the closed form of the
    remainder, formed from base^k, must match the carried one, as it
    must again at the last level.  Its blocks read their fixed-point
    fraction off the top bits of that remainder and check their carries
    by one step of the same carry rule in base base^L; they are
    abandoned wherever the bound might straddle, so every straddle
    takes the per-level fallback.  On a rational slope it divides the
    whole numerator base^k*p - e afresh at every k.  This machine
    carries an exact quadratic remainder: A below C with B, and in block
    mode the integer root s of B^2 d with its remainder.  It steps them
    per digit or per block, each digit a floor of the exact remainder,
    never a carry out of a bound, and its blocks read their fraction
    off s and its remainder and check their digits by a spigot step.
    Its one fixed-point root is of t, the radical part of
    (base - 1)*frac(beta/alpha), and it never looks at the jump table.
    The two routes share only the exact floor kernel, never a root
    value, a remainder, a block constant or a stepping rule, so
    comparing them is a real cross-check, not one computation with
    itself.
    """
    b = norm.base
    tail = (norm.beta / norm.alpha).frac()
    g = ((b - norm.beta) / norm.alpha).frac()
    den, d, ((a, rad), (ta, tb)) = over_common_denominator(g, tail)
    shift, t = (b - 1) * ta, (b - 1) * tb
    if d == 1:
        while True:
            r, a = divmod(b * a + shift, den)
            yield r
    length, guard = _BLOCK_DIGITS, _BLOCK_GUARD_BITS
    floor_s = 1 << ((b**length).bit_length() + guard + 4)
    least = floor_s * floor_s  # B^2 d >= least exactly when s >= floor_s
    block = None  # the base-b^L constants, formed on the first entry
    exact = 0  # per-digit steps left before the next block may start
    while True:
        if exact:
            exact -= 1
        elif rad * rad * d >= least:
            if block is None:
                block = _block_constants(b, d, den, ta, tb, length, guard)
                floor_s = block.floor_s
                least = floor_s * floor_s
            s = floor_quadratic(0, abs(rad), d, 1)
            rem = rad * rad * d - s * s
            while s >= floor_s:
                digits = _block_digits(block, a, rad, s, rem)
                if digits is None:
                    exact = length - 1
                    break
                a, rad, s, rem, value = _block_step(block, a, rad, s, rem)
                horner = 0
                for r in digits:
                    horner = horner * b + r
                if horner != value:
                    raise ConsistencyError(
                        f"r_digits: a block of {length} digits reads {horner}, "
                        f"its exact step {value}")
                yield from digits
        num, rad = b * a + shift, b * rad + t
        r = floor_quadratic(num, rad, d, den)
        yield r
        a = num - r * den


class _Block(NamedTuple):
    """The constants of r_digits' block schedule (see its docstring)."""

    base: int
    length: int  # L, digits per block
    bits: int  # P, the fixed-point scale
    ceiling: int  # 2^P - 2^(P - guard): a fraction at or above it may straddle
    step: int  # T, with 2^P*tau in [T, T + 2)
    den: int
    power: int  # base^L
    shift: int  # const_L = (base^L - 1)/(base - 1)*const
    t: int  # t_L = (base^L - 1)/(base - 1)*t
    square: int  # base^(2L)
    lift: int  # 2*base^L*t_L*d
    spigot: dict  # per sign of B: (2*base^L*u, u, tau^2 d - u^2), tau = +-t_L
    floor_s: int  # the least s a block starts from


def _block_constants(b: int, d: int, den: int, ta: int, tb: int,
                     length: int, guard: int) -> _Block:
    """The block constants of r_digits for base b: three floor_quadratic calls.

    Per sign of B the spigot holds (2*base^L*u, u, tau^2 d - u^2) with
    tau = +-t_L and u = floor(tau*sqrt(d)): R0 = base^(2L)*R +
    2*base^L*(B*t_L*d - s*u) + tau^2 d - u^2, as |B|*tau = B*t_L.
    """
    power = b**length
    bits = power.bit_length() + guard + 4
    t = (b - 1) * tb
    step = (((b - 1) * ta << bits) + floor_quadratic(0, t << bits, d, 1)) // den
    shift_l, t_l = (power - 1) * ta, (power - 1) * tb
    spigot = {}
    for positive, tau in ((True, t_l), (False, -t_l)):
        u = floor_quadratic(0, tau, d, 1)
        spigot[positive] = (2 * power * u, u, tau * tau * d - u * u)
    widest = max(abs(u) for _, u, _ in spigot.values())
    return _Block(
        base=b, length=length, bits=bits, ceiling=(1 << bits) - (1 << (bits - guard)),
        step=step, den=den, power=power, shift=shift_l, t=t_l, square=power * power,
        lift=2 * power * t_l * d, spigot=spigot,
        floor_s=max(1 << bits, widest // power + power + 1),
    )


def _block_digits(block: _Block, a: int, rad: int, s: int, rem: int) -> list[int] | None:
    """The block's L digits on P-bit fixed-point numbers, or None if one may straddle."""
    bits = block.bits
    frac = (rem << bits) // (2 * s + 1)
    if rad > 0:
        g = (((a + s) << bits) + frac) // block.den
    else:
        g = (((a - s) << bits) - frac - 2) // block.den
    b, step, ceiling = block.base, block.step, block.ceiling
    mask = (1 << bits) - 1
    digits = []
    for _ in range(block.length):
        z = b * g + step
        g = z & mask
        if g >= ceiling:
            return None
        digits.append(z >> bits)
    return digits


def _block_step(block: _Block, a: int, rad: int, s: int, rem: int):
    """One exact step in base b^L from (A, B, s, R): the next A, B, s, R and the block value."""
    power, den = block.power, block.den
    lift_u, u, e = block.spigot[rad > 0]
    rem = block.square * rem + block.lift * rad - lift_u * s + e
    s = power * s + u
    twice = 2 * s
    delta = rem // (twice + power + 1)
    rem -= delta * (twice + delta)
    s += delta
    if rem > 2 * s:  # at most one unit step, as s >= floor_s (r_digits' docstring)
        rem -= 2 * s + 1
        s += 1
    num = power * a + block.shift
    value = (num + s) // den if rad > 0 else (num - s - 1) // den
    return num - value * den, power * rad + block.t, s, rem, value


def r_stream(norm: NormalizedInstance, k_max: int) -> list[int]:
    """First k_max terms of r_digits(norm)."""
    return list(islice(r_digits(norm), k_max))


def r_from_jumps(jumps: JumpData, base: int) -> list[int]:
    """r_1..r_{k_max-1} of a jump table in base base, as a list.

    Both loops of jump_positions (see its docstring) store these digits
    as they come off, so the list is compared with r_stream's as it is.
    """
    if jumps.base != base:
        raise ValueError(f"a jump table in base {jumps.base} read in base {base}")
    return list(jumps.r)


def residue_digits(norm: NormalizedInstance, count: int) -> tuple[list[int], list[int]]:
    """r_1..r_count and h_1..h_count of a rational slope, off t_k = base^k mod p.

    h_k is 1 when (base^k - beta)/alpha is an integer and 0 otherwise.
    With alpha = p/q in lowest terms, put sigma_k = q*t_k mod p, which is
    q*base^k mod p; q is invertible mod p, so sigma_k and t_k determine
    each other, and the loop steps sigma_k in place of t_k.  Writing
    q*base^k = p*m_k + sigma_k with m_k an integer,

        (base^k - beta)/alpha = (q*base^k - q*beta)/p = m_k + (sigma_k - q*beta)/p.

    The instance is normalized, so 0 <= q*beta < p, and 0 <= sigma_k < p;
    the last term therefore lies strictly between -1 and 1.  It is
    nonnegative exactly when sigma_k >= q*beta, that is (sigma_k being an
    integer) when sigma_k >= theta = ceil(q*beta), and it is an integer
    exactly when it is 0.  So

        c_k = m_k - 1 + P_k,  P_k = [sigma_k >= theta],
        h_k = [q*beta is an integer and sigma_k == q*beta].

    When beta = s/u has a denominator of its own, q*beta = q*s/u is an
    integer only when u divides q (s and u coprime); otherwise no k is
    ever hit.  A surd beta is never hit, and theta is one exact ceiling
    taken before the loop, so each step's test against the fixed surd
    beta*q/p is a comparison of two integers.

    For r: q*base^(k+1) = base*p*m_k + base*sigma_k, so sigma_(k+1) =
    base*sigma_k mod p and m_(k+1) - base*m_k = a_k = floor(base*sigma_k/p),
    which is digit k+1 of frac(q/p) = frac(1/alpha).  Hence

        r_k = c_(k+1) - base*c_k = a_k + base*(1 - P_k) - (1 - P_(k+1)),

    the four shapes of the module docstring, P_k being the threshold test
    there.  r_k and h_k are thus functions of sigma_k, hence of t_k, and a
    step is one divmod of base*sigma_k by p: numbers below base*p at every
    k.  No state is shared with r_digits, which carries the remainder of
    (base^k - beta)/alpha over the common denominator of its fractions,
    nor with jump_positions, which divides the whole numerator.
    """
    b = norm.base
    digits, tests, h = _residue_steps(norm, count)
    r = [a + (0 if pk else b) - (0 if pk1 else 1)
         for a, pk, pk1 in zip(digits, tests, tests[1:])]
    return r, h


def _residue_steps(norm: NormalizedInstance, count: int) -> tuple[list[int], list[bool], list[int]]:
    """a_1..a_count, P_1..P_(count+1) and h_1..h_count of a rational slope.

    a_k is digit k+1 of frac(1/alpha); the steps of sigma_k, the
    threshold theta and the hit test are those of residue_digits'
    docstring, one divmod per k in one loop.
    """
    slope = norm.alpha.as_fraction()
    p, q, b = slope.numerator, slope.denominator, norm.base
    scaled = norm.beta * q
    theta = scaled.ceil()
    exact = scaled.is_rational and scaled.as_fraction().denominator == 1
    hit = theta if exact else -1  # sigma is never negative
    sigma = q * b % p
    digits, tests, hits = [], [sigma >= theta], []
    for _ in range(count):
        a, following = divmod(b * sigma, p)
        digits.append(a)
        tests.append(following >= theta)
        hits.append(1 if sigma == hit else 0)
        sigma = following
    return digits, tests, hits


# ---------------------------------------------------------------------------
# threshold tests and classification


def inverse_slope_digits(norm: NormalizedInstance, count: int) -> list[int]:
    """First count digits of frac(1/alpha) in the instance base."""
    return digit_stream((1 / norm.alpha).frac(), norm.base, count)


class _RkFields(NamedTuple):
    k: int
    r: int
    case_tag: str
    pk: bool
    pk1: bool
    digit: int
    base: int


class RkRecord(_RkFields):
    """One classified term of the jump-digit sequence.

    digit is entry k+1 of the expansion of frac(1/alpha); case_tag encodes
    which of the four shapes (see module docstring) produced r.  The record
    is an immutable named tuple that revalidates itself on construction,
    _make and _replace included.
    """

    __slots__ = ()

    def __new__(cls, k, r, case_tag, pk, pk1, digit, base):
        tag = _TAG_BY_TESTS[(pk, pk1)]
        if tag != case_tag:
            raise ConsistencyError(f"k={k}: tag {case_tag!r} does not follow from tests {tag!r}")
        expected = digit + (0 if pk else base) - (0 if pk1 else 1)
        if r != expected:
            raise ConsistencyError(f"k={k}: case {case_tag} predicts r={expected}, got {r}")
        if not 0 <= r <= 2 * base - 2:
            raise ConsistencyError(f"k={k}: r={r} outside 0..{2*base-2}")
        return tuple.__new__(cls, (k, r, case_tag, pk, pk1, digit, base))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# digits of frac(1/alpha) that classify_range reads past digit k_max + 1,
# so that even P_(k_max+1) compares this many digits before a tie falls
# back to the exact sign test
_TAIL_GUARD_DIGITS = 64


def classify_range(norm: NormalizedInstance, k_max: int) -> list[RkRecord]:
    """Classify k = 1..k_max, off one exact floor of base^(k_max+1+g)/alpha for a surd.

    Write X = 1/alpha and Y = beta/alpha, so (base^k - beta)/alpha =
    base^k X - Y.  Splitting both terms into floor and fractional part,

        c_k = floor(base^k X) - floor(Y) - [frac(base^k X) < frac(Y)],

    because base^k X - Y is the integer floor(base^k X) - floor(Y) plus
    frac(base^k X) - frac(Y), which lies in (-1, 1) and so has floor 0
    when it is nonnegative and -1 otherwise.  The bracket is 1 - P_k.
    Normalization puts Y in [0, 1), and floor(base^(k+1) X) -
    base*floor(base^k X) = floor(base*frac(base^k X)) is digit k+1 of
    frac(X), so r_k = c_(k+1) - base*c_k takes the four shapes of the
    module docstring.

    For an irrational alpha both parts come off greedy digit expansions.
    With x_0 x_1 ... the digits of frac(X) (inverse_slope_digits), digit
    k+1 is x_k, and frac(base^k X) = 0.x_k x_(k+1) ..., the digit tail
    past place k.  One exact floor gives x_0 .. x_(k_max+g), g =
    _TAIL_GUARD_DIGITS.  P_k compares that tail with the digits y_0 y_1
    ... of frac(Y) from digit_stream, read to g digits and extended on
    a tie.  The first place j with x_(k+j) != y_j decides P_k strictly:
    if x_(k+j) > y_j, then frac(base^k X) >= (common prefix) +
    (y_j + 1)*base^-(j+1), while the digits of frac(Y) past place j sum
    to strictly less than base^-(j+1), since a greedy expansion never
    ends in an unbroken tail of base - 1 digits; so frac(base^k X) >
    frac(Y), and the case x_(k+j) < y_j mirrors it.  Tails that agree
    through every digit read, at least g of them, are settled by the
    exact sign test of _threshold_exact; for an irrational alpha an
    endless agreement means base^k X - Y is an integer, an integrality
    hit, which happens at one k at most.  Past the one floor a step costs
    a few digit comparisons, and the route shares with jump_positions and
    r_digits only the exact floor kernel, never a root value, a remainder
    or a stepping rule.

    A rational alpha = p/q reads the residue kernel of residue_digits:
    there frac(base^k X) = sigma_k/p with sigma_k = q*base^k mod p, and
    frac(Y) = q*beta/p, so digit k+1 is floor(base*sigma_k/p) and P_k is
    sigma_k >= ceil(q*beta), each step one divmod on numbers below
    base*p.
    """
    b = norm.base
    if norm.alpha.is_rational:
        digits, tests, _ = _residue_steps(norm, k_max)
    else:
        digits, tests = _threshold_tails(norm, (norm.beta / norm.alpha).frac(), k_max)
    return [
        RkRecord(k, digit + (0 if pk else b) - (0 if pk1 else 1), _TAG_BY_TESTS[(pk, pk1)],
                 pk, pk1, digit, b)
        for k, (digit, pk, pk1) in enumerate(zip(digits, tests, tests[1:]), 1)
    ]


def _threshold_tails(norm: NormalizedInstance, offset, k_max: int):
    """Digits 2..k_max+1 of frac(1/alpha) and P_1..P_(k_max+1), by digit tails."""
    b = norm.base
    count = k_max + 1 + _TAIL_GUARD_DIGITS
    xs = inverse_slope_digits(norm, count)
    ys = digit_stream(offset, b, _TAIL_GUARD_DIGITS)
    tests = []
    for k in range(1, k_max + 2):
        j = 0
        while xs[k + j] == ys[j]:
            j += 1
            if k + j == count:
                tests.append(_threshold_exact(norm, offset, k))
                break
            if j == len(ys):
                ys = digit_stream(offset, b, min(2 * j, count))
        else:
            tests.append(xs[k + j] > ys[j])
    return xs[1 : k_max + 1], tests


def _threshold_exact(norm: NormalizedInstance, offset, k: int) -> bool:
    """P_k as the exact sign test of frac(base^k/alpha) - frac(beta/alpha)."""
    den, d, ((p, q), (e, f)) = over_common_denominator(1 / norm.alpha, offset)
    power = norm.base**k
    whole = floor_quadratic(power * p, power * q, d, den)
    return _sign_quadratic(power * p - whole * den - e, power * q - f, d) >= 0


# ---------------------------------------------------------------------------
# periodicity


@dataclass(frozen=True)
class ModCycleCertificate:
    """Replayable evidence that an integer sequence is ultimately periodic.

    The sequence at index k is a function of base^k mod modulus (for the
    jump digits, modulus is the numerator of alpha), so the orbit of that
    residue bounds (preperiod, period).  head and cycle store the minimized
    shape; replaying them against a freshly computed stream is the
    verification.
    """

    modulus: int
    orbit_preperiod: int
    orbit_period: int
    preperiod: int
    period: int
    head: tuple[int, ...]
    cycle: tuple[int, ...]
    integrality_hits: tuple[int, ...] = ()

    def predict(self, k: int) -> int:
        """The certified value at 1-based index k of the covered sequence."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= self.preperiod:
            return self.head[k - 1]
        return self.cycle[(k - self.preperiod - 1) % self.period]

    def replay(self, count: int) -> list[int]:
        """predict(1), ..., predict(count): the head, then the cycle repeated."""
        repeats = max(0, -(-(count - self.preperiod) // self.period))
        return list(self.head + self.cycle * repeats)[:count]


@dataclass(frozen=True)
class PeriodicityVerdict:
    """Outcome of the periodicity decision for the jump-digit sequence."""

    kind: str  # "Periodic" | "AperiodicByTheorem" | "Inconclusive"
    preperiod: int | None = None
    period: int | None = None
    certificate: ModCycleCertificate | None = None
    reason: str | None = None

    @property
    def certified(self) -> bool:
        """Every verdict is certified or honestly Inconclusive."""
        return self.kind != "Inconclusive"


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in ascending order, each d with d*d <= n paired with n // d."""
    small = [d for d in takewhile(lambda d: d * d <= n, range(1, n + 1)) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def minimize_cycle(values, cover_preperiod: int, cover_period: int) -> tuple[int, int]:
    """Smallest (preperiod, period) consistent with a proven cover.

    The caller promises values[i] == values[i + cover_period] for every
    i >= cover_preperiod (0-based list indices); that promise is re-verified
    on the list and a ConsistencyError raised if it fails.  Because the true
    period must divide the cover period and the true preperiod can only be
    shorter, checking divisors over one covered period and peeling the
    preperiod back yields the certified minimum, not just an empirical one.
    Each check compares one covered period with its shift as two slices;
    only a failed cover is walked index by index, to name where it breaks.
    """
    if len(values) < cover_preperiod + 2 * cover_period:
        raise ValueError("window too short to verify the promised cover")
    lo, hi = cover_preperiod, cover_preperiod + cover_period
    window = values[lo:hi]
    if window != values[lo + cover_period : hi + cover_period]:
        i = next(i for i in range(lo, hi) if values[i] != values[i + cover_period])
        raise ConsistencyError(
            f"promised period {cover_period} after {cover_preperiod} "
            f"breaks at index {i}"
        )
    period = next(
        cand for cand in _divisors(cover_period)
        if window == values[lo + cand : hi + cand]
    )
    preperiod = cover_preperiod
    while preperiod > 0 and values[preperiod - 1] == values[preperiod - 1 + period]:
        preperiod -= 1
    return preperiod, period


class DigitSource:
    """A (finite or infinite) stream of digits with optional periodicity proof.

    The constructor takes the digit iterator, which a finite stream simply
    ends; one buffer pulls from it only as far as digit(i), prefix(count),
    block(start, count) and prefix_value(count, base) ask.  Subclasses
    answer periodicity questions about themselves.  The iterator must not hold the source: a
    generator method would make every source a reference cycle, freed
    only by the cycle collector.
    periodicity is a fact about the whole stream, so each subclass gives
    it as a cached_property, read once.  The honesty contract: it may
    hold a certified verdict only when the subclass can actually prove
    it, structurally or by the rational/irrational dichotomy.
    """

    def __init__(self, digits: Iterator[int]):
        self._buffer: list[int] = []
        self._pending = digits
        self._horner = (0, 0, 0)  # (base, count, value of the first count digits)

    def _fill(self, count: int) -> None:
        missing = count - len(self._buffer)
        if missing > 0:
            self._buffer.extend(islice(self._pending, missing))

    def digit(self, i: int) -> int:
        if i < 0:
            raise IndexError("digit index must be nonnegative")
        self._fill(i + 1)
        if i >= len(self._buffer):
            raise IndexError(f"index {i} past the end of the stream")
        return self._buffer[i]

    def prefix(self, count: int) -> tuple[int, ...]:
        """The first count digits, or all of them if the stream is shorter."""
        self._fill(count)
        return tuple(self._buffer[:count])

    def block(self, start: int, count: int) -> tuple[int, ...]:
        """Digits start..start+count-1 as one slice of the buffer.

        Raises IndexError past the end of a finite stream.
        """
        self._fill(start + count)
        if start + count > len(self._buffer):
            raise IndexError(f"index {len(self._buffer)} past the end of the stream")
        return tuple(self._buffer[start : start + count])

    def prefix_value(self, count: int, base: int) -> int:
        """numeration.from_word(prefix(count), base), or IndexError past a finite end.

        One running Horner value is kept and extended only as far as asked;
        a shorter count or another base restarts it from the first digit.
        As in from_word, a negative digit raises ValueError.
        """
        if count < 1:
            raise ValueError("empty digit word has no value")
        self._fill(count)
        if count > len(self._buffer):
            raise IndexError(f"index {len(self._buffer)} past the end of the stream")
        last, done, value = self._horner
        if last != base or done > count:
            done = value = 0
        for d in self._buffer[done:count]:
            if d < 0:
                raise ValueError("digits must be nonnegative")
            value = value * base + d
        self._horner = (base, count, value)
        return value

    @property
    def periodicity(self) -> PeriodicityVerdict:
        raise NotImplementedError

    def _minimized_cover(self, preperiod, period, certificate=None):
        """Certified verdict for a proven cover, minimized on this stream."""
        lam, q = minimize_cycle(self.prefix(preperiod + 2 * period), preperiod, period)
        return PeriodicityVerdict("Periodic", lam, q, certificate)

    def label(self) -> str:
        raise NotImplementedError


# a rational analysis keeps lists of about cover = preperiod + 2*period
# small integers (the r digits, the residue values of r, h and d, their
# replays) and big-integer tables only to the audit prefix, so its time
# and memory grow linearly in the cover: near this cap analyze takes
# 1.0-1.4 s and peaks at 105-110 MB in bases 2 and 10 and at 187 MB in
# base 4096 (whose digits are not cached small ints) on a 2-CPU x86 box
# (CPython 3.11), and 1000003/1000000 in base 10 (cover 333334) runs in
# 0.5 s
_ORBIT_BUDGET = 1 << 20


class OrbitCapError(ValueError):
    """The cover of base^k mod the numerator of alpha outgrows _ORBIT_BUDGET."""


def residue_orbit(base: int, modulus: int) -> tuple[int, int]:
    """(preperiod, period) of base^k mod modulus, k counted from 1.

    Brent's cycle finding (R. P. Brent, BIT 20, 1980) in constant memory:
    the tortoise waits at position 2^j - 1 while the hare walks up to 2^j
    steps past it, so the first round with 2^j - 1 >= preperiod and 2^j
    >= period meets, after at most 2^j - 1 + period hare steps, which is
    below 2*max(preperiod + 1, period) + period.  The period is the
    meeting distance, and a second walk with the hare one period ahead
    finds the preperiod.  Raises OrbitCapError when cover = preperiod +
    2*period would pass limit = _ORBIT_BUDGET.  A cover within it has
    period <= limit/2 and meets in a round with 2^j <= 2*(limit + 1), so
    the walk stops past that round, and no round walks the hare more
    than limit/2 steps.
    """
    limit = _ORBIT_BUDGET
    start = hare = base % modulus
    power, period = 1, 0
    while not period and power <= 2 * (limit + 1):
        tortoise = hare
        for steps in range(1, min(power, limit // 2) + 1):
            hare = base * hare % modulus
            if hare == tortoise:
                period = steps
                break
        power *= 2
    if period:
        tortoise = hare = start
        for _ in range(period):
            hare = base * hare % modulus
        for preperiod in range(limit - 2 * period + 1):
            if tortoise == hare:
                return preperiod, period
            tortoise, hare = base * tortoise % modulus, base * hare % modulus
    raise OrbitCapError(
        f"the orbit of {base}^k mod {modulus} needs more than {limit} terms "
        f"(preperiod + 2*period), past the orbit cap for base {base}"
    )


def certify_cycle(
    values, modulus: int, orbit: tuple[int, int], hits=()
) -> PeriodicityVerdict:
    """Certify values (index k at values[k-1]) under the proven cover orbit.

    orbit is the (preperiod, period) of base^k mod modulus.  The cover is
    minimized against values, and every value is replayed against the
    resulting certificate in one list comparison; a mismatch raises
    ConsistencyError naming its first index.
    """
    preperiod, period = minimize_cycle(values, *orbit)
    cert = ModCycleCertificate(
        modulus, *orbit, preperiod, period, tuple(values[:preperiod]),
        tuple(values[preperiod : preperiod + period]), tuple(hits),
    )
    check_agree(cert.replay(len(values)), list(values), "certificate replay fails")
    return PeriodicityVerdict("Periodic", preperiod, period, cert)


def check_agree(values, reference, what: str) -> None:
    """Raise ConsistencyError naming the first k where values and reference differ.

    Index k sits at position k - 1 of both; when one is a proper prefix
    of the other, k is the first index past it.
    """
    if values != reference:
        k = next(
            (k for k, (a, b) in enumerate(zip(values, reference), 1) if a != b),
            min(len(values), len(reference)) + 1,
        )
        raise ConsistencyError(f"{what} at k={k}")


def hit_levels(h, count: int) -> tuple[int, ...]:
    """The k <= count with h_k = 1, h_k at h[k-1]: the integrality hits."""
    return tuple(compress(range(1, count + 1), h[:count]))


def check_hits(jumps: JumpData, hits: tuple[int, ...], top: int) -> None:
    """The table's integrality hits on levels 1..top must be those of hits
    (both ascend); a mismatch names the first level in only one of them."""
    held, want = (h[: bisect_right(h, top)] for h in (jumps.integrality_hits, hits))
    if held != want:
        k = min(set(held) ^ set(want))
        raise ConsistencyError(f"residue and jump-table routes disagree on integrality hits at k={k}")


def certify_r(
    stream: list[int], residues: tuple[list[int], list[int]], jumps: JumpData,
    modulus: int, orbit: tuple[int, int], base: int
) -> PeriodicityVerdict:
    """The rational r certificate of InstanceTables, on its tables.

    stream holds r_1..r_span off r_digits, and residues the lists r and
    h off residue_digits, at least span and span + 1 terms long.  The
    residue r is compared with the stream over all span terms; the two
    routes share no state.  jumps, the big-integer audit, reaches
    c_(audit+1) for audit = min(jumps.k_max - 1, span).  Its r_1..r_audit,
    the differences of positions it divided off whole numerators, must
    match the stream, and its hits must match h on levels 1..audit + 1.
    The residue r is then certified under the proven cover orbit of
    base^k mod modulus, with the hits of h_1..h_(span+1) on the certificate.
    """
    span = len(stream)
    values, h = residues[0][:span], residues[1]
    check_agree(values, stream, "residue and stream routes disagree on r")
    audit = min(jumps.k_max - 1, span)
    check_agree(r_from_jumps(jumps, base)[:audit], stream[:audit],
                "stream and jump-table routes disagree on r")
    hits = hit_levels(h, span + 1)
    check_hits(jumps, hits, audit + 1)
    return certify_cycle(values, modulus, orbit, hits)


# On a rational slope the residue kernel gives every certified value, and
# the big-integer routes (jump_positions, the level starts with their
# boundary audit, r_from_jumps and align_m0) check it independently on
# r_k for k <= _AUDIT_PREFIX and d_k for k <= max(d_window, _AUDIT_PREFIX)
# only: their numbers have about k*log2(base) bits, so over a whole cover
# their cost would grow quadratically in it.  400 levels hold the cover of
# every battery instance, and the residue r is still compared with
# r_digits over the whole span.
_AUDIT_PREFIX = 400


def _jump_count_digits(norm: NormalizedInstance) -> Iterator[int]:
    """c_1 = floor((base - beta)/alpha), then r_1, r_2, ... from r_digits."""
    lead = ((norm.base - norm.beta) / norm.alpha).floor()
    if lead > 2 * norm.base - 2:
        raise ConsistencyError(
            f"leading jump count {lead} exceeds the digit bound {2 * norm.base - 2}"
        )
    yield lead
    yield from r_digits(norm)


class InstanceTables(DigitSource):
    """The exact tables of one instance, each computed once, on first use.

    As a digit source it is the jump-count expansion: c_1 = floor((base -
    beta)/alpha) at position 0, r_k at position k >= 1, from one live
    r_digits generator.  Folding these through the base reproduces the
    jump counts themselves, w_k = c_(k+1), and digits stay below
    2*base - 1.  Its buffer is the one jump-count buffer, and r_terms reads
    it, so every stage that reads the same tables computes each r digit
    once.  For alpha = p/q, orbit is the (preperiod, period) of base^k
    mod p; with cover = preperiod + 2*period, r is certified on span_r =
    max(cover, r_window) terms and d on span_d = max(cover, d_window),
    both off the lists r and h of residue_digits.  The big-integer
    tables audit those certificates on the prefixes audit_r and audit_d
    only (see _AUDIT_PREFIX).  One jump table is held: each reader asks
    jumps_to for the levels it needs, gets that table, which may hold
    more, and bounds its own read.  A surd needs no span: orbit is None
    and r_verdict holds by theorem.  orbit, the residues, the jump table,
    r_verdict and periodicity wait for their first reader, so reading
    digits alone walks no orbit.
    """

    def __init__(self, norm: NormalizedInstance, r_window: int, d_window: int = 1):
        if min(r_window, d_window) < 1:
            raise ValueError("window must be >= 1")
        self.norm = norm
        self._r_window, self._d_window = r_window, d_window
        self._jumps: JumpData | None = None
        super().__init__(_jump_count_digits(norm))

    def r_terms(self, count: int) -> list[int]:
        """r_1..r_count, off the one digit buffer."""
        self._fill(count + 1)
        return self._buffer[1 : count + 1]

    @cached_property
    def orbit(self) -> tuple[int, int] | None:
        """(preperiod, period) of base^k mod p; None for a surd."""
        if not self.norm.alpha.is_rational:
            return None
        return residue_orbit(self.norm.base, self.norm.alpha.as_fraction().numerator)

    @property
    def span_r(self) -> int:
        return max(self.orbit[0] + 2 * self.orbit[1], self._r_window)

    @property
    def span_d(self) -> int:
        return max(self.orbit[0] + 2 * self.orbit[1], self._d_window)

    @property
    def audit_r(self) -> int:
        """The r_k, k <= audit_r, that the jump table audits."""
        return min(self.span_r, _AUDIT_PREFIX)

    @property
    def audit_d(self) -> int:
        """The d_k, k <= audit_d, that the level counts audit; at least d_window."""
        return min(self.span_d, max(self._d_window, _AUDIT_PREFIX))

    @cached_property
    def residues(self) -> tuple[list[int], list[int]]:
        """r_1..r_n and h_1..h_n off residue_digits, n = max(span_r + 1, span_d + 2).

        That is as far as certify_r and certify_d read them.
        """
        return residue_digits(self.norm, max(self.span_r + 1, self.span_d + 2))

    def jumps_to(self, top: int) -> JumpData:
        """The held jump table, rebuilt only when it stops short of c_top.

        On a rational slope every build also reaches c_(audit_r + 1) and
        c_(audit_d + 2), so the certificates' audits and every later read
        share it.
        """
        jumps = self._jumps
        if jumps is None or top > jumps.k_max:
            size = top
            if self.orbit is not None:
                size = max(top, self.audit_r + 1, self.audit_d + 2)
            jumps = self._jumps = jump_positions(self.norm, size)
        return jumps

    @cached_property
    def r_verdict(self) -> PeriodicityVerdict:
        """Ultimate periodicity of r, certified by certify_r when alpha is rational.

        An irrational alpha (a surd by construction) needs no search: an
        ultimately periodic r would resum to a rational value for alpha.
        """
        if self.orbit is None:
            return PeriodicityVerdict(
                "AperiodicByTheorem",
                reason="alpha is an irrational quadratic surd; the jump-digit "
                "sequence has an ultimately periodic tail exactly when alpha is rational",
            )
        p = self.norm.alpha.as_fraction().numerator
        return certify_r(self.r_terms(self.span_r), self.residues,
                         self.jumps_to(self.audit_r + 1), p, self.orbit, self.norm.base)

    @cached_property
    def periodicity(self) -> PeriodicityVerdict:
        """r_verdict shifted onto the stream, certified on the tables' r window."""
        inner = self.r_verdict
        if inner.kind != "Periodic":
            return inner
        # the stream prepends one extra digit (the leading jump count)
        # ahead of the r digits, shifting the preperiod up by one; the
        # shifted cover is then re-minimized against actual stream digits
        # (the lead digit often happens to extend the cycle leftward)
        return self._minimized_cover(inner.preperiod + 1, inner.period, inner.certificate)

    def label(self) -> str:
        norm = self.norm
        return f"jump digits of {norm.alpha}, {norm.beta} in base {norm.base}"


def detect_period(norm: NormalizedInstance, window: int) -> PeriodicityVerdict:
    """InstanceTables(norm, window).r_verdict: r certified on at least window terms.

    On a surd slope the verdict holds by theorem and no table is built.
    """
    return InstanceTables(norm, window).r_verdict
