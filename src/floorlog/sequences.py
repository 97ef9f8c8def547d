"""The floor-log sequence u_n = floor(log_b(alpha*n + beta)) and its jumps.

A raw instance (alpha, beta, base) is first normalized so that
0 <= beta < alpha < base.  Scaling alpha by base**-m trades into a constant
value offset, and shifting beta by whole multiples of alpha trades into an
index shift, so the normalized sequence reproduces the original one exactly
on a computable tail.  All decisions below use exact arithmetic only.

Beyond a finite prefix the difference sequence v_n = u_{n+1} - u_n is a 0/1
word, and v_n = 1 happens exactly at the jump positions
c_k = floor((base^k - beta)/alpha), which drive everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactReal, floor_quadratic, over_common_denominator
from .numeration import to_word


class ConsistencyError(AssertionError):
    """An internal cross-check failed; results cannot be trusted."""


@dataclass(frozen=True)
class FloorLogInstance:
    """Raw problem data for u_n = floor(log_base(alpha*n + beta))."""

    alpha: ExactReal
    beta: ExactReal
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if not isinstance(self.alpha, ExactReal) or not isinstance(self.beta, ExactReal):
            raise TypeError("alpha and beta must be ExactReal")
        if self.alpha.sign() <= 0:
            raise ValueError("alpha must be positive")
        radicands = {self.alpha.radicand, self.beta.radicand} - {1}
        if len(radicands) > 1:
            d1, d2 = sorted(radicands)
            raise ValueError(
                f"alpha and beta must share one radicand, got sqrt({d1}) and sqrt({d2})"
            )

    @property
    def n_min(self) -> int:
        """Least n >= 0 with alpha*n + beta > 0 (1 when beta == 0)."""
        if self.beta.sign() > 0:
            return 0
        # n > -beta/alpha, so the least usable index is floor(-beta/alpha)+1
        return max(0, (-self.beta / self.alpha).floor() + 1)


@dataclass(frozen=True)
class NormalizedInstance:
    """An instance with 0 <= beta < alpha < base, alpha >= 1, plus the books to map back.

    For every n >= identity_start,

        u_original(n) = value_offset + u_normalized(n + index_shift).

    index_shift is negative when the original beta was negative (the
    normalized sequence then starts earlier than the original).
    """

    alpha: ExactReal
    beta: ExactReal
    base: int
    index_shift: int = 0
    value_offset: int = 0
    identity_start: int = 0

    def __post_init__(self):
        if (
            self.beta.sign() < 0
            or self.beta >= self.alpha
            or self.alpha >= self.base
            or self.alpha < 1
        ):
            raise ConsistencyError(
                f"normalization violated: alpha={self.alpha} beta={self.beta} base={self.base}"
            )

    @property
    def n_min(self) -> int:
        return 0 if self.beta.sign() > 0 else 1


def normalize(inst: FloorLogInstance) -> NormalizedInstance:
    """Rewrite an instance into the 0 <= beta < alpha < base, alpha >= 1 normal form."""
    alpha, beta, b = inst.alpha, inst.beta, inst.base
    # dividing the argument by base**m puts alpha in [1, base) and absorbs m
    # into u; below 1 the leading jump count can overrun the digit alphabet
    value_offset = _level(alpha, b)
    if value_offset:
        scale = ExactReal(Fraction(b) ** value_offset)
        alpha, beta = alpha / scale, beta / scale
    index_shift = 0
    if beta >= alpha:
        m = (beta / alpha).floor()
        beta = beta - alpha * m
        index_shift = m
    elif beta.sign() < 0:
        m = (-beta / alpha).ceil()
        beta = beta + alpha * m
        index_shift = -m
    # identity u_orig(n) = offset + u_norm(n + shift) needs both sides defined
    n_min_norm = 0 if beta.sign() > 0 else 1
    start = max(inst.n_min, n_min_norm - index_shift)
    return NormalizedInstance(
        alpha=alpha,
        beta=beta,
        base=b,
        index_shift=index_shift,
        value_offset=value_offset,
        identity_start=start,
    )


def u_term(alpha: ExactReal, beta: ExactReal, base: int, n: int) -> int:
    """Exact u_n, valid whenever alpha*n + beta > 0; may be negative."""
    x = alpha * n + beta
    if x.sign() <= 0:
        raise ValueError(f"u_{n} undefined: alpha*{n}+beta is not positive")
    return _level(x, base)


def _level(x: ExactReal, base: int) -> int:
    """floor(log_base x) for x > 0, in a fixed number of exact operations.

    With t = floor(x) >= 1: base^k <= t <= x < t+1 <= base^(k+1) for the
    digit length k+1 of t, so the level is that length minus one.

    With x < 1: the level is -m for the least m with base^m >= 1/x.  As
    base^m is an integer, base^m >= 1/x exactly when base^m >= s for
    s = ceil(1/x) >= 2, and base^m >= s exactly when base^m > s - 1 >= 1,
    that is, when m is at least the digit length of s - 1.
    """
    t = x.floor()
    if t >= 1:
        return len(to_word(t, base)) - 1
    return -len(to_word((1 / x).ceil() - 1, base))


@dataclass(frozen=True)
class SeqSlice:
    """Integer sequence values on a contiguous index range [start, stop)."""

    start: int
    values: tuple[int, ...]

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    def at(self, n: int) -> int:
        if not self.start <= n < self.stop:
            raise IndexError(f"index {n} outside [{self.start}, {self.stop})")
        return self.values[n - self.start]


def u_seq(inst: FloorLogInstance | NormalizedInstance, n_max: int) -> SeqSlice:
    """u_n for n from n_min through n_max inclusive."""
    start = inst.n_min
    if n_max < start:
        return SeqSlice(start, ())
    vals = tuple(u_term(inst.alpha, inst.beta, inst.base, n) for n in range(start, n_max + 1))
    return SeqSlice(start, vals)


@dataclass(frozen=True)
class JumpData:
    """Jump positions c_k = floor((base^k - beta)/alpha), k = 1..k_max.

    integrality_hits collects the k where (base^k - beta)/alpha landed on an
    integer exactly.  Two distinct hits certify alpha rational on their own
    (the difference of the two relations solves for alpha), so the list
    doubles as a rationality witness.
    """

    k_max: int
    c: tuple[int, ...]
    integrality_hits: tuple[int, ...] = ()

    def at(self, k: int) -> int:
        if not 1 <= k <= self.k_max:
            raise IndexError(f"jump index {k} outside 1..{self.k_max}")
        return self.c[k - 1]

    def prefix(self, k_max: int) -> "JumpData":
        """The table jump_positions(norm, k_max) would build, read off this one."""
        if not 1 <= k_max <= self.k_max:
            raise IndexError(f"prefix {k_max} outside 1..{self.k_max}")
        if k_max == self.k_max:
            return self
        return JumpData(
            k_max=k_max,
            c=self.c[:k_max],
            integrality_hits=tuple(k for k in self.integrality_hits if k <= k_max),
        )


# guard bits of the fixed-point roots in jump_positions, past base^k_max;
# the width of its straddle filter is derived from it
_ROOT_GUARD_BITS = 64


def jump_positions(norm: NormalizedInstance, k_max: int) -> JumpData:
    """Exact c_k for k = 1..k_max with integrality bookkeeping.

    Closed form over one common denominator: with 1/alpha = (p + q*sqrt(d))/C
    and beta/alpha = (e + f*sqrt(d))/C,

        (base^k - beta)/alpha = (A_k + B_k*sqrt(d))/C,
        A_k = base^k*p - e,  B_k = base^k*q - f,

    and c_k = floor_quadratic(A_k, B_k, d, C).  The quotient is an
    integer exactly when B_k == 0 and C divides A_k.

    A rational instance (d == 1) has B_k == 0 at every k and takes its
    own loop: A_(k+1) = base*A_k + (base - 1)*e, and c_k with its
    integrality flag is one divmod of A_k by C.  It carries no power of
    the base, no scaled root and no B_k.  Each c_k comes from the whole
    numerator, never from c_(k-1) and a remainder as r_digits steps, so
    the table stays an independent route to r.

    For d > 1 the roots are fixed-point numbers taken once per call:
    Q = floor(q*sqrt(d)*2^M) and F = floor(f*sqrt(d)*2^M), with M the bit
    length of base^k_max plus _ROOT_GUARD_BITS.  Then, with power = base^k,

        power*Q - F - 1  <  B_k*sqrt(d)*2^M  <  power*Q + power - F.

    Proof: Q <= q*sqrt(d)*2^M < Q + 1 and F <= f*sqrt(d)*2^M < F + 1 by
    the definition of a floor.  Multiply the first by power and subtract
    the second: the upper end is strict because power*(Q + 1) is never
    reached, and the lower end because F + 1 is never reached.  Neither
    step needs the middle terms to be irrational, so q = 0 (a rational
    slope with a surd offset: Q = 0, the first term exactly 0) and
    f = 0 (F = 0, the second term exactly 0) are covered.  Since
    floor(t/2^M) is monotone, with W_k = power*Q - F - 1 the value
    floor(B_k*sqrt(d)) lies in [W_k >> M, (W_k + power + 1) >> M], so c_k
    lies between lo = (A_k + (W_k >> M)) // C and
    hi = (A_k + ((W_k + power + 1) >> M)) // C, and equals lo when
    lo == hi.  When they differ the bracket straddles an integer, and c_k
    is taken the direct way, floor_quadratic(A_k, B_k, d, C).

    The loop carries one number, H_k = A_k*2^M + W_k.  Both parts step
    as x' = base*x + constant: A_(k+1) = base*A_k + (base - 1)*e and
    W_(k+1) = base*W_k + (base - 1)*(F + 1), so

        H_(k+1) = base*H_k + ((base - 1)*e*2^M + (base - 1)*(F + 1)),

    one multiply-add per level.  A_k*2^M is a multiple of 2^M, so for
    every integer A_k, negative ones included, H_k >> M = A_k + (W_k >> M)
    and H_k mod 2^M = W_k mod 2^M, and likewise (H_k + power + 1) >> M =
    A_k + ((W_k + power + 1) >> M).  Hence lo = (H_k >> M) // C and
    hi = ((H_k + power + 1) >> M) // C, and the two shifts differ exactly
    when (H_k mod 2^M) + power + 1 >= 2^M.

    The guard-bit filter decides when hi is worth forming.  Put
    G = max(_ROOT_GUARD_BITS, 0) and top = H_k >> (M - G), one shift;
    then lo = (top >> G) // C.  When G > 0, M - G is the bit length of
    base^k_max, so power + 1 <= base^k_max + 1 <= 2^(M - G), and the
    shifts can differ only when H_k mod 2^M >= 2^M - 2^(M - G), that is,
    when the top G bits of H_k mod 2^M, which are top mod 2^G, are all
    ones.  Only then is power = base^k formed and hi compared with lo;
    otherwise c_k = lo.  At the default G = 64 the filter passes a level
    only when 64 bits of the fraction are all ones.  When
    _ROOT_GUARD_BITS <= 0, G = 0, the mask 2^G - 1 is 0 and the filter
    passes every level, so the exact bracket test runs at each k.  That
    is safe at any width, since the bracket argument above needs only
    M >= 0, not the inequality on power + 1, which may then fail.

    A step thus costs one multiply-add and one shift on a number of
    about 2*k_max*log2(base) bits, instead of one integer square root of
    that size.

    Every integrality hit reaches the fallback, so the hits are recorded
    there.  At a k with B_k = 0, F lies in [power*Q, power*Q + power - 1]
    (as power*q = f), so W_k lies in [-power, -1].  Then W_k >> M <= -1
    and (W_k + power + 1) >> M >= 0, so lo <= (A_k - 1) // C and
    hi >= A_k // C, which differ whenever C divides A_k.  And H_k mod 2^M
    = W_k mod 2^M >= 2^M - power passes the guard filter when G >= 1,
    while G = 0 passes every level.  A straddle with B_k != 0 has an
    irrational quotient, so it is never a hit.
    """
    b = norm.base
    den, d, ((p, q), (e, f)) = over_common_denominator(
        1 / norm.alpha, norm.beta / norm.alpha
    )
    cs = []
    hits = []
    if d == 1:
        num, step = p - e, (b - 1) * e
        for k in range(1, k_max + 1):
            num = num * b + step
            c, rest = divmod(num, den)
            if not rest:
                hits.append(k)
            cs.append(c)
        return JumpData(k_max=k_max, c=tuple(cs), integrality_hits=tuple(hits))
    shift = (b**k_max).bit_length() + _ROOT_GUARD_BITS
    guard = max(_ROOT_GUARD_BITS, 0)
    coarse, mask = shift - guard, (1 << guard) - 1
    root_q = floor_quadratic(0, q << shift, d, 1)
    root_f = floor_quadratic(0, f << shift, d, 1)
    high = ((p - e) << shift) + root_q - root_f - 1
    step = ((b - 1) * e << shift) + (b - 1) * (root_f + 1)
    for k in range(1, k_max + 1):
        high = high * b + step
        top = high >> coarse
        c = (top >> guard) // den
        if top & mask == mask:
            power = b**k
            if c != ((high + power + 1) >> shift) // den:
                num, rad = power * p - e, power * q - f
                c = floor_quadratic(num, rad, d, den)
                if rad == 0 and c * den == num:
                    hits.append(k)
        cs.append(c)
    return JumpData(k_max=k_max, c=tuple(cs), integrality_hits=tuple(hits))


def jump_levels_past(base: int, size: int) -> int:
    """A k_max whose last jump position lies beyond index size.

    On a normalized instance c_k > (base^k - beta)/alpha - 1 > base^(k-1) - 2,
    since beta < alpha < base, so c_k > size as soon as base^(k-1) > size + 1,
    which holds for k - 1 = the digit length of size + 1.
    """
    return len(to_word(size + 1, base)) + 1


class StepIndicator:
    """Read-only v_n = u_{n+1} - u_n for 0 <= n <= size, held as its steps.

    Indexing returns 1 at a step position and 0 elsewhere, and raises
    IndexError outside 0..size, negative indices included, so a reader
    that walks past its range fails as it would on a list.
    """

    __slots__ = ("size", "steps")

    def __init__(self, size: int, steps: frozenset[int]):
        self.size = size
        self.steps = steps

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.size:
            raise IndexError(f"index {n} outside 0..{self.size}")
        return 1 if n in self.steps else 0


def v_indicator(
    norm: NormalizedInstance, size: int, jumps: JumpData | None = None
) -> StepIndicator:
    """The unit-step indicator v_n = u_{n+1} - u_n for 0 <= n <= size.

    Read directly off the jump positions: the step to level k sits at
    index c_k, except when the level boundary is hit exactly, where it
    moves one slot earlier.  Only log-many jumps land inside the range,
    jump_levels_past(base, size) levels, computed here or read as the
    prefix of a given jump table, so the view keeps that set of step
    positions rather than size + 1 entries: its memory does not grow
    with size.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    k_max = jump_levels_past(norm.base, size)
    jumps = jump_positions(norm, k_max) if jumps is None else jumps.prefix(k_max)
    hits = set(jumps.integrality_hits)
    positions = (c - 1 if k in hits else c for k, c in enumerate(jumps.c, 1))
    return StepIndicator(size, frozenset(pos for pos in positions if 0 <= pos <= size))
