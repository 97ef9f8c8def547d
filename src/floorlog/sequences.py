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
from functools import cached_property

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
    """Jump positions c_k = floor((base^k - beta)/alpha), k = 1..k_max, held as digits.

    The table keeps c_1 and the jump digits r_k = c_(k+1) - base*c_k for
    k = 1..k_max - 1, which are small, so its memory is linear in k_max.
    The positions themselves have about k*log2(base) bits each; c folds
    the digits back into them, c_(k+1) = base*c_k + r_k, on its first
    read, so only readers that ask for positions pay for them.  A table
    holds every shorter one as its first levels, so one table serves
    every reader, each bounding its own read, and is folded at most once.

    integrality_hits collects the k where (base^k - beta)/alpha landed on an
    integer exactly.  Two distinct hits certify alpha rational on their own
    (the difference of the two relations solves for alpha), so the list
    doubles as a rationality witness.
    """

    base: int
    c1: int
    r: tuple[int, ...]
    integrality_hits: tuple[int, ...] = ()

    @property
    def k_max(self) -> int:
        return len(self.r) + 1

    @cached_property
    def c(self) -> tuple[int, ...]:
        """c_1..c_k_max, folded from c_1 and r."""
        b, c = self.base, self.c1
        cs = [c]
        append = cs.append
        for r in self.r:
            c = b * c + r
            append(c)
        return tuple(cs)

    def at(self, k: int) -> int:
        if not 1 <= k <= self.k_max:
            raise IndexError(f"jump index {k} outside 1..{self.k_max}")
        return self.c[k - 1]


# guard bits of the fixed-point roots in jump_positions, past base^k_max;
# the width of its straddle filter is derived from it
_ROOT_GUARD_BITS = 64
# levels per block of jump_positions' surd branch: L levels on fixed-point
# numbers of P = bitlen(base^L) + _ROOT_GUARD_BITS + 4 bits, then one exact
# step in base base^L.  On a 2-CPU x86 box, CPython 3.11, at k = 10^3 to
# 10^5, L = 16 ran up to 40 % slower than L = 64, and L = 32, 128 and 256
# came within about 15 % of it either way, the run-to-run noise there
_BLOCK_LEVELS = 64


def jump_positions(norm: NormalizedInstance, k_max: int) -> JumpData:
    """Exact c_1 and r_1..r_(k_max-1), with the integrality hits to k_max.

    Closed form over one common denominator: with 1/alpha = (p + q*sqrt(d))/C
    and beta/alpha = (e + f*sqrt(d))/C,

        (base^k - beta)/alpha = (A_k + B_k*sqrt(d))/C,
        A_k = base^k*p - e,  B_k = base^k*q - f,

    and c_k = floor_quadratic(A_k, B_k, d, C).  The quotient is an
    integer exactly when B_k == 0 and C divides A_k.

    A rational instance (d == 1) has B_k == 0 at every k and takes its
    own loop: A_(k+1) = base*A_k + (base - 1)*e, and c_k with its
    integrality flag is one divmod of A_k by C.  It carries no power of
    the base, no scaled root and no B_k, and appends each digit
    c_k - base*c_(k-1) as it goes (c_0 = 0, so the first is c_1).  Each
    c_k comes from the whole numerator, never from c_(k-1) and a
    remainder as r_digits and residue_digits step, so the table stays an
    independent route to r.  A_k has about k*log2(base) bits, so a level
    is one divmod of that width; the fk command reads a rational table
    to kmax + 2 levels (up to 4002), an analysis to a few hundred.

    For d > 1 the roots are fixed-point numbers taken once per call:
    Q = floor(q*sqrt(d)*2^M) and F = floor(f*sqrt(d)*2^M), with M the bit
    length N of base^k_max plus _ROOT_GUARD_BITS.  Then, with power = base^k,

        power*Q - F - 1  <  B_k*sqrt(d)*2^M  <  power*Q + power - F.

    Proof: Q <= q*sqrt(d)*2^M < Q + 1 and F <= f*sqrt(d)*2^M < F + 1 by
    the definition of a floor.  Multiply the first by power and subtract
    the second: the upper end is strict because power*(Q + 1) is never
    reached, and the lower end because F + 1 is never reached.  Neither
    step needs the middle terms to be irrational, so q = 0 (a rational
    slope with a surd offset: Q = 0, the first term exactly 0) and
    f = 0 (F = 0, the second term exactly 0) are covered.  Put
    W_k = power*Q - F - 1, H_k = A_k*2^M + W_k and D = C*2^M.  Since
    floor(t/2^M) is monotone, floor(B_k*sqrt(d)) lies in
    [W_k >> M, (W_k + power + 1) >> M].  A_k*2^M is a multiple of 2^M,
    so (H_k + x) >> M = A_k + ((W_k + x) >> M) for every integer x, and
    floor(floor(y/2^M)/C) = floor(y/D).  Hence c_k lies between
    lo_k = H_k // D and hi_k = (H_k + power + 1) // D, and equals lo_k
    when the two agree.  When they differ the bracket straddles an
    integer, and c_k is taken the direct way, floor_quadratic(A_k, B_k, d, C).

    The split.  Write H_k = lo_k*D + R_k with 0 <= R_k < D.  As above,
    R_k = h_k*2^M + w_k with the low part w_k = W_k mod 2^M and the high
    part h_k = (A_k + (W_k >> M)) mod C, below C, and lo_k =
    (A_k + (W_k >> M)) // C.  A_k and W_k both step as x' = base*x +
    constant, A_(k+1) = base*A_k + (base - 1)*e and W_(k+1) = base*W_k +
    (base - 1)*(F + 1), so H_(k+1) = base*H_k + S for the constant
    S = (base - 1)*e*2^M + (base - 1)*(F + 1) = s*2^M + s' with
    0 <= s' < 2^M.  Then

        H_(k+1) = base*lo_k*D + (base*h_k + s)*2^M + (base*w_k + s'),

    so with z = base*w_k + s', w_(k+1) = z mod 2^M and
    t_(k+1), h_(k+1) = divmod(base*h_k + s + (z >> M), C), and
    lo_(k+1) = base*lo_k + t_(k+1).  The loop carries the remainder
    (h_k, w_k) alone, never lo_k or c_k: a level is one multiply-add,
    one mask and one shift on the M-bit w_k, and small-number operations
    on h_k, and its carry out is t_(k+1).

    The straddle test.  hi_k - lo_k = (R_k + power + 1) // D, as
    H_k = lo_k*D + R_k, so the bracket straddles exactly when
    R_k + power + 1 >= D.  With power + 1 <= base^k_max + 1 <= 2^N, a
    straddle needs R_k >= D - 2^N, hence w_k >= 2^M - 2^N (as
    h_k <= C - 1) and h_k >= (D - 2^N) >> M (as w_k < 2^M).  Only when
    both hold is power formed and the exact test made.  At
    _ROOT_GUARD_BITS = G >= 0, M = N + G, and the two bounds read
    h_k = C - 1 and w_k >= 2^M - 2^(M - G): the high part at its top and
    the top G bits of w_k, which are those of W_k mod 2^M, all ones.  At
    the default G = 64 the filter passes a level only when those 64 bits
    are all ones.  At G < 0 the bound on w_k is at most 0 and only the
    high part filters.  That is safe at any width, since the bracket
    argument above needs only M >= 0.

    The digits.  Put delta_k = c_k - lo_k: 0 where the bracket does not
    straddle, and in [0, hi_k - lo_k] where it does, which is {0, 1}
    whenever power + 1 <= D, as at every G >= 0.  Then

        r_k = c_(k+1) - base*c_k
            = (base*lo_k + t_(k+1) + delta_(k+1)) - base*(lo_k + delta_k)
            = t_(k+1) + delta_(k+1) - base*delta_k.

    The loop starts from k = 0, power = 1, where H_0 = (p - e)*2^M +
    Q - F - 1 splits as above.  Taking c_0 = 0 puts delta_0 = -lo_0, and
    the same formula then gives c_1 - base*c_0 = c_1 as the first digit.
    At a straddle A_k and W_k are formed from
    power, which gives lo_k for delta_k and the closed form of R_k.  The
    carried (h_k, w_k) must equal it there and once more at k_max, or
    ConsistencyError is raised.

    Every integrality hit straddles, so the hits are recorded at the
    fallback.  At a k with B_k = 0, F lies in [power*Q, power*Q + power - 1]
    (as power*q = f), so W_k lies in [-power, -1].  When C divides A_k,
    H_k = (A_k/C)*D + W_k, so lo_k = A_k/C - 1 and R_k = D + W_k >= D - power,
    and R_k + power + 1 > D.  A straddle with B_k != 0 has an irrational
    quotient, so it is never a hit.

    Blocks.  A level is t_(k+1), R_(k+1) = divmod(base*R_k + S, D), so
    with x_k = R_k/D in [0, 1) and s = S/D its carry is
    floor(base*x_k + s) and x_(k+1) the fractional part.  From a level
    with L = _BLOCK_LEVELS levels still to go, the loop first tries L
    levels on P-bit fixed-point numbers, P = bitlen(base^L) + G + 4.

    - The start.  g = floor(R_k*2^P/D) = floor((R_k >> (M - P))/C) for
      M >= P, and R_k >> (M - P) = h_k*2^P + (w_k >> (M - P)) as
      w_k < 2^M, so g is read off the top bits of w_k and h_k, exactly
      and without an M-bit division (for M < P, g = (R_k << (P - M)) // C).
      T = floor(S*2^P/D) is taken once per call.  So 2^P*x_k lies in
      [g, g + 1) and 2^P*s in [T, T + 1).
    - Each level, in _block_carries.  z = base*g + T, the carry z >> P
      and the next g = z mod 2^P.  If 2^P*x lies in [g, g + e), then
      2^P*(base*x + s) lies in [z, z + base*e + 1), so after i levels the
      error is below e_i = (base^(i+1) - 1)/(base - 1) <= 2*base^i <=
      2*base^L < 2^(P - G - 3).  The carry is the true one unless the
      error takes z across a multiple of 2^P, which needs
      z mod 2^P > 2^P - e_i.
    - The test.  A level whose new g is at or above 2^P - 2^(P - G + 1)
      abandons the block.  As e_i < 2^(P - G + 1), that catches every
      level whose carry may be wrong.  It also catches every level the
      straddle filter could pass: a straddle needs R_k >= D - 2^N, so
      x_k >= 1 - 2^N/D >= 1 - 2^-G (D >= 2^M = 2^(N + G)), and then
      g > 2^P*x_k - e_i > 2^P - 2^(P - G) - 2^(P - G).  So no straddle,
      fresh-root fallback or integrality hit lies inside a completed
      block: delta is 0 at each of its levels, and its digits are its
      carries.  Below G = 2 the bound is at most 0 and every block is
      abandoned, which is safe at any width.
    - The end.  Unrolling the level L times gives base^L*R_k +
      S*(base^L - 1)/(base - 1) = V*D + R_(k+L), with V the Horner value
      of the carries t_(k+1) .. t_(k+L) in base base.  That is one level
      in base base^L, with S_L = S*(base^L - 1)/(base - 1) split as S
      is: one multiply-add, one mask and one shift on w_k, by a
      multiplier of L*log2(base) bits.  It gives the exact remainder L
      levels on, and V must equal the Horner value of the block's
      carries, or ConsistencyError is raised.
    - Outside blocks.  An abandoned block's L levels and the levels past
      the last whole block take the per-level step above, with its
      straddle filter, fallback, remainder check and hit recording, and
      the check at k_max follows either path.  At the default G = 64 a
      block is abandoned where the top 63 bits of some level's fraction
      are all ones, about once in 2^63 levels, or over an integrality
      hit.  A table of fewer than L levels, such as the 61 levels at most
      that a battery analysis reads, runs no block.

    The blocks are this table's own.  They start from the carried
    remainder (h_k, w_k) of H_k over the two fixed-point roots Q and F
    and hand back the same remainder L levels on; their fixed-point
    numbers are read off that remainder and the constant S, and their
    check is a level of the same rule in base base^L.  r_digits' blocks
    start from its exact quadratic state, a spigot root s of B^2 d with
    its remainder, and step that.  No value, root or constant passes
    between the two, and neither calls the other, so the surd-deep
    comparison of the two routes stays a check.

    A per-level step thus costs a few linear-time operations on a number
    of about k_max*log2(base) bits, instead of one integer square root of
    twice that size; a block of L levels costs L steps on P-bit numbers
    and one multiply of the M-bit w_k by base^L.  A surd table keeps no
    big number.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    b = norm.base
    den, d, ((p, q), (e, f)) = over_common_denominator(
        1 / norm.alpha, norm.beta / norm.alpha
    )
    hits = []
    if d == 1:
        num, step, c, digits = p - e, (b - 1) * e, 0, []
        for k in range(1, k_max + 1):
            num = num * b + step
            prev, (c, rest) = c, divmod(num, den)
            if not rest:
                hits.append(k)
            digits.append(c - b * prev)
        return JumpData(b, digits[0], tuple(digits[1:]), tuple(hits))
    top = b**k_max
    width = top.bit_length()
    shift = width + _ROOT_GUARD_BITS
    mask = (1 << shift) - 1
    root_q = floor_quadratic(0, q << shift, d, 1)
    root_f = floor_quadratic(0, f << shift, d, 1)

    def split(power):
        """A_k, A_k + (W_k >> M) and w_k = W_k mod 2^M at power = base^k."""
        num, low = power * p - e, power * root_q - root_f - 1
        return num, num + (low >> shift), low & mask

    whole = den << shift
    low_floor = (1 << shift) - (1 << width)
    high_floor = (whole - (1 << width)) >> shift
    step = ((b - 1) * e << shift) + (b - 1) * (root_f + 1)
    step_high, step_low = step >> shift, step & mask
    _, high, w = split(1)
    lo, h = divmod(high, den)
    # digits[k - 1] gets t_k, and the nonzero delta_k are patched in after
    # the loop; taking c_0 = 0 puts delta_0 = -lo_0
    digits, deltas = [], [(0, -lo)]
    append = digits.append
    length = _BLOCK_LEVELS
    if k_max >= length:
        leap = b**length
        bits = leap.bit_length() + _ROOT_GUARD_BITS + 4
        drop = shift - bits
        ceiling = (1 << bits) - (1 << (bits - _ROOT_GUARD_BITS + 1))
        fixed_step = (step << bits) // whole
        leap_step = step * ((leap - 1) // (b - 1))
        leap_high, leap_low = leap_step >> shift, leap_step & mask
    k = 0
    while k < k_max:
        if k + length <= k_max:
            # g = floor(R_k*2^P/D), read off the top bits of R_k
            if drop >= 0:
                g = ((h << bits) + (w >> drop)) // den
            else:
                g = (((h << shift) + w) << -drop) // den
            carries = _block_carries(g, b, fixed_step, bits, ceiling, length)
            if carries is not None:
                z = leap * w + leap_low
                w = z & mask
                value, h = divmod(leap * h + leap_high + (z >> shift), den)
                horner = 0
                for t in carries:
                    horner = horner * b + t
                if horner != value:
                    raise ConsistencyError(
                        f"jump_positions: a block of {length} levels from k={k} "
                        f"reads {horner}, its exact step {value}")
                digits += carries
                k += length
                continue
        for k in range(k + 1, min(k + length, k_max) + 1):
            z = b * w + step_low
            w = z & mask
            t, h = divmod(b * h + step_high + (z >> shift), den)
            append(t)
            if w >= low_floor and h >= high_floor:
                power = b**k
                if (h << shift) + w + power + 1 >= whole:
                    num, high, low = split(power)
                    lo, rest = divmod(high, den)
                    if (rest, low) != (h, w):
                        raise ConsistencyError(
                            f"jump_positions: carried remainder wrong at k={k}")
                    rad = power * q - f
                    c = floor_quadratic(num, rad, d, den)
                    if rad == 0 and c * den == num:
                        hits.append(k)
                    deltas.append((k, c - lo))
    _, high, low = split(top)
    if (high % den, low) != (h, w):
        raise ConsistencyError(f"jump_positions: carried remainder wrong at k={k_max}")
    for k, delta in deltas:  # the digit of level k is t_k + delta_k - base*delta_(k-1)
        if k:
            digits[k - 1] += delta
        if k < k_max:
            digits[k] -= b * delta
    return JumpData(b, digits[0], tuple(digits[1:]), tuple(hits))


def _block_carries(g: int, b: int, step: int, bits: int, ceiling: int,
                   length: int) -> list[int] | None:
    """The carries of jump_positions' next L levels on P-bit fixed-point
    numbers, or None if a level may carry wrong or straddle."""
    mask = (1 << bits) - 1
    carries = []
    append = carries.append
    for _ in range(length):
        z = b * g + step
        g = z & mask
        if g >= ceiling:
            return None
        append(z >> bits)
    return carries


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
    jump_levels_past(base, size) levels, computed here or read off the
    first levels of a given jump table, which must hold that many (else
    IndexError).  The view keeps that set of step positions rather than
    size + 1 entries: its memory does not grow with size.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    k_max = jump_levels_past(norm.base, size)
    jumps = jumps or jump_positions(norm, k_max)
    if jumps.k_max < k_max:
        raise IndexError(f"v_indicator reads {k_max} jump levels, the table holds {jumps.k_max}")
    hits = set(jumps.integrality_hits)
    positions = (c - 1 if k in hits else c for k, c in zip(range(1, k_max + 1), jumps.c))
    return StepIndicator(size, frozenset(pos for pos in positions if 0 <= pos <= size))
