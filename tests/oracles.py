"""Independent oracles used to pin expected values in the test suite.

Everything here works in pure Fraction/int arithmetic on a *shadow*
representation (rational part, radical coefficient, radicand), with interval
enclosures of sqrt(d) refined until a decision drops out.  Equality cases are
settled symbolically first, so refinement loops only run on provably
non-boundary inputs and always terminate.

Deliberately shares no arithmetic with floorlog.exact: different data
structure, different floor algorithm, different comparison logic.

The rational oracles (the jump table and the level starts of a
rational instance) take one Fraction floor or ceiling per level.

The word-level oracles (rendering, the unpruned pattern scan, the
ungrouped pattern automaton) work on plain digit tuples; the last shares
only the Dfa table and its minimization with floorlog.automata.

The reference forms that follow are the direct versions of library
routines, kept to compare against: normalization one power of the base
at a time, a jump table with a fresh isqrt per index, the remainder
machine of r_digits one exact step per digit, base-b words one divmod
per digit, the step indicator v as one byte per index, and the
jump-digit classification swept on integers with one exact floor per
digit and on ExactReal values.  They use floorlog.exact and the
library's record types.

The audits at the end check identities the library's results must
satisfy: the per-index classification against the threshold tests, the
handshake between consecutive classifications, the expansion identity
of every prefix of r, and the unit steps of u against the jump
positions.  Unlike everything above they call library routines:
classify on r_direct, expansion_forms on classify_range, and v_seq and
verify_jumps_against_v on u_term.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt
from typing import Iterable

from floorlog.automata import Dfa
from floorlog.exact import _sign_quadratic, floor_quadratic, over_common_denominator
from floorlog.jumpdigits import (
    _TAG_BY_TESTS,
    RkRecord,
    classify_range,
    inverse_slope_digits,
    r_direct,
)
from floorlog.numeration import to_word, word_str
from floorlog.sequences import (
    ConsistencyError,
    FloorLogInstance,
    JumpData,
    NormalizedInstance,
    SeqSlice,
    jump_positions,
    u_seq,
    u_term,
)

Shadow = tuple[Fraction, Fraction, int]  # ra + rc * sqrt(d)

# interval enclosures open at this many bits (FLOORLOG_ORACLE_BITS overrides)
START_BITS = int(os.environ.get("FLOORLOG_ORACLE_BITS", "200"))
MAX_BITS = max(1 << 16, START_BITS)


def shadow(x) -> Shadow:
    """Read an ExactReal's structure without invoking its arithmetic."""
    return (x.rational_part, x.radical_coeff, x.radicand)


def sh_make(ra, rc=0, d=1) -> Shadow:
    ra, rc = Fraction(ra), Fraction(rc)
    if rc == 0:
        d = 1
    return (ra, rc, d)


def _common_d(x: Shadow, y: Shadow) -> int:
    if x[2] == y[2]:
        return x[2]
    if x[1] == 0:
        return y[2]
    if y[1] == 0:
        return x[2]
    raise ValueError("shadow arithmetic cannot mix radicands")


def sh_add(x: Shadow, y: Shadow) -> Shadow:
    return sh_make(x[0] + y[0], x[1] + y[1], _common_d(x, y))


def sh_sub(x: Shadow, y: Shadow) -> Shadow:
    return sh_make(x[0] - y[0], x[1] - y[1], _common_d(x, y))


def sh_mul(x: Shadow, y: Shadow) -> Shadow:
    d = _common_d(x, y)
    return sh_make(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def sh_div(x: Shadow, y: Shadow) -> Shadow:
    d = _common_d(x, y)
    norm = y[0] * y[0] - y[1] * y[1] * d
    if norm == 0:
        raise ZeroDivisionError
    conj = sh_make(y[0] / norm, -y[1] / norm, d)
    return sh_mul(x, conj)


def sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    s = isqrt(d * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def sh_bounds(x: Shadow, bits: int) -> tuple[Fraction, Fraction]:
    ra, rc, d = x
    if rc == 0:
        return ra, ra
    lo, hi = sqrt_bounds(d, bits)
    if rc > 0:
        return ra + rc * lo, ra + rc * hi
    return ra + rc * hi, ra + rc * lo


def sh_sign(x: Shadow) -> int:
    ra, rc, d = x
    if rc == 0:
        return (ra > 0) - (ra < 0)
    bits = START_BITS
    while bits <= MAX_BITS:
        lo, hi = sh_bounds(x, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise RuntimeError("interval refinement exhausted; value suspiciously near 0")


def sh_eq(x: Shadow, y: Shadow) -> bool:
    """Symbolic equality; sound across radicands."""
    if x[1] == 0 and y[1] == 0:
        return x[0] == y[0]
    if x[1] == 0 or y[1] == 0:
        return False  # irrational vs rational
    if x[2] != y[2]:
        return False  # distinct squarefree radicands never coincide
    return x[0] == y[0] and x[1] == y[1]


def sh_compare(x: Shadow, y: Shadow) -> int:
    """Three-way comparison by separate interval enclosures, EQ symbolically."""
    if sh_eq(x, y):
        return 0
    bits = START_BITS
    while bits <= MAX_BITS:
        xlo, xhi = sh_bounds(x, bits)
        ylo, yhi = sh_bounds(y, bits)
        if xhi < ylo:
            return -1
        if ylo < xlo and yhi < xlo:
            return 1
        bits *= 2
    raise RuntimeError("interval refinement exhausted in compare")


def sh_floor(x: Shadow) -> int:
    ra, rc, _ = x
    if rc == 0:
        return ra.numerator // ra.denominator
    bits = START_BITS
    while bits <= MAX_BITS:
        lo, hi = sh_bounds(x, bits)
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        bits *= 2
    raise RuntimeError("interval refinement exhausted in floor")


def sh_scale_floor(x: Shadow, factor: int) -> int:
    """floor(x * factor) without shadow multiplication (pure bound scaling)."""
    ra, rc, _ = x
    if rc == 0:
        v = ra * factor
        return v.numerator // v.denominator
    bits = START_BITS
    while bits <= MAX_BITS:
        lo, hi = sh_bounds(x, bits)
        flo = (lo * factor).__floor__()
        fhi = (hi * factor).__floor__()
        if flo == fhi:
            return flo
        bits *= 2
    raise RuntimeError("interval refinement exhausted in scale_floor")


def oracle_digits(x, base: int, count: int) -> list[int]:
    """Greedy digits of x in [0,1): long division for rationals, intervals else."""
    sh = shadow(x) if not isinstance(x, tuple) else x
    ra, rc, _ = sh
    if rc == 0:
        num, den = ra.numerator, ra.denominator
        out = []
        for _ in range(count):
            num *= base
            d, num = divmod(num, den)
            out.append(d)
        return out
    m = sh_scale_floor(sh, base**count)
    out = []
    for _ in range(count):
        m, r = divmod(m, base)
        out.append(r)
    return list(reversed(out))


def oracle_u(alpha, beta, base: int, n: int) -> int:
    """Exponent k with base^k <= alpha*n + beta < base^(k+1), by scanning."""
    x = sh_add(sh_mul(shadow(alpha), sh_make(n)), shadow(beta))
    if sh_sign(x) <= 0:
        raise ValueError("alpha*n + beta must be positive")
    k = 0
    if sh_compare(x, sh_make(1)) >= 0:
        while sh_compare(x, sh_make(base ** (k + 1))) >= 0:
            k += 1
    else:
        while sh_compare(x, sh_make(Fraction(1, base ** (-k)))) < 0:
            k -= 1
    return k


def _bpow(base: int, k: int) -> Fraction:
    return Fraction(base) ** k


def oracle_c(alpha, beta, base: int, k: int) -> int:
    """floor((base^k - beta)/alpha) on the shadow representation."""
    y = sh_div(sh_sub(sh_make(_bpow(base, k)), shadow(beta)), shadow(alpha))
    return sh_floor(y)


def oracle_r(alpha, beta, base: int, k: int) -> int:
    return oracle_c(alpha, beta, base, k + 1) - base * oracle_c(alpha, beta, base, k)


def oracle_f(alpha, beta, base: int, k: int, n_min: int) -> int:
    """#{n >= n_min : u_n = k} by plain enumeration over the level window."""
    # every n with u_n = k lies in [floor(A_k), floor(A_{k+1})+1] where
    # A_j = (base^j - beta)/alpha, so scanning that window is exhaustive.
    lo_est = oracle_c(alpha, beta, base, k) - 2
    hi_est = oracle_c(alpha, beta, base, k + 1) + 2
    count = 0
    for n in range(max(n_min, lo_est, 0), max(hi_est + 3, 0)):
        x = sh_add(sh_mul(shadow(alpha), sh_make(n)), shadow(beta))
        if sh_sign(x) <= 0:
            continue
        if oracle_u(alpha, beta, base, n) == k:
            count += 1
    return count


def _table(base: int, cs: list[int], hits: list[int]) -> JumpData:
    """The JumpData of the positions cs = [c_1, c_2, ...]: c_1 and each c_(k+1) - base*c_k."""
    r = tuple(c1 - base * c0 for c0, c1 in zip(cs, cs[1:]))
    return JumpData(base=base, c1=cs[0], r=r, integrality_hits=tuple(hits))


def rational_jumps(alpha: Fraction, beta: Fraction, base: int, k_max: int) -> JumpData:
    """The jump table of a rational instance: one Fraction floor per k."""
    cs, hits = [], []
    for k in range(1, k_max + 1):
        x = (_bpow(base, k) - beta) / alpha
        cs.append(floor(x))
        if x.denominator == 1:
            hits.append(k)
    return _table(base, cs, hits)


def rational_level_starts(
    alpha: Fraction, beta: Fraction, base: int, k_lo: int, k_hi: int, n_min: int
) -> list[int]:
    """max(ceil((base^k - beta)/alpha), n_min) for k_lo..k_hi, on Fractions."""
    return [max(ceil((_bpow(base, k) - beta) / alpha), n_min) for k in range(k_lo, k_hi + 1)]


def rational_slope_terms(alpha, beta, base: int, count: int):
    """(r_1..r_count, h_1..h_(count+2), d_1..d_count) of a normalized instance.

    For x_k = (base^k - beta)/alpha on the shadow representation (plain
    Fractions when beta is rational): c_k = floor(x_k), h_k = 1 when x_k
    is an integer, and d_k = f_(k+1) - base*f_k with f_k = ceil(x_(k+1)) -
    ceil(x_k), the population of level k >= 1 counted from its start, so
    d does not go through r or h.
    """
    xs = [
        sh_div(sh_sub(sh_make(_bpow(base, k)), shadow(beta)), shadow(alpha))
        for k in range(1, count + 3)
    ]
    c = [sh_floor(x) for x in xs]
    h = [1 if x[1] == 0 and x[0].denominator == 1 else 0 for x in xs]
    starts = [-sh_floor(sh_sub(sh_make(0), x)) for x in xs]
    f = [hi - lo for lo, hi in zip(starts, starts[1:])]
    r = [c[k + 1] - base * c[k] for k in range(count)]
    d = [f[k + 1] - base * f[k] for k in range(count)]
    return r, h, d


def enumerate_words(values: Iterable[int], base: int) -> list[tuple[int, ...]]:
    out = []
    for v in values:
        if v == 0:
            out.append((0,))
            continue
        digits = []
        while v:
            v, r = divmod(v, base)
            digits.append(r)
        out.append(tuple(reversed(digits)))
    return out


def _family_by_segments(words, n0: int, p: int, v0, v1, v2) -> bool:
    # each member n0 + m*p must be V0 V1^m V2, checked segment by segment
    m = 0
    for n in range(n0, len(words), p):
        w = words[n]
        if len(w) != len(v0) + m * p + len(v2):
            return False
        if w[: len(v0)] != v0:
            return False
        for j in range(m):
            lo = len(v0) + j * p
            if w[lo : lo + p] != v1:
                return False
        if v2 and w[-len(v2) :] != v2:
            return False
        m += 1
    return True


def find_pattern_unpruned(words, p: int, residue: int, min_anchor: int = 0):
    """Earliest (v0, v1, v2, anchor) split of a word window, or None.

    The reference scan for language.find_pattern: every anchor of the
    class at or past min_anchor and, at each, every split inside the
    common prefix of w_n0 and w_(n0+p) whose tail is a common suffix,
    each tested in full against the whole class.
    """
    n0 = residue
    if n0 < min_anchor:
        n0 += ((min_anchor - n0 + p - 1) // p) * p
    while n0 + 2 * p < len(words):
        w0, w1, w2 = words[n0], words[n0 + p], words[n0 + 2 * p]
        if w0 and len(w1) == len(w0) + p and len(w2) == len(w0) + 2 * p:
            cp = 0
            while cp < len(w0) and w0[cp] == w1[cp]:
                cp += 1
            cs = 0
            while cs < len(w0) and w0[-1 - cs] == w1[-1 - cs]:
                cs += 1
            for i in range(max(1, len(w0) - cs), cp + 1):
                v0, v2 = w0[:i], w0[i:]
                v1 = w1[i : i + p]
                if w1 != v0 + v1 + v2 or w2 != v0 + v1 + v1 + v2:
                    continue
                if _family_by_segments(words, n0, p, v0, v1, v2):
                    return v0, v1, v2, n0
        n0 += p
    return None


class _UngroupedNfa:
    """Epsilon-NFA with one fresh path per word and a final state."""

    def __init__(self, base: int):
        self.base = base
        self.eps: list[set[int]] = []
        self.delta: list[dict[int, set[int]]] = []

    def fresh(self) -> int:
        self.eps.append(set())
        self.delta.append({})
        return len(self.eps) - 1

    def word_path(self, q: int, word) -> int:
        for d in word:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} outside alphabet of base {self.base}")
            t = self.fresh()
            self.delta[q].setdefault(d, set()).add(t)
            q = t
        return q

    def closure(self, states) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            for t in self.eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def determinize(self, start: int, final: int) -> Dfa:
        start_set = self.closure([start])
        index = {start_set: 0}
        order = [start_set]
        rows = []
        for cur in order:
            row = []
            for d in range(self.base):
                moved = set()
                for q in cur:
                    moved.update(self.delta[q].get(d, ()))
                nxt = self.closure(moved)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                row.append(index[nxt])
            rows.append(row)
        acc = frozenset(i for i, s in enumerate(order) if final in s)
        return Dfa(self.base, tuple(tuple(r) for r in rows), 0, acc)


def from_patterns_ungrouped(patterns, exceptions=(), base: int = 2) -> Dfa:
    """The minimal DFA of automata.from_patterns, built the direct way.

    Every exception and every pattern gets its own paths from the start
    state, with its own hub and V1 loop, so the NFA holds about
    (number of patterns) * |V1| states; each subset move takes its
    closure afresh.  Only the minimization is shared with the library.
    """
    nfa = _UngroupedNfa(base)
    start = nfa.fresh()
    final = nfa.fresh()
    for word in exceptions:
        nfa.eps[nfa.word_path(start, tuple(word))].add(final)
    for v0, v1, v2 in patterns:
        # an empty V0 must not make start the hub: the loop would then
        # run in front of the exceptions and the other patterns too
        hub = nfa.fresh()
        nfa.eps[nfa.word_path(start, tuple(v0))].add(hub)
        if v1:
            nfa.eps[nfa.word_path(hub, tuple(v1))].add(hub)
        nfa.eps[nfa.word_path(hub, tuple(v2))].add(final)
    return nfa.determinize(start, final).minimize()


def normalize_stepwise(inst) -> NormalizedInstance:
    """sequences.normalize scaling alpha into [1, base) one power at a time."""
    alpha, beta, b = inst.alpha, inst.beta, inst.base
    value_offset = 0
    while alpha >= b:
        alpha = alpha / b
        beta = beta / b
        value_offset += 1
    while alpha < 1:
        alpha = alpha * b
        beta = beta * b
        value_offset -= 1
    index_shift = 0
    if beta >= alpha:
        m = (beta / alpha).floor()
        beta = beta - alpha * m
        index_shift = m
    elif beta.sign() < 0:
        m = (-beta / alpha).ceil()
        beta = beta + alpha * m
        index_shift = -m
    n_min_norm = 0 if beta.sign() > 0 else 1
    return NormalizedInstance(
        alpha=alpha,
        beta=beta,
        base=b,
        index_shift=index_shift,
        value_offset=value_offset,
        identity_start=max(inst.n_min, n_min_norm - index_shift),
    )


def jump_positions_fresh_roots(norm, k_max: int) -> JumpData:
    """sequences.jump_positions the direct way: one fresh isqrt per index.

    With 1/alpha = (p + q*sqrt(d))/C and beta/alpha = (e + f*sqrt(d))/C,
    c_k = (A_k + isqrt(B_k^2 d)) // C for B_k > 0 and
    (A_k - isqrt(B_k^2 d) - 1) // C for B_k < 0, where A_k = base^k*p - e
    and B_k = base^k*q - f; B_k == 0 is a divmod, and a zero remainder an
    integrality hit.
    """
    b = norm.base
    den, d, ((p, q), (e, f)) = over_common_denominator(
        1 / norm.alpha, norm.beta / norm.alpha
    )
    cs = []
    hits = []
    power = 1
    for k in range(1, k_max + 1):
        power *= b
        num = power * p - e
        rad = power * q - f
        if rad > 0:
            c = (num + isqrt(rad * rad * d)) // den
        elif rad < 0:
            c = (num - isqrt(rad * rad * d) - 1) // den
        else:
            c, rest = divmod(num, den)
            if rest == 0:
                hits.append(k)
        cs.append(c)
    return _table(b, cs, hits)


def r_digits_per_digit(norm):
    """The terms of jumpdigits.r_digits, one exact spigot step per term.

    The machine of r_digits' docstring without blocks, and with the
    square-root spigot of its blocks stepped in base base: g is carried
    as (A + B*sqrt(d))/C next to s = floor(|B|*sqrt(d)) and R = B^2 d -
    s^2, a step estimates the spigot correction by one division from
    base 5 on and finishes it with unit steps, and a zero or sign change
    of B restarts the spigot with one floor_quadratic call.  r_digits
    takes one floor_quadratic per term instead, so this is the only copy
    of the per-digit spigot, kept as the reference its per-digit floors
    and its blocks are compared with.
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
    spigot = {}
    for positive, tau in ((True, t), (False, -t)):
        u = floor_quadratic(0, tau, d, 1)
        spigot[positive] = (2 * b * u, u, tau * tau * d - u * u)
    lift, square, divisible = 2 * b * t * d, b * b, b >= 5
    s = floor_quadratic(0, abs(rad), d, 1)
    rem = rad * rad * d - s * s
    while True:
        num = b * a + shift
        rad_next = b * rad + t
        if rad and rad_next and (rad > 0) == (rad_next > 0):
            lift_u, u, e = spigot[rad > 0]
            rem = square * rem + lift * rad - lift_u * s + e
            s = b * s + u
            if divisible and s >= 0:
                twice = 2 * s
                delta = rem // (twice + b + 1)
                rem -= delta * (twice + delta)
                s += delta
            while s < 0 or rem > 2 * s:
                rem -= s
                s += 1
                rem -= s
        else:
            s = floor_quadratic(0, abs(rad_next), d, 1)
            rem = rad_next * rad_next * d - s * s
        if rad_next > 0:
            r = (num + s) // den
        elif rad_next < 0:
            r = (num - s - 1) // den
        else:
            r = num // den
        yield r
        a, rad = num - r * den, rad_next


def to_word_per_digit(n: int, base: int) -> tuple[int, ...]:
    """numeration.to_word one divmod per digit, at every size."""
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    return tuple(reversed(digits))


def dense_v_indicator(norm, size: int) -> bytearray:
    """v_n for n <= size as a bytearray, read off the jump levels.

    The dense form: one byte per index.  The table grows four levels at
    a time until its last jump lies past size, independently of
    sequences.jump_levels_past.
    """
    k_max = 4
    jumps = jump_positions(norm, k_max)
    while jumps.at(jumps.k_max) <= size:
        k_max += 4
        jumps = jump_positions(norm, k_max)
    bm = bytearray(size + 1)
    for k in range(1, jumps.k_max + 1):
        c = jumps.at(k)
        pos = c - 1 if k in jumps.integrality_hits else c
        if 0 <= pos <= size:
            bm[pos] = 1
    return bm


def classify_range_sweep(norm, k_max: int) -> list[RkRecord]:
    """jumpdigits.classify_range swept on integers, one exact floor per digit.

    The state carried between steps is x_k = frac(base^k/alpha), held as
    (A + B*sqrt(d))/C over one denominator shared with
    frac(beta/alpha) = (A' + B'*sqrt(d))/C.  A step scales A and B by
    base and takes the digit floor(base*x_k) = floor_quadratic(A, B, d, C)
    afresh; A minus digit*C leaves the next state, and P_(k+1) is the
    exact sign test (A - A') + (B - B')*sqrt(d) >= 0.  B is base^k times
    its start, so a surd slope costs one isqrt of a base^(2k)-sized
    operand per digit.
    """
    b = norm.base
    den, d, ((a, rad), (ta, tb)) = over_common_denominator(
        (b / norm.alpha).frac(), (norm.beta / norm.alpha).frac()
    )
    pk = _sign_quadratic(a - ta, rad - tb, d) >= 0
    records = []
    for k in range(1, k_max + 1):
        a *= b
        rad *= b
        digit = floor_quadratic(a, rad, d, den)
        a -= digit * den
        pk1 = _sign_quadratic(a - ta, rad - tb, d) >= 0
        r = digit + (0 if pk else b) - (0 if pk1 else 1)
        records.append(
            RkRecord(k=k, r=r, case_tag=_TAG_BY_TESTS[(pk, pk1)], pk=pk, pk1=pk1,
                     digit=digit, base=b)
        )
        pk = pk1
    return records


def classify_range_exact(norm, k_max: int) -> list[RkRecord]:
    """jumpdigits.classify_range swept on ExactReal values.

    Carries x_k = frac(base^k/alpha): the digit is floor(base*x_k), the
    next state its fractional part, and P_(k+1) compares that state with
    frac(beta/alpha), each a normalized ExactReal operation.
    """
    tags = {(True, True): "A", (True, False): "B", (False, True): "C", (False, False): "D"}
    b = norm.base
    rhs = (norm.beta / norm.alpha).frac()
    x = (b / norm.alpha).frac()
    pk = x >= rhs
    records = []
    for k in range(1, k_max + 1):
        scaled = b * x
        digit = scaled.floor()
        x_next = scaled - digit
        pk1 = x_next >= rhs
        r = digit + (0 if pk else b) - (0 if pk1 else 1)
        records.append(
            RkRecord(k=k, r=r, case_tag=tags[(pk, pk1)], pk=pk, pk1=pk1, digit=digit, base=b)
        )
        x, pk = x_next, pk1
    return records


# ---------------------------------------------------------------------------
# audits of the jump-digit classification and of the unit steps


def eval_Pk(norm: NormalizedInstance, k: int) -> bool:
    """Decide frac(base^k/alpha) >= frac(beta/alpha) exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lhs = ((norm.base**k) / norm.alpha).frac()
    rhs = (norm.beta / norm.alpha).frac()
    return lhs >= rhs


def classify(norm: NormalizedInstance, k: int) -> RkRecord:
    """Classify index k and assert the case formula against r_direct."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = eval_Pk(norm, k)
    pk1 = eval_Pk(norm, k + 1)
    digit = inverse_slope_digits(norm, k + 1)[k]
    r = r_direct(norm, k)
    # RkRecord raises on construction if r disagrees with the case formula
    return RkRecord(
        k=k, r=r, case_tag=_TAG_BY_TESTS[(pk, pk1)], pk=pk, pk1=pk1,
        digit=digit, base=norm.base,
    )


@dataclass(frozen=True)
class TransitionReport:
    """Adjacent-pair audit of the classification."""

    pairs_checked: int
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_transitions(records: list[RkRecord]) -> TransitionReport:
    """Verify the handshake between consecutive classifications.

    The shape at k leaves the second threshold test as the first test of
    k+1, so r_k being un-decremented (tags A, C) must coincide with r_{k+1}
    passing its own first test (tags A, B).  Both the tag-level and the
    value-level readings of that equivalence are checked; the value sets
    {digit, base+digit} and {digit, digit-1} cannot collide across tags, so
    any discrepancy is a genuine violation.
    """
    violations = []
    for rec, nxt in zip(records, records[1:]):
        if nxt.k != rec.k + 1:
            raise ValueError("records must cover consecutive indices")
        left_tag = rec.case_tag in ("A", "C")
        left_val = rec.r in (rec.digit, rec.base + rec.digit)
        right_tag = nxt.case_tag in ("A", "B")
        right_val = nxt.r in (nxt.digit, nxt.digit - 1)
        if len({left_tag, left_val, right_tag, right_val}) != 1:
            violations.append(
                f"k={rec.k}: tags ({rec.case_tag},{nxt.case_tag}) "
                f"values (r={rec.r},r'={nxt.r}) disagree on the handshake"
            )
    return TransitionReport(pairs_checked=max(0, len(records) - 1),
                            violations=tuple(violations))


@dataclass(frozen=True)
class ExpansionForm:
    """Value-level audit of the prefix [r_1 ... r_k] read in the base.

    The prefix value must land on the block of inverse-slope digits
    2..k+1, possibly with a leading 1 attached (first threshold test
    false) and possibly after adding 1 back (index k decremented, tags
    B/D).  Membership is checked on values, not digit strings, because
    the digit block may start with zeros.
    """

    k: int
    value: int
    decremented: bool
    candidates: tuple[int, int]
    ok: bool
    base: int

    @property
    def rendered(self) -> str:
        """The checked value, value + 1 when decremented, as base digits.

        Rendered on read: a string per prefix would make expansion_forms
        quadratic in k_max.
        """
        adjusted = self.value + 1 if self.decremented else self.value
        return word_str(to_word(adjusted, self.base))


def expansion_forms(norm: NormalizedInstance, k_max: int) -> list[ExpansionForm]:
    """Audit every prefix [r_1..r_k] for k = 1..k_max incrementally."""
    records = classify_range(norm, k_max)
    forms = []
    b = norm.base
    value = 0
    block = 0
    power = 1
    for rec in records:
        value = value * b + rec.r
        block = block * b + rec.digit
        power *= b
        decremented = rec.case_tag in ("B", "D")
        adjusted = value + 1 if decremented else value
        candidates = (block, power + block)
        forms.append(
            ExpansionForm(
                k=rec.k,
                value=value,
                decremented=decremented,
                candidates=candidates,
                ok=adjusted in candidates,
                base=b,
            )
        )
    return forms


def v_seq(inst: FloorLogInstance | NormalizedInstance, n_max: int) -> tuple[SeqSlice, int | None]:
    """Differences v_n = u_{n+1} - u_n for n in [n_min, n_max], plus N0.

    N0 is the last observed index whose difference is outside {0, 1}, or None
    if the whole computed range is already a 0/1 word.  The theory promises
    such violations live in a finite prefix; this reports what the window
    actually shows rather than assuming a bound.
    """
    u = u_seq(inst, n_max + 1)
    if len(u.values) < 2:
        return SeqSlice(u.start, ()), None
    diffs = tuple(b - a for a, b in zip(u.values, u.values[1:]))
    sl = SeqSlice(u.start, diffs)
    n0 = None
    for n, v in zip(range(sl.start, sl.stop), sl.values):
        if v not in (0, 1):
            n0 = n
    return sl, n0


def verify_jumps_against_v(
    norm: NormalizedInstance, jumps: JumpData, n_cap: int
) -> None:
    """Cross-check v_n = 1 exactly at the jump positions, within reach.

    At an integrality hit the jump to level k happens at n = c_k itself, so
    the unit step sits one slot earlier; both layouts are checked.  The scan
    runs from the first n whose argument reaches 1 (below that, steps target
    levels k < 1 which JumpData does not cover) and stops before the last
    known jump, so every step inside the window has a prediction.  Raises
    ConsistencyError on any mismatch.
    """
    if jumps.k_max < 1:
        return
    start = max(norm.n_min, ((1 - norm.beta) / norm.alpha).ceil())
    cap = min(n_cap, jumps.at(jumps.k_max) - 1)
    jump_set = set()
    shifted = set()
    for k in range(1, jumps.k_max + 1):
        c = jumps.at(k)
        (shifted if k in jumps.integrality_hits else jump_set).add(c)
    u_prev = None
    for n in range(start, cap + 2):
        u_here = u_term(norm.alpha, norm.beta, norm.base, n)
        if u_prev is not None:
            val = u_here - u_prev
            m = n - 1
            expected = 1 if (m in jump_set or m + 1 in shifted) else 0
            if val != expected:
                raise ConsistencyError(
                    f"v_{m} = {val} but jump positions predict {expected}"
                )
        u_prev = u_here
