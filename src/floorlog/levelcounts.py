"""Population counts of the floor-log levels and their difference sequence.

f_k counts how many indices n sit at level k, i.e. have u_n = k.  Each
level occupies the half-open index interval [(base^k - beta)/alpha,
(base^(k+1) - beta)/alpha), so the count is a difference of exact ceilings
and never needs enumeration.  The count and its audit run on integers
alone, from one common-denominator form each:

  * the primary route writes (base^k - beta)/alpha as (A + B*sqrt(d))/C
    and takes every level start's ceiling with the exact floor kernel
    floor_quadratic;
  * the audit checks every level start against the definition of u_n,
    two exact sign tests of alpha*n + beta - base^k per level, written
    over the common denominator of alpha and beta rather than of
    1/alpha and beta/alpha.

f is deliberately not read off jump_positions: align_m0 compares f_k with
the jump gaps c_{k+1} - c_k, and that comparison is only a check while f
comes from somewhere else.  The derived sequence d_k = f_{k+1} - base*f_k
mirrors the jump-digit differences r_{k+1} - r_k on an aligned tail, and
its ultimate periodicity is decided with the same modular-orbit machinery,
extended to cover instances where crossings land on integers forever; the
cover and the tail check come from the r certificate.  On a rational
slope the certified d comes from the residue kernel (certify_d), and the
routes here audit it on a fixed prefix of levels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .exact import _sign_quadratic, floor_quadratic, over_common_denominator
from .jumpdigits import (
    InstanceTables,
    ModCycleCertificate,
    PeriodicityVerdict,
    certify_cycle,
    check_agree,
    check_hits,
    hit_levels,
)
from .sequences import ConsistencyError, JumpData, NormalizedInstance, SeqSlice, u_term


def _level_starts(norm: NormalizedInstance, k_lo: int, k_hi: int) -> list[int]:
    """First index n (>= n_min) whose argument has reached base^k, k_lo..k_hi.

    With 1/alpha = (p + q*sqrt(d))/den, beta/alpha = (e + f*sqrt(d))/den and
    base^k = num/bden (bden > 1 only for negative k),

        (base^k - beta)/alpha = (A + B*sqrt(d))/C,
        A = num*p - bden*e,  B = num*q - bden*f,  C = bden*den.

    The ceiling of that quotient is -floor_quadratic(-A, -B, d, C).

    A rational instance (d == 1) has B == 0, and from level 0 up it steps
    A_(k+1) = base*A_k + (base - 1)*e and takes each ceiling as
    -(-A_k // C): one division of the whole numerator per level, with no
    floor_quadratic call.  Negative levels (bden > 1) keep the general
    path.  Nothing here is read off jump_positions' table or r_digits'
    remainders, so comparing f with the jump gaps, and d with the
    differences of r, stays a check.
    """
    b = norm.base
    den, d, ((p, q), (e, f)) = over_common_denominator(
        1 / norm.alpha, norm.beta / norm.alpha
    )
    num, bden = (b**k_lo, 1) if k_lo >= 0 else (1, b**-k_lo)
    n_min = norm.n_min
    starts = []
    k = k_lo
    while k <= k_hi and (d > 1 or bden > 1):
        a = num * p - bden * e
        rad = num * q - bden * f
        starts.append(max(-floor_quadratic(-a, -rad, d, bden * den), n_min))
        if bden > 1:
            bden //= b
        else:
            num *= b
        k += 1
    if k <= k_hi:
        a, step = num * p - e, (b - 1) * e
        for _ in range(k, k_hi + 1):
            starts.append(max(-(-a // den), n_min))
            a = a * b + step
    return starts


@dataclass(frozen=True)
class LevelCounts:
    """Exact level populations for one instance.

    f maps level k to its count for k_min <= k <= k_max; negative levels
    (argument still below 1) are included.  f_counts has checked every
    level start behind these counts against the definition of u_n.
    """

    norm: NormalizedInstance
    k_min: int
    k_max: int
    f: dict[int, int]

    def at(self, k: int) -> int:
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"level {k} outside {self.k_min}..{self.k_max}")
        return self.f[k]

    def prefix(self, k_max: int) -> "LevelCounts":
        """What f_counts(norm, k_max) returns, read off these counts."""
        if not 1 <= k_max <= self.k_max:
            raise IndexError(f"prefix {k_max} outside 1..{self.k_max}")
        return LevelCounts(norm=self.norm, k_min=self.k_min, k_max=k_max,
                           f={k: n for k, n in self.f.items() if k <= k_max})


def f_counts(norm: NormalizedInstance, k_max: int) -> LevelCounts:
    """Count every level up to k_max and check each level start it used.

    The primary route takes the level starts L_k from _level_starts once,
    for k_min..k_max+1, and sets f_k = L_{k+1} - L_k; it is exact at any
    depth.  The audit proves each L_k from the definition of u_n.  alpha
    is positive, so t(n) = alpha*n + beta rises strictly with n, and u_n
    >= k holds exactly when t(n) >= base^k; L_k is therefore the first
    index of level k exactly when

        t(L_k) >= base^k,  and  L_k = n_min or t(L_k - 1) < base^k.

    With alpha = (a1 + b1*sqrt(d))/C, beta = (a2 + b2*sqrt(d))/C and
    base^k = num/den (den > 1 only for negative k), t(n) - base^k has the
    sign of

        x + y*sqrt(d),   x = den*(a1*n + a2) - num*C,  y = den*(b1*n + b2),

    and the point n - 1 is (x - den*a1, y - den*b1); _sign_quadratic
    decides both signs exactly, and a rational instance (d = 1, y = 0)
    reads them off x.  A start below n_min, or one that fails either
    test, raises ConsistencyError.  The audit and _level_starts share
    only over_common_denominator.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    b = norm.base
    k_min = u_term(norm.alpha, norm.beta, b, norm.n_min)
    starts = _level_starts(norm, k_min, k_max + 1)
    f = {k: starts[i + 1] - starts[i] for i, k in enumerate(range(k_min, k_max + 1))}

    c, d, ((a1, b1), (a2, b2)) = over_common_denominator(norm.alpha, norm.beta)
    num, den = (b**k_min, 1) if k_min >= 0 else (1, b**-k_min)
    n_min = norm.n_min
    for k, n in enumerate(starts, k_min):
        dx, dy = den * a1, den * b1
        x, y = dx * n + den * a2 - num * c, dy * n + den * b2
        if d == 1:  # y = 0, so both signs are those of x
            ok = 0 <= x and (n == n_min or x < dx)
        else:
            ok = _sign_quadratic(x, y, d) >= 0 and (
                n == n_min or _sign_quadratic(x - dx, y - dy, d) < 0)
        if n < n_min or not ok:
            raise ConsistencyError(f"level {k} does not start at n={n}")
        if den > 1:
            den //= b
        else:
            num *= b
    return LevelCounts(norm=norm, k_min=k_min, k_max=k_max, f=f)


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of matching level counts against jump gaps.

    m0 is the offset of the tie f_k = c_{k+m0+1} - c_{k+m0} on the tail of
    the computed range: 0 when it holds there, None when it does not
    (either the range is too short or crossings keep landing on integers,
    which shifts single endpoints forever).  threshold is the first k of
    the verified tail.
    """

    m0: int | None
    threshold: int | None
    checked_to: int
    mismatches: tuple[int, ...] = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.m0 is not None


def align_m0(lc: LevelCounts, jd: JumpData) -> AlignmentResult:
    """Check f_k = c_{k+1} - c_k on a tail of k = 1..min(lc.k_max, jd.k_max - 1).

    On a normalized instance the tie can only sit at offset 0.  For k >= 1
    level k starts at L_k = c_k + 1 - h_k, where h_k = 1 exactly when
    (base^k - beta)/alpha is an integer, so

        f_k - (c_{k+1} - c_k) = h_k - h_{k+1},

    and a gap c_{k+m+1} - c_{k+m} with m >= 1 overshoots f_k by more than
    base^k (base-1)^2 / alpha - 3, which is positive for every k >= 3
    because alpha < base.  An offset m >= 1 would thus mismatch at every
    k >= 3, the top compared level included, and could never be accepted.

    The tie is accepted when it holds on the entire second half of a range
    of at least 6 levels, i.e. mismatches, if any, are confined to a
    prefix; the threshold where the clean tail starts is reported rather
    than assumed.  Negative and zero levels never take part.
    """
    k_top = min(lc.k_max, jd.k_max - 1)
    # c[k] - c[k - 1] = c_{k+1} - c_k, since c[0] is c_1
    c, f = jd.c, lc.f
    bad = tuple(k for k in range(1, k_top + 1) if f[k] != c[k] - c[k - 1])
    if k_top < 6 or (bad and bad[-1] > k_top // 2):
        return AlignmentResult(
            m0=None, threshold=None, checked_to=max(k_top, 0),
            note="no offset aligns on this range: too short, or exact "
                 "integer crossings recur and keep shifting single endpoints",
        )
    return AlignmentResult(
        m0=0,
        threshold=(bad[-1] + 1) if bad else 1,
        checked_to=k_top,
        mismatches=bad,
    )


def d_seq(lc: LevelCounts, r_terms: Sequence[int], alignment: AlignmentResult) -> SeqSlice:
    """d_k = f_{k+1} - base*f_k for k from max(0, k_min) to k_max - 1.

    alignment is align_m0's result on lc.  Where it holds, the tail it
    names is cross-checked against the jump-digit differences
    r_{k+1} - r_k; any mismatch raises ConsistencyError, since both sides
    are exact.  r_terms holds r_1, r_2, ... at r_terms[0], r_terms[1],
    ..., at least lc.k_max of them.
    """
    b = lc.norm.base
    start = max(0, lc.k_min)
    values = tuple(lc.f[k + 1] - b * lc.f[k] for k in range(start, lc.k_max))
    slice_ = SeqSlice(start=start, values=values)
    if alignment.ok:
        t, top = max(alignment.threshold, start, 1), min(alignment.checked_to, lc.k_max)
        got = values[t - start : top - start]
        want = [r_terms[k] - r_terms[k - 1] for k in range(t, top)]
        if list(got) != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            raise ConsistencyError(
                f"d_{t + i} = {got[i]} but jump digits predict {want[i]}"
            )
    return slice_


def certify_d(
    lc: LevelCounts, jumps: JumpData, cert_r: ModCycleCertificate,
    r_terms: Sequence[int], residues: tuple[list[int], list[int]],
) -> PeriodicityVerdict:
    """The rational body of decide_d_periodicity, on the instance's tables.

    r_terms holds r_1..r_(span+1) off the digit buffer (r_digits), and
    residues the lists r and h off residue_digits, at least span + 1 and
    span + 2 terms long.  d_1..d_span comes from the residues alone: by
    align_m0's identity f_k = c_(k+1) - c_k + h_k - h_(k+1) for k >= 1,

        d_k = f_(k+1) - base*f_k
            = r_(k+1) - r_k + (h_(k+1) - h_(k+2)) - base*(h_k - h_(k+1)).

    The residue r it reads is compared with r_terms over all span + 1
    terms.  lc counts the levels to audit + 1 and jumps reaches at least
    c_(audit+2), for some audit <= span: on that prefix the big-integer
    tables audit the residue values.  The jump table's integrality hits
    must match h on the levels to min(jumps.k_max, span + 2), align_m0
    and d_seq run as before, d from the level counts must match the
    residue d, and on the aligned tail the r certificate must predict d
    through the difference map.  d_1..d_span is then certified under the
    orbit on cert_r, with the hits of h_1..h_(span+2) on the certificate.
    """
    b = lc.norm.base
    span = len(r_terms) - 1
    r, h = residues[0][: span + 1], residues[1][: span + 2]
    check_agree(r, list(r_terms), "residue and stream routes disagree on r")
    d_list = [
        r1 - r0 + h1 - h2 - b * (h0 - h1)
        for r0, r1, h0, h1, h2 in zip(r, r[1:], h, h[1:], h[2:])
    ]
    hits = hit_levels(h, span + 2)

    audit = lc.k_max - 1
    check_hits(jumps, hits, min(jumps.k_max, span + 2))
    alignment = align_m0(lc, jumps)
    d_slice = d_seq(lc, r_terms, alignment)  # runs the aligned-tail cross-check
    d_counted = list(d_slice.values[1 - d_slice.start :])  # d_1..d_audit
    check_agree(d_list[:audit], d_counted, "residue and level-count routes disagree on d")
    if alignment.ok:
        t = alignment.threshold
        rs = cert_r.replay(audit + 1)
        mapped = [hi - lo for lo, hi in zip(rs[t - 1 : audit], rs[t:])]
        if mapped != d_counted[t - 1 :]:
            k = next(k for k, (m, v) in enumerate(zip(mapped, d_counted[t - 1 :]), t) if m != v)
            raise ConsistencyError(
                f"r certificate fails to predict d_{k} through the "
                f"difference map"
            )
    orbit = (cert_r.orbit_preperiod, cert_r.orbit_period)
    return certify_cycle(d_list, cert_r.modulus, orbit, hits)


def decide_d_periodicity(
    tables: InstanceTables, k_max: int
) -> tuple[LevelCounts, AlignmentResult, PeriodicityVerdict]:
    """The levels up to k_max, their alignment on the jump table and the d verdict.

    Rational alpha = p/q: d_k is a function of base^k mod p, because both
    the jump-digit differences and the pattern of exact integer crossings
    are, so the orbit on tables.r_verdict's certificate is the proven
    cover; certify_d certifies d on span_d terms off the residue kernel,
    audited on the levels to audit_d + 1, which are counted once and also
    give the k_max <= audit_d + 1 levels reported.  Irrational alpha:
    aperiodic, no search needed, since d ultimately periodic would force
    r, and then alpha, to be rational.
    """
    norm = tables.norm
    if tables.orbit is None:
        lc = f_counts(norm, k_max)
        verdict = PeriodicityVerdict(
            "AperiodicByTheorem",
            reason="alpha is an irrational quadratic surd; the count-difference "
            "sequence is ultimately periodic exactly when alpha is rational",
        )
    else:
        audit = tables.audit_d
        full = f_counts(norm, audit + 1)
        verdict = certify_d(full, tables.jumps_to(audit + 2), tables.r_verdict.certificate,
                            tables.r_terms(tables.span_d + 1), tables.residues)
        lc = full.prefix(k_max)
    return lc, align_m0(lc, tables.jumps_to(k_max + 1)), verdict
