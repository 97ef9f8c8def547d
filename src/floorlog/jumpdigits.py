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

The module evaluates r_k two independent ways, classifies every index,
verifies the digit-expansion identities the classification implies, and
decides ultimate periodicity: a replayable modular certificate when alpha
is rational, a theorem-backed refusal when alpha is an irrational surd.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .exact import over_common_denominator
from .numeration import DigitStream, to_word, word_str
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


def r_stream(norm: NormalizedInstance, k_max: int) -> list[int]:
    """First k_max terms of r by the fractional-remainder machine.

    Carries g_k = frac((base^k - beta)/alpha) across steps:
    z = base*g + (base-1)*frac(beta/alpha), r_k = floor(z), next g = frac(z).
    The machine runs on integers alone.  g is held as (A + B*sqrt(d))/C over
    one fixed denominator C, so a step is B' = base*B + t for a fixed t and
    A' = base*A + const - r*C.  Next to B it carries a square-root spigot:
    s = floor(|B|*sqrt(d)) and the remainder R = B^2 d - s^2.  While B keeps
    its sign, |B'| = base*|B| + tau with tau = +-t, so
    s' = base*s + floor(tau*sqrt(d)) + delta with 0 <= delta <= base, and R'
    follows from R with small multipliers; delta is found by stepping s' up
    while R' >= 2s' + 1.  A step therefore costs a bounded number of linear-time
    operations on numbers of about k*log2(base) bits, and k_max = 10^4 on a
    surd takes a fraction of a second.  Where B is zero or changes sign
    (at most once, since B moves monotonically away from its fixed point)
    one exact isqrt restarts the spigot.  A rational stream is the same
    loop with B = 0.

    jump_positions evaluates each c_k with a fresh isqrt of B_k^2 d and
    keeps nothing between indices, so comparing the two routes compares two
    independent square-root computations, not one kernel with itself.
    """
    b = norm.base
    tail = (norm.beta / norm.alpha).frac()
    g = ((b - norm.beta) / norm.alpha).frac()
    den, d, ((a, rad), (ta, tb)) = over_common_denominator(g, tail)
    shift, t = (b - 1) * ta, (b - 1) * tb

    def floor_root(x: int) -> int:
        """floor(x*sqrt(d)) for an integer x; d is not a square when x != 0."""
        root = isqrt(x * x * d)
        return root if x >= 0 else -root - 1

    # per sign of B, with tau = sign*t: tau*d, u = floor(tau*sqrt(d)), tau^2 d - u^2
    spigot = {}
    for sign in (1, -1):
        tau = sign * t
        u = floor_root(tau)
        spigot[sign] = (tau * d, u, tau * tau * d - u * u)
    s = floor_root(abs(rad))
    rem = rad * rad * d - s * s
    out = []
    for _ in range(k_max):
        num = b * a + shift
        rad_next = b * rad + t
        if rad and rad_next and (rad > 0) == (rad_next > 0):
            tau_d, u, e = spigot[1 if rad > 0 else -1]
            rem = b * b * rem + 2 * b * (abs(rad) * tau_d - s * u) + e
            s = b * s + u
            while s < 0 or rem >= 2 * s + 1:
                rem -= 2 * s + 1
                s += 1
        else:
            s = floor_root(abs(rad_next))
            rem = rad_next * rad_next * d - s * s
        if rad_next > 0:
            r = (num + s) // den
        elif rad_next < 0:
            r = (num - s - 1) // den
        else:
            r = num // den
        out.append(r)
        a, rad = num - r * den, rad_next
    return out


def r_from_jumps(jumps: JumpData, base: int) -> list[int]:
    """r_1..r_{k_max-1} read off a precomputed jump table."""
    return [jumps.c[i + 1] - base * jumps.c[i] for i in range(jumps.k_max - 1)]


# ---------------------------------------------------------------------------
# threshold tests and classification


@dataclass(frozen=True)
class PropositionPk:
    """Outcome of the exact threshold test at index k."""

    k: int
    holds: bool


def eval_Pk(norm: NormalizedInstance, k: int) -> PropositionPk:
    """Decide frac(base^k/alpha) >= frac(beta/alpha) exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lhs = ((norm.base**k) / norm.alpha).frac()
    rhs = (norm.beta / norm.alpha).frac()
    return PropositionPk(k=k, holds=lhs >= rhs)


def inverse_slope_digits(norm: NormalizedInstance) -> DigitStream:
    """Digit stream of frac(1/alpha) in the instance base."""
    return DigitStream((1 / norm.alpha).frac(), norm.base)


@dataclass(frozen=True)
class RkRecord:
    """One classified term of the jump-digit sequence.

    digit is entry k+1 of the expansion of frac(1/alpha); case_tag encodes
    which of the four shapes (see module docstring) produced r.  The record
    revalidates itself on construction.
    """

    k: int
    r: int
    case_tag: str
    pk: bool
    pk1: bool
    digit: int
    base: int

    def __post_init__(self):
        tag = _TAG_BY_TESTS[(self.pk, self.pk1)]
        if tag != self.case_tag:
            raise ConsistencyError(
                f"k={self.k}: tag {self.case_tag!r} does not follow from tests {tag!r}"
            )
        expected = self.digit + (0 if self.pk else self.base) - (0 if self.pk1 else 1)
        if self.r != expected:
            raise ConsistencyError(
                f"k={self.k}: case {self.case_tag} predicts r={expected}, got {self.r}"
            )
        if not 0 <= self.r <= 2 * self.base - 2:
            raise ConsistencyError(f"k={self.k}: r={self.r} outside 0..{2*self.base-2}")


def classify(norm: NormalizedInstance, k: int) -> RkRecord:
    """Classify index k and assert the case formula against r_direct."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = eval_Pk(norm, k).holds
    pk1 = eval_Pk(norm, k + 1).holds
    digit = inverse_slope_digits(norm).digit(k + 1)
    r = r_direct(norm, k)
    # RkRecord.__post_init__ raises if r disagrees with the case formula
    return RkRecord(
        k=k, r=r, case_tag=_TAG_BY_TESTS[(pk, pk1)], pk=pk, pk1=pk1,
        digit=digit, base=norm.base,
    )


def classify_range(norm: NormalizedInstance, k_max: int) -> list[RkRecord]:
    """Classify k = 1..k_max in one sweep.

    The state carried between steps is x_k = frac(base^k/alpha); the next
    digit is floor(base*x_k) and the next state its fractional remainder, so
    the whole range costs one floor and one comparison per index.
    """
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
            RkRecord(k=k, r=r, case_tag=_TAG_BY_TESTS[(pk, pk1)], pk=pk, pk1=pk1,
                     digit=digit, base=b)
        )
        x, pk = x_next, pk1
    return records


# ---------------------------------------------------------------------------
# structural checks


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
    rendered: str
    ok: bool


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
                rendered=word_str(to_word(adjusted, b)),
                ok=adjusted in candidates,
            )
        )
    return forms


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


@dataclass(frozen=True)
class PeriodicityVerdict:
    """Outcome of the periodicity decision for the jump-digit sequence."""

    kind: str  # "Periodic" | "AperiodicByTheorem" | "Inconclusive"
    preperiod: int | None = None
    period: int | None = None
    certificate: ModCycleCertificate | None = None
    reason: str | None = None
    window: int | None = None

    @property
    def certified(self) -> bool:
        """Every verdict is certified or honestly Inconclusive."""
        return self.kind != "Inconclusive"

    @classmethod
    def periodic(cls, preperiod: int, period: int,
                 certificate: ModCycleCertificate | None) -> "PeriodicityVerdict":
        return cls(kind="Periodic", preperiod=preperiod, period=period,
                   certificate=certificate)

    @classmethod
    def aperiodic_by_theorem(cls, reason: str) -> "PeriodicityVerdict":
        return cls(kind="AperiodicByTheorem", reason=reason)

    @classmethod
    def inconclusive(cls, window: int) -> "PeriodicityVerdict":
        return cls(kind="Inconclusive", window=window)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def minimize_cycle(values, cover_preperiod: int, cover_period: int) -> tuple[int, int]:
    """Smallest (preperiod, period) consistent with a proven cover.

    The caller promises values[i] == values[i + cover_period] for every
    i >= cover_preperiod (0-based list indices); that promise is re-verified
    on the list and a ConsistencyError raised if it fails.  Because the true
    period must divide the cover period and the true preperiod can only be
    shorter, checking divisors over one covered period and peeling the
    preperiod back yields the certified minimum, not just an empirical one.
    """
    if len(values) < cover_preperiod + 2 * cover_period:
        raise ValueError("window too short to verify the promised cover")
    window = range(cover_preperiod, cover_preperiod + cover_period)
    for i in window:
        if values[i] != values[i + cover_period]:
            raise ConsistencyError(
                f"promised period {cover_period} after {cover_preperiod} "
                f"breaks at index {i}"
            )
    period = cover_period
    for cand in _divisors(cover_period):
        if all(values[i] == values[i + cand] for i in window):
            period = cand
            break
    preperiod = cover_preperiod
    while preperiod > 0 and values[preperiod - 1] == values[preperiod - 1 + period]:
        preperiod -= 1
    return preperiod, period


def residue_orbit(base: int, modulus: int) -> tuple[int, int]:
    """(preperiod, period) of base^k mod modulus, k counted from 1."""
    seen: dict[int, int] = {}
    residue = base % modulus
    k = 1
    while residue not in seen:
        seen[residue] = k
        residue = residue * base % modulus
        k += 1
    return seen[residue] - 1, k - seen[residue]


def certify_cycle(
    values, modulus: int, orbit: tuple[int, int], hits=()
) -> PeriodicityVerdict:
    """Certify values (index k at values[k-1]) under the proven cover orbit.

    orbit is the (preperiod, period) of base^k mod modulus.  The cover is
    minimized against values, and every value is replayed against the
    resulting certificate; a mismatch raises ConsistencyError.
    """
    preperiod, period = minimize_cycle(values, *orbit)
    cert = ModCycleCertificate(
        modulus, *orbit, preperiod, period, tuple(values[:preperiod]),
        tuple(values[preperiod : preperiod + period]), tuple(hits),
    )
    for k, value in enumerate(values, 1):
        if cert.predict(k) != value:
            raise ConsistencyError(f"certificate replay fails at k={k}")
    return PeriodicityVerdict.periodic(preperiod, period, cert)


def detect_period(norm: NormalizedInstance, window: int) -> PeriodicityVerdict:
    """Decide ultimate periodicity of r with a certificate when possible.

    Rational alpha = p/q: the residue orbit of base^k mod p bounds the
    shape; certify_cycle minimizes and replays it on a stream that is
    cross-checked against the jump-table route.  Irrational alpha (a surd
    by construction): no tail of r ever repeats, because an ultimately
    periodic r would resum to a rational value for alpha; answered without
    search.  The window argument extends the replayed verification range
    beyond the orbit-derived minimum.  RkDigitSource and
    decide_d_periodicity take this verdict rather than derive it again.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not norm.alpha.is_rational:
        return PeriodicityVerdict.aperiodic_by_theorem(
            "alpha is an irrational quadratic surd; the jump-digit sequence "
            "has an ultimately periodic tail exactly when alpha is rational"
        )

    p = norm.alpha.as_fraction().numerator
    orbit = residue_orbit(norm.base, p)
    span = max(orbit[0] + 2 * orbit[1], window)
    stream = r_stream(norm, span)
    jumps = jump_positions(norm, span + 1)
    if r_from_jumps(jumps, norm.base) != stream:
        raise ConsistencyError("stream and jump-table routes disagree on r")
    return certify_cycle(stream, p, orbit, jumps.integrality_hits)
