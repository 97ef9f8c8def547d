"""Languages of digit streams read back through a base.

A stream of digits u_0, u_1, ... (digit values may equal or exceed the
base) determines integer values by the usual left-to-right fold

    w_0 = u_0,    w_{n+1} = base * w_n + u_{n+1},

and the language under study collects the canonical base-b renderings of
the w_n.  Everything here revolves around one question: is that language
regular?

The route to a positive answer is deliberately narrow.  Only a stream
whose digit sequence is *certified* ultimately periodic can be declared
Regular, and then only after each residue class of indices has been
packed into a word family V0 V1^m V2 whose correctness is proved by a
single exact integer identity (see certify_pattern).  A stream certified
aperiodic is declared NonRegular.  Everything else - finite prefixes,
streams whose structure we merely suspect - stays Inconclusive.  An
empirical match over any finite window is never promoted to a verdict.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import count, islice

from .automata import Dfa, from_patterns
from .jumpdigits import PeriodicityVerdict, detect_period, minimize_cycle, r_digits
from .numeration import as_digits, from_word, to_word, word_str
from .sequences import ConsistencyError, NormalizedInstance, jump_positions

Word = tuple[int, ...]


def _value(word: Word, base: int) -> int:
    # from_word insists on nonempty input; an empty word is worth 0 here
    return from_word(word, base) if word else 0


# ---------------------------------------------------------------------------
# digit sources
# ---------------------------------------------------------------------------


class DigitSource:
    """A (finite or infinite) stream of digits with optional periodicity proof.

    Subclasses yield their digits in order from _generate(), which a finite
    stream simply ends, and answer periodicity questions about themselves.
    This class pulls those digits into one buffer, only as far as digit(i)
    and prefix(count) ask.  The honesty contract: periodicity() may return
    a certified verdict only when the subclass can actually prove it,
    structurally or by the rational/irrational dichotomy.
    """

    def __init__(self):
        self._buffer: list[int] = []
        self._pending = self._generate()

    def _generate(self) -> Iterator[int]:
        raise NotImplementedError

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

    def prefix(self, count: int) -> Word:
        """The first count digits, or all of them if the stream is shorter."""
        self._fill(count)
        return tuple(self._buffer[:count])

    def periodicity(self, window: int) -> PeriodicityVerdict:
        raise NotImplementedError

    def _minimized_cover(self, preperiod, period, certificate=None):
        """Certified verdict for a proven cover, minimized on this stream."""
        lam, q = minimize_cycle(self.prefix(preperiod + 3 * period), preperiod, period)
        return PeriodicityVerdict.periodic(lam, q, certificate)

    def label(self) -> str:
        return type(self).__name__


class RkDigitSource(DigitSource):
    """Digits of the jump-count expansion of a normalized instance.

    Position 0 carries the first jump count c_1; position i >= 1 carries
    the digit r_i.  Folding these through the base reproduces the jump
    counts themselves: w_k = c_{k+1}.  Digits stay below 2*base - 1.
    The r digits come from one live r_digits generator, so serving n
    digits computes n - 1 of them.

    periodicity() shifts the instance's r verdict onto the stream and keeps
    the result per window.  That r verdict is the handed r_verdict
    (detect_period's, which settles every window), else one detect_period
    run per window asked for.
    """

    def __init__(self, norm: NormalizedInstance, r_verdict=None):
        self.norm = norm
        self._r_verdict = r_verdict
        self._lead = jump_positions(norm, 1).at(1)
        if self._lead > 2 * norm.base - 2:
            raise ConsistencyError(
                f"leading jump count {self._lead} exceeds the digit bound "
                f"{2 * norm.base - 2}"
            )
        self._verdicts: dict[int, PeriodicityVerdict] = {}
        super().__init__()

    def _generate(self) -> Iterator[int]:
        yield self._lead
        yield from r_digits(self.norm)

    def periodicity(self, window: int) -> PeriodicityVerdict:
        if window not in self._verdicts:
            self._verdicts[window] = self._periodicity(window)
        return self._verdicts[window]

    def _periodicity(self, window: int) -> PeriodicityVerdict:
        inner = self._r_verdict or detect_period(self.norm, window)
        if inner.kind != "Periodic":
            return inner
        # the stream prepends one extra digit (the leading jump count)
        # ahead of the r digits, shifting the preperiod up by one; the
        # shifted cover is then re-minimized against actual stream digits
        # (the lead digit often happens to extend the cycle leftward)
        return self._minimized_cover(
            inner.preperiod + 1, inner.period, inner.certificate
        )

    def label(self) -> str:
        norm = self.norm
        return f"jump digits of {norm.alpha}, {norm.beta} in base {norm.base}"


class PeriodicDigitSource(DigitSource):
    """An ultimately periodic stream given by its preperiod and period blocks."""

    def __init__(self, preperiod, period):
        self.preperiod = as_digits(preperiod)
        self.period = as_digits(period)
        if not self.period:
            raise ValueError("period block must be nonempty")
        if any(d < 0 for d in self.preperiod + self.period):
            raise ValueError("digits must be nonnegative")
        super().__init__()

    def _generate(self) -> Iterator[int]:
        yield from self.preperiod
        while True:
            yield from self.period

    def periodicity(self, window: int) -> PeriodicityVerdict:
        return self._minimized_cover(len(self.preperiod), len(self.period))

    def label(self) -> str:
        return (
            f"periodic stream {word_str(self.preperiod)}"
            f"({word_str(self.period)})*"
        )


class ExplicitDigitSource(DigitSource):
    """A finite digit word, treated as a prefix of an unknown stream."""

    def __init__(self, word):
        self.word = as_digits(word)
        if not self.word:
            raise ValueError("explicit word must be nonempty")
        if any(d < 0 for d in self.word):
            raise ValueError("digits must be nonnegative")
        super().__init__()

    def _generate(self) -> Iterator[int]:
        yield from self.word

    def periodicity(self, window: int) -> PeriodicityVerdict:
        # a finite prefix proves nothing about the tail either way
        return PeriodicityVerdict.inconclusive(min(window, len(self.word)))

    def label(self) -> str:
        return f"explicit word {word_str(self.word)}"


class ThueMorseBlockSource(DigitSource):
    """Blocks substituted along the Thue-Morse parity word.

    Position m of the Thue-Morse word (parity of the bit count of m)
    selects block A on 0 and block B on 1; the stream is the
    concatenation of the selected blocks.  With equal-length distinct
    blocks the stream is provably aperiodic: any eventual period of the
    stream would repeat length-|A| windows at block boundaries, and since
    the two blocks differ those windows decode back to the Thue-Morse
    word, which has no eventual period.
    """

    def __init__(self, block_a, block_b):
        self.block_a = as_digits(block_a)
        self.block_b = as_digits(block_b)
        if not self.block_a or not self.block_b:
            raise ValueError("both blocks must be nonempty")
        if any(d < 0 for d in self.block_a + self.block_b):
            raise ValueError("digits must be nonnegative")
        super().__init__()

    def _generate(self) -> Iterator[int]:
        for m in count():
            yield from self.block_b if m.bit_count() & 1 else self.block_a

    def periodicity(self, window: int) -> PeriodicityVerdict:
        if self.block_a == self.block_b:
            return self._minimized_cover(0, len(self.block_a))
        if len(self.block_a) == len(self.block_b):
            return PeriodicityVerdict.aperiodic_by_theorem(
                "uniform image of the Thue-Morse word under distinct "
                "equal-length blocks; a period of the image would decode "
                "to a period of Thue-Morse"
            )
        # distinct blocks of unequal length: almost surely aperiodic, but
        # the uniform-decoding argument above does not apply, so no proof
        return PeriodicityVerdict.inconclusive(window)

    def label(self) -> str:
        return (
            f"Thue-Morse blocks {word_str(self.block_a)}/"
            f"{word_str(self.block_b)}"
        )


# ---------------------------------------------------------------------------
# words and their lengths
# ---------------------------------------------------------------------------


def _fold(stream, base: int) -> Iterator[tuple[int, int]]:
    """(w_n, length of its rendering) for each n, in one left-to-right fold.

    The rendering of w_n has L digits exactly when w_n < b^L and L is
    least (one digit for 0).  Digits are nonnegative, so values never
    decrease, and tracking b^L as the values pass it costs one integer
    comparison per step.
    """
    value, length, power = 0, 1, base
    for u in stream:
        value = value * base + u
        while value >= power:
            power *= base
            length += 1
        yield value, length


class LanguageWords:
    """The first chunk of the language: values and lengths, words on demand.

    One fold of the source digits stores, for every n <= n_top, the value
    w_n and the length of its canonical rendering.  Most readers need
    only those: find_pattern tests lengths before any word, and the
    family check compares values and lengths.  word(n) renders words
    with the carry renderer below, only as far as the largest n asked
    for; the words property renders every one.
    """

    def __init__(self, base: int, stream: Word, source_label: str = ""):
        self.base = base
        self.n_top = len(stream) - 1
        self.source_label = source_label
        values, lengths = zip(*_fold(stream, base))
        self.values: tuple[int, ...] = values
        self.lengths: tuple[int, ...] = lengths
        self._stream = stream
        self._rendered: list[Word] = []
        self._digits: list[int] = []  # rendering of the last word; [] while 0

    def word(self, n: int) -> Word:
        """The canonical rendering of w_n, for 0 <= n <= n_top.

        Renderings are carried forward rather than recomputed: the word of
        w_{n+1} = base * w_n + u_{n+1} is the word of w_n with u_{n+1}
        appended, after carries are pushed leftward with divmod.  A digit
        may exceed the base by any amount (explicit and Thue-Morse sources
        allow that), so a carry can exceed 1, and a carry out of the
        leading digit is rendered as several new leading digits.  Each
        step costs the carry run plus one tuple copy, instead of a full
        radix conversion of a value that keeps growing.
        """
        if not 0 <= n <= self.n_top:
            raise IndexError(f"word index {n} outside 0..{self.n_top}")
        base, digits, rendered = self.base, self._digits, self._rendered
        for i in range(len(rendered), n + 1):
            u = self._stream[i]
            digits.append(u)
            j = len(digits) - 1
            carry, digits[j] = divmod(u, base)
            while carry:
                j -= 1
                if j < 0:
                    digits[:0] = to_word(carry, base)
                    break
                carry, digits[j] = divmod(digits[j] + carry, base)
            if not self.values[i]:
                digits.clear()  # a zero start appends zero digits to nothing
            rendered.append(tuple(digits) or (0,))
        return rendered[n]

    @property
    def words(self) -> tuple[Word, ...]:
        """Every rendering, w_0 to w_{n_top}; reading it renders them all."""
        self.word(self.n_top)
        return tuple(self._rendered)

    def word_strs(self) -> list[str]:
        return [word_str(w) for w in self.words]


def words(
    src: DigitSource, base: int, n_max: int, *, allow_zero_start: bool = False
) -> LanguageWords:
    """Fold the first n_max + 1 digits of src through base.

    Returns the values and rendering lengths of w_0 .. w_{n_top}, where
    n_top is n_max or the last index of a shorter finite stream; the
    words themselves are rendered only as far as they are read (see
    LanguageWords).

    The very first digit normally must be nonzero, else w_0 and later
    values silently shed a leading position; passing allow_zero_start
    accepts that reading (the language is defined by values, and a zero
    start is legitimate under that convention).
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    stream = src.prefix(n_max + 1)
    if stream[0] == 0 and not allow_zero_start:
        raise ValueError(
            "stream starts with digit 0; pass allow_zero_start=True to "
            "read it by value anyway"
        )
    return LanguageWords(base, stream, src.label())


@dataclass(frozen=True)
class LengthClaimReport:
    """Outcome of checking that word lengths grow by one per step."""

    stable_from: int
    anomalies: tuple[tuple[int, int], ...]
    checked_to: int
    violation: bool = False


def _report_from_lengths(lengths: Sequence[int]) -> LengthClaimReport:
    n_top = len(lengths) - 1
    anomalies = []
    for n in range(n_top):
        delta = lengths[n + 1] - lengths[n]
        if delta != 1:
            anomalies.append((n, delta))
    stable_from = anomalies[-1][0] + 1 if anomalies else 0
    violation = False
    clean_run_started = None
    run = 0
    for n in range(n_top):
        if lengths[n + 1] - lengths[n] == 1:
            run += 1
            if run >= 10 and clean_run_started is None:
                clean_run_started = n - run + 1
        else:
            if clean_run_started is not None and lengths[n + 1] - lengths[n] >= 2:
                violation = True
            run = 0
    return LengthClaimReport(stable_from, tuple(anomalies), n_top, violation)


def verify_length_claim(lw: LanguageWords) -> LengthClaimReport:
    """Find the least N past which every step adds exactly one digit.

    Records every step n (from w_n to w_{n+1}) whose length delta is not
    +1, then reports N = last bad step + 1 (or 0 when every step is
    clean).  A jump of two or more digits occurring after a long clean
    run is flagged as a violation: under the intended digit bounds that
    should never happen once lengths have settled.
    """
    return _report_from_lengths(lw.lengths)


def length_claim_for_source(
    src: DigitSource, base: int, n_max: int
) -> LengthClaimReport:
    """verify_length_claim without keeping any values or words.

    A deep scan (tens of thousands of indices) keeps
    one length per index and no values, whose total size would grow with
    the square of n_max.
    """
    if base < 2:
        raise ValueError("base must be at least 2")
    if n_max < 1:
        raise ValueError("need at least two words to compare lengths")
    stream = src.prefix(n_max + 1)
    return _report_from_lengths([length for _, length in _fold(stream, base)])


# ---------------------------------------------------------------------------
# pattern search and certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternCandidate:
    """An empirically consistent V0 V1^m V2 split, not yet proved."""

    base: int
    v0: Word
    v1: Word
    v2: Word
    period: int
    residue: int
    anchor: int


def _family_consistent(
    lw: LanguageWords, n0: int, p: int, v0: Word, v1: Word, v2: Word
) -> bool:
    """Whether w_{n0+mp} renders as V0 V1^m V2 for every n0 + mp <= n_top.

    find_pattern calls this with V0 V2 a split of the rendering of w_n0,
    |V1| = p, and at least three members inside the window.  Member 1 is
    compared as a word (a mismatch there is the common, cheap reject), so
    every digit of V0, V1 and V2 lies below the base.  Each later member
    is compared by value and length.  With E_m = [V0 V1^m V2]_b,
    concatenation gives

        E_{m+1} = b^p E_m + ([V1 V2]_b - b^p [V2]_b),

    and that constant equals E_1 - b^p E_0, read off the two stored
    values.  Two digit strings below the base with the same length and
    the same value are equal, so comparing (E_m, |V0 V2| + m p) with the
    stored value and length of w_{n0+mp} decides exactly what comparing
    the words would, without building a word per member.
    """
    n1 = n0 + p
    if lw.word(n1) != v0 + v1 + v2:
        return False
    step = lw.base**p
    value, length = lw.values[n1], lw.lengths[n1]
    constant = value - step * lw.values[n0]
    for n in range(n1 + p, lw.n_top + 1, p):
        value = step * value + constant
        length += p
        if value != lw.values[n] or length != lw.lengths[n]:
            return False
    return True


def _common_suffix(short: Word, long: Word) -> int:
    """Length of the longest common suffix of two words, len(short) at most.

    A matching suffix of length m implies that every shorter one matches,
    so doubling m (capped at len(short)) until a slice comparison fails and
    then bisecting finds the longest with O(log m) tuple comparisons
    instead of m interpreted digit steps.  A whole-word match, the costly
    case, ends the doubling with one comparison of the full length.
    """
    n = len(short)
    lo, hi = 0, 1  # a suffix of length lo matches; hi is the next one tried
    while lo < n and short[-hi:] == long[-hi:]:
        lo, hi = hi, min(2 * hi, n)
    while hi - lo > 1:  # here the suffix of length hi does not match
        mid = (lo + hi) // 2
        if short[-mid:] == long[-mid:]:
            lo = mid
        else:
            hi = mid
    return lo


def find_pattern(
    lw: LanguageWords, p: int, residue: int, min_anchor: int = 0
) -> PatternCandidate | None:
    """Earliest split V0 V1^m V2 consistent with the whole window.

    Scans anchors n0 = residue, residue+p, ... (never below min_anchor)
    and, at each, the leftmost split: every split that fits an anchor
    renders one and the same family (see the rotation argument in the
    body), so each anchor tests one family.  A candidate must match
    every word of its index class inside the window: w_{n0+mp} must
    equal V0 V1^m V2 exactly for all m with n0 + mp <= n_top.  Returns
    None when no split survives, which is the expected outcome for a
    stream with no ultimately periodic structure.  At least three family
    members must fit inside the window, with the lengths a family needs,
    before a split is considered; anchors are tested on the stored
    lengths first, and only a fitting anchor has its words rendered.
    """
    if p < 1:
        raise ValueError("pattern period must be positive")
    if not 0 <= residue < p:
        raise ValueError("residue must lie in range(p)")
    n0 = residue
    if n0 < min_anchor:
        n0 += ((min_anchor - n0 + p - 1) // p) * p
    lengths = lw.lengths
    while n0 + 2 * p <= lw.n_top:
        size = lengths[n0]
        if lengths[n0 + p] == size + p and lengths[n0 + 2 * p] == size + 2 * p:
            w0, w1 = lw.word(n0), lw.word(n0 + p)
            # split i renders w1 as V0 V1 V2 exactly when w0[:i] is a
            # prefix of w1 and w0[i:] a suffix of it, i.e. for i from
            # lo = len(w0) - (common suffix length) up to the common
            # prefix length.  Inside that range w1[i] == w0[i] == w1[i+p],
            # so split i+1 only rotates V1 and renders the same family:
            #   w0[:i+1] rot(V1)^m w0[i+1:] == w0[:i] V1^m w0[i:].
            # The earliest split therefore stands for the whole range; if
            # it is not a common prefix the range is empty, and the family
            # check rejects it at its second member, w1.
            cs = _common_suffix(w0, w1)
            i = max(1, len(w0) - cs)
            v0, v1, v2 = w0[:i], w1[i : i + p], w0[i:]
            if _family_consistent(lw, n0, p, v0, v1, v2):
                return PatternCandidate(lw.base, v0, v1, v2, p, residue, n0)
        n0 += p
    return None


class PatternRejection(ConsistencyError):
    """A candidate failed certification; .clause names the failing test."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"clause ({clause}): {message}")
        self.clause = clause


@dataclass(frozen=True)
class CertifiedPattern:
    """A proved word family: (w_{anchor + m*period})_base = V0 V1^m V2.

    The proof is an induction.  Base: the rendering of w_anchor is V0 V2.
    Step: the digit block of the source at positions anchor+1 .. anchor+p
    is the same for every family member (the stream's certified period
    divides p and the anchor sits past the preperiod), so
    w_{n+p} = base^p * w_n + constant along the family, and the identity

        constant = [V1 V2]_base - base^p * [V2]_base

    turns that recurrence into "append one more V1 after V0".  All digits
    lie below the base and V0 starts nonzero, so the composite words are
    canonical renderings, not merely value-equal ones.
    """

    base: int
    v0: Word
    v1: Word
    v2: Word
    period: int
    anchor: int
    residue: int
    constant: int

    def word_for(self, m: int) -> Word:
        if m < 0:
            raise ValueError("m must be nonnegative")
        return self.v0 + self.v1 * m + self.v2

    def describe(self) -> str:
        return (
            f"{word_str(self.v0)} ({word_str(self.v1)})^m {word_str(self.v2)}"
            f" from n={self.anchor}, C={self.constant}"
        )


def certify_pattern(
    src: DigitSource, candidate: PatternCandidate, window: int = 1000
) -> CertifiedPattern:
    """Prove a candidate split or raise PatternRejection with the clause.

    Four clauses, checked in order:

      (i)   base case: rendering of w_anchor equals V0 V2, where the
            value is recomputed from the source digits alone and
            rendered by to_word, independently of the carry rendering
            in words() that the candidate was found on;
      (ii)  structural recurrence: the source is certified ultimately
            periodic, its period divides the pattern period, and the
            anchor's digit block sits entirely past the preperiod;
      (iii) the constant identity C = [V1 V2]_b - b^p [V2]_b, with C the
            value of the recurring digit block;
      (iv)  digit validity: all of V0 V1 V2 use digits below the base,
            V0 is nonempty with nonzero leading digit, |V1| = p.

    Together these prove the rendering of w_{anchor+m*period} is exactly
    V0 V1^m V2 for every m >= 0 (the m = 1 word needs no separate check:
    it follows from the recurrence plus the constant identity).
    """
    b = candidate.base
    p = candidate.period
    n0 = candidate.anchor

    value = src.digit(0)
    for i in range(1, n0 + 1):
        value = value * b + src.digit(i)
    if to_word(value, b) != candidate.v0 + candidate.v2:
        raise PatternRejection(
            "i",
            f"w_{n0} renders as {word_str(to_word(value, b))}, "
            f"not {word_str(candidate.v0 + candidate.v2)}",
        )

    verdict = src.periodicity(window)
    if verdict.kind != "Periodic":
        raise PatternRejection(
            "ii", f"source periodicity is {verdict.kind}, not certified Periodic"
        )
    if p % verdict.period != 0:
        raise PatternRejection(
            "ii",
            f"pattern period {p} is not a multiple of the stream period "
            f"{verdict.period}",
        )
    if n0 + 1 < verdict.preperiod:
        raise PatternRejection(
            "ii",
            f"anchor {n0} starts its digit block inside the preperiod "
            f"(needs index >= {verdict.preperiod})",
        )
    block = tuple(src.digit(n0 + 1 + j) for j in range(p))
    constant = from_word(block, b)

    split_constant = _value(candidate.v1 + candidate.v2, b) - b**p * _value(
        candidate.v2, b
    )
    if constant != split_constant:
        raise PatternRejection(
            "iii",
            f"recurring block value {constant} differs from the split's "
            f"[V1 V2] - b^p [V2] = {split_constant}",
        )

    if not candidate.v0:
        raise PatternRejection("iv", "V0 is empty")
    if candidate.v0[0] == 0:
        raise PatternRejection("iv", "V0 has a leading zero")
    if len(candidate.v1) != p:
        raise PatternRejection(
            "iv", f"V1 has length {len(candidate.v1)}, expected {p}"
        )
    for part, name in ((candidate.v0, "V0"), (candidate.v1, "V1"), (candidate.v2, "V2")):
        if any(not 0 <= d < b for d in part):
            raise PatternRejection("iv", f"{name} uses a digit outside base {b}")

    return CertifiedPattern(
        b,
        candidate.v0,
        candidate.v1,
        candidate.v2,
        p,
        n0,
        candidate.residue,
        constant,
    )


# ---------------------------------------------------------------------------
# the regularity decision
# ---------------------------------------------------------------------------


@dataclass
class RegularityVerdict:
    """Outcome of decide_regularity.

    kind is one of "Regular", "NonRegular", "Inconclusive".  Regular
    verdicts carry a minimal DFA, the certified patterns behind it, and
    the finite list of exceptional early words.  NonRegular verdicts
    carry the aperiodicity certificate.  Inconclusive verdicts carry the
    window searched and whatever evidence was gathered.
    """

    kind: str
    dfa: Dfa | None = None
    patterns: tuple[CertifiedPattern, ...] = ()
    exceptions: tuple[Word, ...] = ()
    certificate: PeriodicityVerdict | None = None
    window: int | None = None
    evidence: dict = field(default_factory=dict)

    @classmethod
    def regular(cls, dfa, patterns, exceptions, certificate):
        return cls(
            "Regular",
            dfa=dfa,
            patterns=tuple(patterns),
            exceptions=tuple(exceptions),
            certificate=certificate,
        )

    @classmethod
    def non_regular(cls, certificate):
        return cls("NonRegular", certificate=certificate)

    @classmethod
    def inconclusive(cls, window, evidence):
        return cls("Inconclusive", window=window, evidence=dict(evidence))


def _pattern_scan_evidence(lw: LanguageWords, max_period: int = 8) -> dict:
    found = {}
    for p in range(1, max_period + 1):
        hits = []
        for residue in range(p):
            cand = find_pattern(lw, p, residue)
            hits.append(None if cand is None else cand.anchor)
        found[p] = tuple(hits)
    return found


MIN_WINDOW = 8


def decide_regularity(
    src: DigitSource, base: int, window: int = 1000
) -> RegularityVerdict:
    """Decide whether the rendered-value language of src is regular.

    The stream's periodicity verdict comes first.  Certified aperiodic
    stream: NonRegular, carrying the certificate, with no word rendered.
    Otherwise the window's digits are folded into values and lengths,
    and words are rendered only as far as the pattern search and the
    exception list read them.  Certified ultimately
    periodic stream: every residue class modulo the stream period gets a
    certified word family, the words before the family anchors become
    explicit exceptions, and the assembled minimal DFA is returned in a
    Regular verdict.  Anything weaker (finite words, unproved structure,
    too small a window): Inconclusive, with the empirical pattern scan
    and length-claim report as evidence.
    """
    if window < MIN_WINDOW:
        raise ValueError("window must allow at least a handful of words")
    if base < 2:
        raise ValueError("base must be at least 2")
    verdict = src.periodicity(window)
    if verdict.kind == "AperiodicByTheorem":
        return RegularityVerdict.non_regular(verdict)

    lw = words(src, base, window, allow_zero_start=True)

    if verdict.kind == "Periodic":
        if lw.values[-1] == 0:
            # values are nondecreasing, so a zero at the top means the
            # certified-periodic stream is all zeros and the language is
            # the single rendering of 0: finite, hence regular
            zero_word = to_word(0, base)
            dfa = from_patterns((), [zero_word], base)
            return RegularityVerdict.regular(dfa, (), (zero_word,), verdict)
        q = verdict.period
        patterns = []
        for residue in range(q):
            pattern = None
            min_anchor = 0
            while True:
                cand = find_pattern(lw, q, residue, min_anchor)
                if cand is None:
                    break
                try:
                    pattern = certify_pattern(src, cand, window)
                    break
                except PatternRejection:
                    min_anchor = cand.anchor + q
            if pattern is None:
                return RegularityVerdict.inconclusive(
                    window,
                    {
                        "note": (
                            f"stream certified periodic but residue class "
                            f"{residue} mod {q} admitted no certifiable "
                            f"pattern inside the window"
                        ),
                        "length_claim": verify_length_claim(lw),
                    },
                )
            patterns.append(pattern)
        exceptions = []
        for pattern in patterns:
            n = pattern.residue
            while n < pattern.anchor:
                word = lw.word(n)
                if word not in exceptions:
                    exceptions.append(word)
                n += q
        dfa = from_patterns(
            [(p.v0, p.v1, p.v2) for p in patterns], exceptions, base
        )
        return RegularityVerdict.regular(dfa, patterns, exceptions, verdict)

    return RegularityVerdict.inconclusive(
        window,
        {
            "note": "stream has no certificate either way",
            "length_claim": verify_length_claim(lw),
            "pattern_scan": _pattern_scan_evidence(lw),
        },
    )
