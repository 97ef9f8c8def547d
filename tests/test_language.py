"""Tests for the language module: digit sources, word folding, patterns.

The Thue-Morse fixtures deserve a note.  Both blocks "10" and "02" fold
to the value 2 in base 2, so the odd-indexed words of that stream are
exactly (10)^{m+1}: a real, infinitely consistent word family that the
pattern search must find.  Non-regularity of the whole language comes
from the even-indexed class, whose digit blocks straddle two Thue-Morse
blocks and vary forever.  The tests below freeze both facts.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from floorlog import jumpdigits, language
from floorlog.automata import trie_dfa, equivalent, equivalent_to_length
from floorlog.battery import BATTERY, by_name
from floorlog.exact import ExactReal
from floorlog.language import (
    CertifiedPattern,
    ExplicitDigitSource,
    LanguageWords,
    PatternCandidate,
    PatternRejection,
    PeriodicDigitSource,
    RkDigitSource,
    ThueMorseBlockSource,
    certify_pattern,
    decide_regularity,
    find_pattern,
    verify_length_claim,
    words,
)
from floorlog.numeration import from_word, to_word, word_str
from floorlog.sequences import FloorLogInstance, normalize

from oracles import enumerate_words, find_pattern_unpruned


def norm_of(alpha, beta, base):
    inst = FloorLogInstance(
        ExactReal.parse(str(alpha)), ExactReal.parse(str(beta)), base
    )
    return normalize(inst)


def rk_source(alpha, beta, base):
    return RkDigitSource(norm_of(alpha, beta, base))


# ---------------------------------------------------------------------------
# sources and word folding
# ---------------------------------------------------------------------------


def test_rk_source_three_halves_digits():
    src = rk_source("3/2", 0, 2)
    assert src.prefix(8) == (1, 0, 1, 0, 1, 0, 1, 0)
    assert "base 2" in src.label()


def test_words_three_halves_match_jump_counts():
    lw = words(rk_source("3/2", 0, 2), 2, 10)
    assert lw.values[:6] == (1, 2, 5, 10, 21, 42)
    assert lw.word_strs()[:5] == ["1", "10", "101", "1010", "10101"]


def test_words_follow_horner_fold():
    src = PeriodicDigitSource("21", "102")
    lw = words(src, 3, 30)
    for n in range(30):
        assert lw.values[n + 1] == 3 * lw.values[n] + src.digit(n + 1)
    # renderings are the canonical ones
    assert all(from_word(w, 3) == v for w, v in zip(lw.words[1:], lw.values[1:]))


def test_tm_blocks_digits_and_words():
    tm = ThueMorseBlockSource("10", "02")
    assert "".join(str(d) for d in tm.prefix(16)) == "1002021002101002"
    lw = words(tm, 2, 6)
    assert lw.values == (1, 2, 4, 10, 20, 42, 85)
    assert lw.word_strs() == [
        "1", "10", "100", "1010", "10100", "101010", "1010101",
    ]


def test_words_rejects_zero_start_without_flag():
    src = PeriodicDigitSource("0", "1")
    with pytest.raises(ValueError, match="allow_zero_start"):
        words(src, 2, 5)
    lw = words(src, 2, 5, allow_zero_start=True)
    assert lw.values[0] == 0
    assert lw.words[0] == (0,)


def test_words_explicit_source_stops_at_its_end():
    lw = words(ExplicitDigitSource("1012"), 2, 50)
    assert lw.n_top == 3
    assert len(lw.words) == 4


def test_words_render_on_demand_in_any_order():
    # zero start, and digits past 2b in base 3 (carries of 2)
    src = PeriodicDigitSource((0, 7), (8, 1, 2))
    lw = words(src, 3, 60, allow_zero_start=True)
    values = [src.digit(0)]
    for n in range(1, 61):
        values.append(3 * values[-1] + src.digit(n))
    assert lw.values == tuple(values)
    assert lw.lengths == tuple(len(w) for w in enumerate_words(values, 3))
    for n in (17, 3, 42, 0, 60, 29, 42):
        assert lw.word(n) == to_word(values[n], 3)
    assert list(lw.words) == enumerate_words(values, 3)
    assert lw.word(17) == to_word(values[17], 3)


@pytest.mark.parametrize("n", [-1, 61, 1000])
def test_reading_past_the_window_raises(n):
    lw = words(PeriodicDigitSource("1", "02"), 2, 60)
    with pytest.raises(IndexError):
        lw.word(n)


@pytest.mark.parametrize(
    "inst", [i for i in BATTERY if i.alpha_is_rational], ids=lambda i: i.name
)
def test_decide_renders_few_words_on_rational_battery(monkeypatch, inst):
    folded = []

    def spy(*args, **kwargs):
        folded.append(words(*args, **kwargs))
        return folded[-1]

    monkeypatch.setattr(language, "words", spy)
    verdict = decide_regularity(RkDigitSource(inst.normalized()), inst.base, 1000)
    assert verdict.kind == "Regular"
    (lw,) = folded
    assert lw.n_top == 1000
    assert len(lw._rendered) <= 64


def test_words_argument_validation():
    src = PeriodicDigitSource("", "1")
    with pytest.raises(ValueError):
        words(src, 1, 5)
    with pytest.raises(ValueError):
        words(src, 2, -1)


def test_source_validation():
    with pytest.raises(ValueError):
        PeriodicDigitSource("1", "")
    with pytest.raises(ValueError):
        ThueMorseBlockSource("", "01")
    with pytest.raises(ValueError):
        ExplicitDigitSource("")
    with pytest.raises(IndexError):
        ExplicitDigitSource("10").digit(2)
    with pytest.raises(IndexError):
        PeriodicDigitSource("1", "0").digit(-1)


def test_rk_source_periodicity_is_minimized_at_stream_level():
    # r has cover (0, 2); prepending the lead digit 1 to 0,1,0,1,...
    # still leaves a pure cycle, so the stream preperiod stays 0
    verdict = rk_source("3/2", 0, 2).periodicity(100)
    assert verdict.kind == "Periodic"
    assert (verdict.preperiod, verdict.period) == (0, 2)
    assert verdict.certified


def test_rk_source_surd_periodicity_passes_through():
    verdict = rk_source("sqrt(2)", 0, 2).periodicity(100)
    assert verdict.kind == "AperiodicByTheorem"
    assert verdict.certified


def test_rk_source_proves_periodicity_once(monkeypatch):
    calls = []
    real = language.detect_period

    def counted(norm, window):
        calls.append(window)
        return real(norm, window)

    monkeypatch.setattr(language, "detect_period", counted)
    verdict = decide_regularity(rk_source("3/2", 0, 2), 2)
    assert verdict.kind == "Regular"
    assert calls == [1000]


@pytest.mark.parametrize(
    "alpha, beta, base",
    [("3/2", 0, 2), ("5/3", "1/3", 2), ("7/5", "1/3", 10), (1, 0, 2), ("sqrt(2)", 0, 2)],
)
def test_rk_source_shifts_a_handed_r_verdict(monkeypatch, alpha, beta, base):
    norm = norm_of(alpha, beta, base)
    r_verdict = language.detect_period(norm, 1000)
    derived = RkDigitSource(norm).periodicity(1000)
    monkeypatch.setattr(language, "detect_period", None)  # must not be called
    assert RkDigitSource(norm, r_verdict).periodicity(1000) == derived


@pytest.mark.parametrize("alpha, beta, base", [("7/5", "1/3", 10), ("sqrt(2)", 0, 2)])
def test_rk_source_computes_each_jump_digit_once(monkeypatch, alpha, beta, base):
    computed = []

    def counted(norm):
        for r in jumpdigits.r_digits(norm):
            computed.append(r)
            yield r

    monkeypatch.setattr(language, "r_digits", counted)
    norm = norm_of(alpha, beta, base)
    src = RkDigitSource(norm)
    # grow digit by digit, then in bulk, then through words and back
    for i in range(501):
        src.digit(i)
    assert src.prefix(1001)[1:] == tuple(jumpdigits.r_stream(norm, 1000))
    words(src, base, 1000, allow_zero_start=True)
    src.digit(1000)
    assert len(computed) == 1000


def test_tm_source_periodicity_variants():
    aper = ThueMorseBlockSource("10", "02").periodicity(100)
    assert aper.kind == "AperiodicByTheorem" and aper.certified
    same = ThueMorseBlockSource("10", "10").periodicity(100)
    assert same.kind == "Periodic" and same.certified
    unequal = ThueMorseBlockSource("1", "02").periodicity(100)
    assert unequal.kind == "Inconclusive"


# ---------------------------------------------------------------------------
# length claim
# ---------------------------------------------------------------------------


def test_length_claim_examples():
    for src, base in [
        (ThueMorseBlockSource("10", "02"), 2),
        (rk_source("3/2", 0, 2), 2),
    ]:
        lw = words(src, base, 40)
        report = verify_length_claim(lw)
        assert report.stable_from == 0
        assert report.anomalies == ()
        assert not report.violation


def test_length_claim_vacuous_for_single_word():
    lw = words(ExplicitDigitSource("101"), 2, 0)
    report = verify_length_claim(lw)
    assert report.stable_from == 0
    assert report.checked_to == 0


def test_length_claim_records_anomalies():
    # digit 3 in base 2 makes the value jump past one binary length
    src = PeriodicDigitSource((1, 3), (0,))
    lw = words(src, 2, 20)
    report = verify_length_claim(lw)
    assert report.anomalies == ((0, 2),)
    assert report.stable_from == 1
    assert not report.violation


def test_length_claim_flags_late_jump_as_violation():
    # a bounded digit alphabet cannot jump two lengths once values are
    # large, so forcing the flag takes an absurdly large explicit digit
    src = ExplicitDigitSource((1,) + (0,) * 11 + (8192,))
    report = verify_length_claim(words(src, 2, 30))
    assert report.violation
    assert any(delta >= 2 for _, delta in report.anomalies)


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------


def test_find_pattern_three_halves_residue_zero():
    lw = words(rk_source("3/2", 0, 2), 2, 30)
    cand = find_pattern(lw, 2, 0)
    assert (cand.v0, cand.v1, cand.v2) == ((1,), (0, 1), ())
    assert cand.anchor == 0


def test_find_pattern_three_halves_residue_one():
    lw = words(rk_source("3/2", 0, 2), 2, 30)
    cand = find_pattern(lw, 2, 1)
    assert (cand.v0, cand.v1, cand.v2) == ((1,), (0, 1), (0,))
    assert cand.anchor == 1


def test_find_pattern_respects_min_anchor():
    lw = words(rk_source("3/2", 0, 2), 2, 30)
    cand = find_pattern(lw, 2, 0, min_anchor=1)
    assert cand.anchor == 2
    assert (cand.v0, cand.v1, cand.v2) == ((1,), (0, 1), (0, 1))


def test_find_pattern_argument_validation():
    lw = words(rk_source("3/2", 0, 2), 2, 10)
    with pytest.raises(ValueError):
        find_pattern(lw, 0, 0)
    with pytest.raises(ValueError):
        find_pattern(lw, 2, 2)


@pytest.fixture(scope="module")
def tm_window():
    return words(ThueMorseBlockSource("10", "02"), 2, 1000)


def test_find_pattern_tm_odd_class_family_is_real(tm_window):
    # [1,0] and [0,2] both fold to 2, so odd-index words are (10)^{m+1}
    # for the entire stream; the earliest split writes that as 1 (01)^m 0
    cand = find_pattern(tm_window, 2, 1)
    assert (cand.v0, cand.v1, cand.v2) == ((1,), (0, 1), (0,))
    assert cand.anchor == 1


def test_find_pattern_tm_even_class_absent(tm_window):
    # blocks straddling two Thue-Morse blocks take values 1, 0, 5, 4
    # following consecutive letter pairs, so no split survives the window
    assert find_pattern(tm_window, 2, 0) is None


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_find_pattern_tm_odd_periods_absent(tm_window, p):
    # odd p mixes block-aligned and straddling positions in one class
    for residue in range(p):
        assert find_pattern(tm_window, p, residue) is None


def _pattern_windows():
    yield words(ThueMorseBlockSource("10", "02"), 2, 300)
    yield words(rk_source("3/2", 0, 2), 2, 120)
    rng = random.Random(2718)
    for base in (2, 2, 3, 3, 10, 10):
        pre = [rng.randrange(2 * base - 1) for _ in range(rng.randint(0, 5))]
        per = [rng.randrange(2 * base - 1) for _ in range(rng.randint(1, 6))]
        src = PeriodicDigitSource(pre, per)
        yield words(src, base, 120, allow_zero_start=True)
    # finite words: a period broken once, and a slowly drifting digit
    yield words(ExplicitDigitSource("1" + "01" * 40 + "2" + "01" * 40), 2, 200)
    yield words(ExplicitDigitSource([1 + (i // 17) % 3 for i in range(150)]), 3, 200)


def test_find_pattern_matches_unpruned_reference_scan():
    # testing only the leftmost split and comparing whole words must
    # leave every hit, and every miss, exactly as the plain scan finds them
    for lw in _pattern_windows():
        for p in range(1, 9):
            for residue in range(p):
                for min_anchor in (0, 11):
                    ref = find_pattern_unpruned(lw.words, p, residue, min_anchor)
                    want = None
                    if ref is not None:
                        v0, v1, v2, anchor = ref
                        want = PatternCandidate(lw.base, v0, v1, v2, p, residue, anchor)
                    got = find_pattern(lw, p, residue, min_anchor)
                    assert got == want, (lw.source_label, p, residue, min_anchor)


def family_consistent_by_words(words, n0, p, v0, v1, v2):
    """The family check as it was before values and lengths: every member
    of the class inside the window compared as a word, the expected word
    grown by one V1 after V0 per member."""
    expected = v0 + v2
    head = v0 + v1
    for n in range(n0, len(words), p):
        if words[n] != expected:
            return False
        expected = head + expected[len(v0) :]
    return True


@st.composite
def st_any_source(draw):
    base = draw(st_base)
    digit = st.integers(0, 3 * base)  # a digit of 2b or more carries 2 or more
    kind = draw(st.sampled_from(["periodic", "explicit", "tm-blocks"]))
    if kind == "periodic":
        pre = draw(st.lists(digit, max_size=5))
        return base, PeriodicDigitSource(pre, draw(st.lists(digit, min_size=1, max_size=6)))
    if kind == "explicit":
        return base, ExplicitDigitSource(draw(st.lists(digit, min_size=1, max_size=60)))
    block = st.lists(digit, min_size=1, max_size=3)
    return base, ThueMorseBlockSource(draw(block), draw(block))


@given(st_any_source())
@example((2, ExplicitDigitSource("1" + "01" * 10 + "2" + "01" * 10)))
@example((3, PeriodicDigitSource((0, 0, 8), (7, 2))))
@example((2, ThueMorseBlockSource("10", "02")))
@settings(max_examples=40, deadline=None)
def test_family_check_matches_word_comparison(case):
    # every anchor and split find_pattern can try: three members with the
    # lengths of a family, every split of w_n0, V1 read off w_(n0+p)
    base, src = case
    lw = words(src, base, 40, allow_zero_start=True)
    all_words = lw.words
    for p in range(1, 7):
        for n0 in range(lw.n_top - 2 * p + 1):
            size = len(all_words[n0])
            if len(all_words[n0 + p]) != size + p or len(all_words[n0 + 2 * p]) != size + 2 * p:
                continue
            w0, w1 = all_words[n0], all_words[n0 + p]
            for i in range(1, size + 1):
                v0, v1, v2 = w0[:i], w1[i : i + p], w0[i:]
                want = family_consistent_by_words(all_words, n0, p, v0, v1, v2)
                got = language._family_consistent(lw, n0, p, v0, v1, v2)
                assert got == want, (src.label(), p, n0, i)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_three_halves_residue_zero():
    src = rk_source("3/2", 0, 2)
    lw = words(src, 2, 30)
    pat = certify_pattern(src, find_pattern(lw, 2, 0))
    assert pat.constant == 1
    assert pat.word_for(2) == (1, 0, 1, 0, 1)


def test_certify_three_halves_residue_one():
    src = rk_source("3/2", 0, 2)
    lw = words(src, 2, 30)
    pat = certify_pattern(src, find_pattern(lw, 2, 1))
    assert pat.constant == 2
    assert word_str(pat.word_for(0)) == "10"


def test_certified_pattern_replays_against_source():
    src = rk_source("3/2", 0, 2)
    lw = words(src, 2, 30)
    for residue in (0, 1):
        pat = certify_pattern(src, find_pattern(lw, 2, residue))
        value = src.digit(0)
        for i in range(1, pat.anchor + 10 * pat.period + 1):
            value = 2 * value + src.digit(i)
            m, extra = divmod(i - pat.anchor, pat.period)
            if i >= pat.anchor and extra == 0:
                assert from_word(pat.word_for(m), 2) == value


def test_certify_rejects_wrong_split_at_constant_identity():
    # same words, same anchor, V1 deliberately misread as "10"
    src = rk_source("3/2", 0, 2)
    bad = PatternCandidate(2, (1,), (1, 0), (0,), 2, 1, 1)
    with pytest.raises(PatternRejection) as err:
        certify_pattern(src, bad)
    assert err.value.clause == "iii"


def test_certify_rejects_wrong_base_word():
    src = rk_source("3/2", 0, 2)
    bad = PatternCandidate(2, (1, 1), (0, 1), (), 2, 0, 0)
    with pytest.raises(PatternRejection) as err:
        certify_pattern(src, bad)
    assert err.value.clause == "i"


def test_certify_rejects_aperiodic_source():
    tm = ThueMorseBlockSource("10", "02")
    lw = words(tm, 2, 100)
    cand = find_pattern(lw, 2, 1)
    assert cand is not None  # the family is real...
    with pytest.raises(PatternRejection) as err:
        certify_pattern(tm, cand)  # ...but no periodicity proof backs it
    assert err.value.clause == "ii"


def test_certify_rejects_anchor_inside_preperiod():
    src = PeriodicDigitSource((2, 2), (1, 0))
    cand = PatternCandidate(3, (2,), (1, 0), (), 2, 0, 0)
    with pytest.raises(PatternRejection) as err:
        certify_pattern(src, cand)
    assert err.value.clause == "ii"
    assert "preperiod" in str(err.value)


def test_certify_rejects_degenerate_shapes():
    src = rk_source("3/2", 0, 2)
    empty_v0 = PatternCandidate(2, (), (1, 0), (1,), 2, 0, 0)
    with pytest.raises(PatternRejection) as err:
        certify_pattern(src, empty_v0)
    assert err.value.clause == "iv"
    short_v1 = PatternCandidate(2, (1,), (1,), (), 2, 0, 0)
    with pytest.raises(PatternRejection) as err:
        certify_pattern(src, short_v1)
    assert err.value.clause == "iv"


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------


def test_decide_three_halves_regular():
    src = rk_source("3/2", 0, 2)
    verdict = decide_regularity(src, 2, window=200)
    assert verdict.kind == "Regular"
    assert len(verdict.patterns) == 2
    assert verdict.exceptions == ()
    enum = words(rk_source("3/2", 0, 2), 2, 45, allow_zero_start=True)
    ok, witness = equivalent(verdict.dfa, trie_dfa(enum.words, 2))
    # full equivalence cannot hold against a finite trie; up to the
    # enumerated length it must
    ok, witness = equivalent_to_length(verdict.dfa, trie_dfa(enum.words, 2), 40)
    assert ok, witness
    assert verdict.kind == "Regular" and verdict.dfa.num_states >= 3


def test_decide_alpha_one_language_is_one_zero_star():
    verdict = decide_regularity(rk_source(1, 0, 2), 2, window=100)
    assert verdict.kind == "Regular"
    dfa = verdict.dfa
    assert dfa.accepts((1, 0)) and dfa.accepts((1, 0, 0, 0))
    assert not dfa.accepts((1,)) and not dfa.accepts((1, 1, 0))


def test_decide_sqrt2_nonregular():
    verdict = decide_regularity(rk_source("sqrt(2)", 0, 2), 2, window=300)
    assert verdict.kind == "NonRegular"
    assert verdict.certificate.kind == "AperiodicByTheorem"
    assert verdict.certificate.certified
    assert "irrational" in verdict.certificate.reason


def test_decide_tm_blocks_nonregular():
    verdict = decide_regularity(ThueMorseBlockSource("10", "02"), 2, window=200)
    assert verdict.kind == "NonRegular"
    assert "Thue-Morse" in verdict.certificate.reason


class _CountingThueMorse(ThueMorseBlockSource):
    """Counts the digits pulled from the stream's generator."""

    def __init__(self, block_a, block_b):
        self.digits_pulled = 0
        super().__init__(block_a, block_b)

    def _generate(self):
        for d in super()._generate():
            self.digits_pulled += 1
            yield d


def test_decide_renders_no_words_for_certified_aperiodic_sources(monkeypatch):
    tm = _CountingThueMorse("10", "02")
    assert decide_regularity(tm, 2).kind == "NonRegular"
    assert tm.digits_pulled == 0
    # the counter sees the digits that rendering words would pull
    words(tm, 2, 9)
    assert tm.digits_pulled == 10

    def no_words(*args, **kwargs):
        raise AssertionError("words rendered for a certified aperiodic stream")

    monkeypatch.setattr(language, "words", no_words)
    verdict = decide_regularity(rk_source("sqrt(2)", 0, 2), 2)
    assert verdict.kind == "NonRegular"
    assert verdict.certificate.reason == (
        "alpha is an irrational quadratic surd; the jump-digit sequence "
        "has an ultimately periodic tail exactly when alpha is rational"
    )


def test_decide_rejects_base_below_two_before_periodicity():
    with pytest.raises(ValueError, match="base"):
        decide_regularity(ThueMorseBlockSource("10", "02"), 1)


def test_decide_explicit_inconclusive_with_evidence():
    verdict = decide_regularity(ExplicitDigitSource("10120011"), 3, window=50)
    assert verdict.kind == "Inconclusive"
    assert "note" in verdict.evidence
    assert "pattern_scan" in verdict.evidence
    assert "length_claim" in verdict.evidence


def test_decide_tm_unequal_blocks_inconclusive():
    verdict = decide_regularity(ThueMorseBlockSource("1", "02"), 2, window=100)
    assert verdict.kind == "Inconclusive"


def test_decide_tm_equal_blocks_regular():
    verdict = decide_regularity(ThueMorseBlockSource("10", "10"), 2, window=100)
    assert verdict.kind == "Regular"


def test_decide_periodic_source_with_preperiod():
    src = PeriodicDigitSource("21", "102")
    verdict = decide_regularity(src, 3, window=300)
    assert verdict.kind == "Regular"
    enum = words(PeriodicDigitSource("21", "102"), 3, 70, allow_zero_start=True)
    ok, witness = equivalent_to_length(verdict.dfa, trie_dfa(enum.words, 3), 60)
    assert ok, witness
    for pat in verdict.patterns:
        for m in range(6):
            assert verdict.dfa.accepts(pat.word_for(m))
    for exc in verdict.exceptions:
        assert verdict.dfa.accepts(exc)


def test_decide_all_zero_stream_is_finite_regular():
    verdict = decide_regularity(PeriodicDigitSource("", "0"), 2, window=40)
    assert verdict.kind == "Regular"
    assert verdict.patterns == ()
    assert verdict.exceptions == ((0,),)
    assert verdict.dfa.accepts((0,))
    assert not verdict.dfa.accepts((0, 0))
    assert not verdict.dfa.accepts((1,))


def test_decide_window_too_small_is_inconclusive_not_wrong():
    src = PeriodicDigitSource((1, 1, 1, 1, 1), (2, 0, 1, 0, 2, 1))
    verdict = decide_regularity(src, 3, window=10)
    assert verdict.kind == "Inconclusive"
    assert "residue" in verdict.evidence["note"]


def test_decide_rejects_tiny_window():
    with pytest.raises(ValueError):
        decide_regularity(rk_source(1, 0, 2), 2, window=4)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


st_base = st.sampled_from([2, 3, 10])


@st.composite
def st_periodic_source(draw):
    base = draw(st_base)
    lam = draw(st.integers(0, 5))
    q = draw(st.integers(1, 6))
    digits = st.integers(0, 2 * base - 2)
    pre = tuple(draw(digits) for _ in range(lam))
    per = tuple(draw(digits) for _ in range(q))
    return base, PeriodicDigitSource(pre, per)


@given(st_periodic_source())
@settings(max_examples=25, deadline=None)
def test_periodic_sources_decide_regular_and_match_enumeration(case):
    base, src = case
    verdict = decide_regularity(src, base, window=300)
    assert verdict.kind == "Regular"
    enum = words(src, base, 40, allow_zero_start=True)
    ok, witness = equivalent_to_length(
        verdict.dfa, trie_dfa(enum.words, base), 30
    )
    assert ok, (witness, src.label())


@given(st_periodic_source())
@settings(max_examples=25, deadline=None)
def test_one_word_per_length_past_stabilization(case):
    base, src = case
    lw = words(src, base, 80, allow_zero_start=True)
    report = verify_length_claim(lw)
    assert not report.violation
    tail = lw.words[report.stable_from :]
    lengths = [len(w) for w in tail]
    assert lengths == sorted(set(lengths))


@given(st_periodic_source())
@settings(max_examples=20, deadline=None)
def test_certified_patterns_replay_for_random_sources(case):
    base, src = case
    verdict = decide_regularity(src, base, window=300)
    assert verdict.kind == "Regular"
    for pat in verdict.patterns:
        value = src.digit(0)
        top = pat.anchor + 5 * pat.period
        for i in range(1, top + 1):
            value = base * value + src.digit(i)
            m, extra = divmod(i - pat.anchor, pat.period)
            if i >= pat.anchor and extra == 0:
                assert from_word(pat.word_for(m), base) == value


def assert_renders_like_oracle(src, base, n_max):
    lw = words(src, base, n_max, allow_zero_start=True)
    values = [src.digit(0)]
    for n in range(1, lw.n_top + 1):
        values.append(values[-1] * base + src.digit(n))
    assert lw.values == tuple(values)
    assert list(lw.words) == enumerate_words(values, base), src.label()


@given(st_periodic_source())
@settings(max_examples=30, deadline=None)
def test_carry_rendering_matches_oracle_on_periodic_streams(case):
    base, src = case
    assert_renders_like_oracle(src, base, 150)


@pytest.mark.parametrize(
    "block_a, block_b",
    [("10", "02"), ("1", "02"), ("21", "12"), ("4", "0"), ("0", "9")],
    ids=["10/02", "1/02", "21/12", "4/0", "0/9"],
)
@pytest.mark.parametrize("base", [2, 3, 10])
def test_carry_rendering_matches_oracle_on_thue_morse_blocks(block_a, block_b, base):
    assert_renders_like_oracle(ThueMorseBlockSource(block_a, block_b), base, 150)


@pytest.mark.parametrize(
    "base, word",
    [
        (2, (4, 0, 1, 10, 0, 3, 1, 1)),  # lead b^2, digits up to 5b
        (3, (0, 0, 15, 0, 9, 2, 14)),  # zero start, digits 5b and b^2
        (10, (123, 50, 0, 49, 7, 9, 9, 9)),  # lead beyond b^2
        (10, (0, 0, 0, 0)),  # the value stays 0 throughout
        (2, (1,) * 31 + (10,)),  # a long carry run into new digits
    ],
)
def test_carry_rendering_matches_oracle_on_explicit_words(base, word):
    assert_renders_like_oracle(ExplicitDigitSource(word), base, 100)


@given(
    st_base.flatmap(
        lambda b: st.tuples(
            st.just(b), st.lists(st.integers(0, 5 * b), min_size=1, max_size=60)
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_carry_rendering_matches_oracle_on_random_explicit_words(case):
    base, word = case
    assert_renders_like_oracle(ExplicitDigitSource(word), base, 100)


@pytest.mark.parametrize("name", ["i05", "i12", "i14"])
def test_carry_rendering_matches_oracle_on_battery_streams(name):
    inst = by_name(name)
    assert_renders_like_oracle(RkDigitSource(inst.normalized()), inst.base, 300)
