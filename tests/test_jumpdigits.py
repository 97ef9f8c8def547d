"""Jump-digit sequence: dual routes, case analysis, expansion audit, periods."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorlog.exact import ExactReal
from floorlog.jumpdigits import (
    InstanceTables,
    OrbitCapError,
    RkRecord,
    _divisors,
    certify_cycle,
    certify_r,
    classify_range,
    detect_period,
    inverse_slope_digits,
    minimize_cycle,
    r_direct,
    r_from_jumps,
    r_recur,
    r_stream,
    residue_digits,
    residue_orbit,
)
from floorlog.levelcounts import decide_d_periodicity
from floorlog.sequences import (
    ConsistencyError,
    FloorLogInstance,
    jump_levels_past,
    jump_positions,
    normalize,
    v_indicator,
)
from oracles import (
    check_transitions,
    classify,
    eval_Pk,
    expansion_forms,
    oracle_digits,
    oracle_r,
    rational_slope_terms,
)


def norm_of(alpha, beta, base):
    return normalize(
        FloorLogInstance(ExactReal.parse(str(alpha)), ExactReal.parse(str(beta)), base)
    )


N_SQRT2 = norm_of("sqrt(2)", 0, 2)
N_32 = norm_of("3/2", 0, 2)
N_53 = norm_of("5/3", 1, 2)


def test_r_frozen_sqrt2():
    want = [0, 1, 1, 0, 1, 0, 1]
    assert [r_direct(N_SQRT2, k) for k in range(1, 8)] == want
    assert [r_recur(N_SQRT2, k) for k in range(1, 8)] == want
    assert r_stream(N_SQRT2, 7) == want
    assert [rec.r for rec in classify_range(N_SQRT2, 7)] == want


def test_r_frozen_three_halves():
    assert [r_direct(N_32, k) for k in range(1, 6)] == [0, 1, 0, 1, 0]


def test_r_alpha_one_vanishes():
    n = norm_of(1, 0, 2)
    assert [r_direct(n, k) for k in range(1, 11)] == [0] * 10
    for rec in classify_range(n, 10):
        assert rec.case_tag == "A" and rec.digit == 0


def test_r_from_jumps_route():
    jumps = jump_positions(N_SQRT2, 8)
    assert r_from_jumps(jumps, 2) == [0, 1, 1, 0, 1, 0, 1]


def test_r_from_jumps_refuses_a_table_of_another_base():
    with pytest.raises(ValueError, match="a jump table in base 2 read in base 3"):
        r_from_jumps(jump_positions(N_SQRT2, 8), 3)


@pytest.mark.parametrize(
    "alpha, beta, base",
    [
        # rational slope, surd offset: the radical part of g stays at one
        # negative constant, so every term takes the per-digit floor
        ("7/5", "1/2*sqrt(3)", 2),
        # offset radical against the slope's: the radical part starts
        # negative and turns positive after one step
        ("sqrt(2)", "3-2*sqrt(2)", 2),
        ("sqrt(7)", "1/4", 3),
        # 1/(3+sqrt(2)) = (3-sqrt(2))/7: the radical part grows negative
        ("3+sqrt(2)", "1/3", 10),
    ],
)
def test_stream_spigot_matches_direct_deep(alpha, beta, base):
    n = norm_of(alpha, beta, base)
    stream = r_stream(n, 2000)
    for k in (1, 2, 3, 7, 50, 333, 1024, 1999, 2000):
        assert stream[k - 1] == r_direct(n, k), k


def test_r_rejects_bad_k():
    with pytest.raises(ValueError):
        r_direct(N_SQRT2, 0)
    with pytest.raises(ValueError):
        r_recur(N_SQRT2, -1)
    with pytest.raises(ValueError):
        eval_Pk(N_SQRT2, -1)


def test_threshold_test_frozen():
    # beta = 0 makes the right-hand side zero, so the test always passes
    assert all(eval_Pk(N_SQRT2, k) for k in range(0, 11))
    assert all(eval_Pk(N_32, k) for k in range(0, 11))
    # frac(4/3) = 1/3 against frac(2/3) = 2/3 fails; one step later it holds
    n = norm_of("3/2", 1, 2)
    assert not eval_Pk(n, 1)
    assert eval_Pk(n, 2)


def test_classify_frozen_sqrt2():
    rec = classify(N_SQRT2, 3)
    assert rec.case_tag == "A"
    assert rec.r == 1
    assert rec.digit == 1  # digit 4 of 1/sqrt(2) = .10110101...


def test_classify_all_four_cases():
    # alpha=5/3, beta=1, base=2 walks through D, C, A, B at k = 1..4,
    # with an exact integrality hit at k = 4
    recs = classify_range(N_53, 4)
    assert [r.case_tag for r in recs] == ["D", "C", "A", "B"]
    assert [r.r for r in recs] == [1, 2, 1, 0]
    assert [r.digit for r in recs] == [0, 0, 1, 1]
    assert recs[0].case_tag == "D" and recs[0].digit == 0  # the +1 audit branch
    assert 4 in jump_positions(N_53, 5).integrality_hits
    for rec in recs:
        assert classify(N_53, rec.k) == rec


def test_record_revalidates_itself():
    with pytest.raises(ConsistencyError):
        RkRecord(k=1, r=5, case_tag="A", pk=True, pk1=True, digit=1, base=2)
    with pytest.raises(ConsistencyError):
        RkRecord(k=1, r=1, case_tag="B", pk=True, pk1=True, digit=1, base=2)
    with pytest.raises(ConsistencyError):
        # decrementing digit zero is impossible; the range check catches it
        RkRecord(k=1, r=-1, case_tag="B", pk=True, pk1=False, digit=0, base=2)


def test_transitions_clean_on_instances():
    rep = check_transitions(classify_range(N_SQRT2, 300))
    assert rep.ok and rep.pairs_checked == 299
    assert check_transitions(classify_range(N_53, 200)).ok
    assert check_transitions(classify_range(N_SQRT2, 1)).pairs_checked == 0


def test_transitions_flag_mismatched_pair():
    # records from two different instances cannot share a handshake
    rec_a = classify(N_SQRT2, 1)   # tag A
    rec_c = classify(N_53, 2)      # tag C
    rep = check_transitions([rec_a, rec_c])
    assert not rep.ok and len(rep.violations) == 1
    with pytest.raises(ValueError):
        check_transitions([rec_a, classify(N_53, 3)])


def test_expansion_frozen_sqrt2():
    form = expansion_forms(N_SQRT2, 7)[-1]
    assert form.value == 53
    assert form.rendered == "110101"
    assert not form.decremented
    assert form.ok
    assert all(f.ok for f in expansion_forms(N_SQRT2, 40))


def test_expansion_three_halves():
    form = expansion_forms(N_32, 4)[-1]
    assert form.value == 5 and form.ok and form.rendered == "101"


def test_expansion_decremented_branch():
    # k=1 of the 5/3 instance is case D with digit 0: audit adds 1 first
    form = expansion_forms(N_53, 1)[-1]
    assert form.decremented and form.value == 1 and form.candidates == (0, 2)
    assert form.ok
    assert all(f.ok for f in expansion_forms(N_53, 60))


def test_detect_period_three_halves():
    v = detect_period(N_32, 30)
    assert v.kind == "Periodic" and v.certified
    assert v.period == 2 and v.preperiod <= 1
    assert v.certificate.modulus == 3
    assert v.certificate.cycle == (0, 1)
    assert [v.certificate.predict(k) for k in range(1, 6)] == [0, 1, 0, 1, 0]


def test_detect_period_sqrt2():
    v = detect_period(N_SQRT2, 30)
    assert v.kind == "AperiodicByTheorem"
    assert v.certified and v.reason


def test_detect_period_alpha_one():
    v = detect_period(norm_of(1, 0, 2), 10)
    assert (v.preperiod, v.period) == (0, 1)
    assert v.certificate.cycle == (0,)
    assert v.certificate.integrality_hits  # every level lands exactly


def test_detect_period_five_thirds():
    v = detect_period(N_53, 20)
    assert (v.preperiod, v.period) == (0, 4)
    assert v.certificate.modulus == 5
    assert v.certificate.cycle == (1, 2, 1, 0)


def test_certify_cycle_replays_every_value():
    values = [5, 1, 2, 1, 2, 1, 2, 1, 2]
    v = certify_cycle(values, 7, (1, 2), (3,))
    assert (v.preperiod, v.period) == (1, 2) and v.certified
    assert v.certificate.head == (5,) and v.certificate.cycle == (1, 2)
    assert v.certificate.integrality_hits == (3,)
    # index 9 lies past the cover that minimize_cycle re-verifies, so
    # only the replay can catch it
    with pytest.raises(ConsistencyError, match="replay fails at k=9"):
        certify_cycle(values[:-1] + [7], 7, (1, 2))


def test_divisors_pair_up_to_the_square_root():
    # 524256 = 2^5 * 3 * 43 * 127 is the orbit period of 10 mod 524257
    for n in [*range(1, 2001), 524256]:
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("bad", [(3,), (6,), (4, 8), (2, 6, 7), (7,), (3, 4, 5)])
def test_minimize_cycle_names_the_first_break_inside_the_cover(bad):
    values = [9, 8] + [1, 2, 3] * 3
    for i in bad:
        values[i] += 10
    first = next(i for i in range(2, 5) if values[i] != values[i + 3])
    with pytest.raises(ConsistencyError, match=f"period 3 after 2 breaks at index {first}$"):
        minimize_cycle(values, 2, 3)


st_alpha = st.one_of(
    st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=12).map(
        lambda f: ExactReal(f)
    ),
    st.tuples(
        st.fractions(min_value=0, max_value=3, max_denominator=6),
        st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6),
        st.sampled_from([2, 3, 5]),
    ).map(lambda t: ExactReal(t[0]) + ExactReal(t[1]) * ExactReal.sqrt(t[2])),
)
st_beta = st.fractions(min_value=-3, max_value=6, max_denominator=9).map(ExactReal)
st_base = st.sampled_from([2, 3, 10])


@settings(max_examples=60, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_routes_agree_with_oracle(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    for k in range(1, 9):
        want = oracle_r(n.alpha, n.beta, base, k)
        assert r_direct(n, k) == want
        assert r_recur(n, k) == want


@settings(max_examples=50, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_stream_and_range_match_direct(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    direct = [r_direct(n, k) for k in range(1, 13)]
    assert r_stream(n, 12) == direct
    recs = classify_range(n, 12)
    assert [rec.r for rec in recs] == direct
    assert recs == [classify(n, k) for k in range(1, 13)]


@settings(max_examples=50, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_digits_fuel_the_classification(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    recs = classify_range(n, 20)
    digits = oracle_digits((1 / n.alpha).frac(), base, 21)
    for rec in recs:
        assert rec.digit == digits[rec.k]
        assert 0 <= rec.r <= 2 * base - 2
        if rec.case_tag == "B":
            assert rec.digit >= 1
    assert inverse_slope_digits(n, 21) == digits


@settings(max_examples=50, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_structure_checks_hold(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    assert check_transitions(classify_range(n, 30)).ok
    assert all(f.ok for f in expansion_forms(n, 25))


@settings(max_examples=40, deadline=None)
@given(alpha=st_alpha, beta=st.just(ExactReal(0)), base=st_base)
def test_zero_offset_reads_digits_straight(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    for rec in classify_range(n, 25):
        assert rec.case_tag == "A"
        assert rec.r == rec.digit


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=20).map(
        lambda f: ExactReal(f)
    ),
    beta=st_beta,
    base=st_base,
)
def test_rational_period_divides_residue_orbit(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    v = detect_period(n, 10)
    assert v.kind == "Periodic" and v.certified
    cert = v.certificate
    assert cert.orbit_period % v.period == 0
    assert cert.preperiod <= cert.orbit_preperiod
    for k in range(1, 16):
        assert cert.predict(k) == oracle_r(n.alpha, n.beta, base, k)


def test_residue_orbit_cap_sits_on_the_cover():
    # the cap is a cover (preperiod + 2*period) of 2^20 = 1048576 in every
    # base; the order of 2 is 524268 mod 524269 (cover 1048536) and
    # 524308 mod 524309 (cover 1048616)
    assert residue_orbit(2, 524269) == (0, 524268)
    with pytest.raises(OrbitCapError, match="orbit cap for base 2"):
        residue_orbit(2, 524309)
    # a walk that passes the cap stops there: the order of 16 mod
    # 123456789 is 3,427,503
    with pytest.raises(OrbitCapError, match="more than 1048576 terms"):
        residue_orbit(16, 123456789)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.fractions(min_value=Fraction(1, 3), max_value=7, max_denominator=9).map(
        lambda f: ExactReal(f)
    ),
    coeff=st.fractions(min_value=Fraction(1, 4), max_value=1, max_denominator=4),
    base=st_base,
)
def test_period_holds_for_surd_offsets_too(alpha, coeff, base):
    # rational slope with an irrational offset still yields a certificate
    beta = ExactReal(coeff) * ExactReal.sqrt(2)
    n = normalize(FloorLogInstance(alpha, beta, base))
    v = detect_period(n, 10)
    assert v.kind == "Periodic" and v.certified
    for k in range(1, 12):
        assert v.certificate.predict(k) == oracle_r(n.alpha, n.beta, base, k)


def _naive_orbit(base, modulus):
    seen, residue, k = {}, base % modulus, 1
    while residue not in seen:
        seen[residue] = k
        residue = residue * base % modulus
        k += 1
    return seen[residue] - 1, k - seen[residue]


@settings(max_examples=200, deadline=None)
@given(base=st.integers(2, 60), modulus=st.integers(1, 5000))
def test_residue_orbit_matches_a_remembering_walk(base, modulus):
    assert residue_orbit(base, modulus) == _naive_orbit(base, modulus)


@st.composite
def st_rational_slope(draw):
    """A normalized rational slope in bases 2-10, with a rational or surd offset."""
    base = draw(st.integers(2, 10))
    alpha = ExactReal(draw(st.fractions(min_value=Fraction(1, 8), max_value=40,
                                        max_denominator=60)))
    if draw(st.booleans()):
        beta = ExactReal(draw(st.fractions(min_value=-6, max_value=6, max_denominator=12)))
    else:
        rational = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
        coeff = draw(st.fractions(min_value=Fraction(-2), max_value=2, max_denominator=6)
                     .filter(bool))
        beta = ExactReal(rational) + ExactReal(coeff) * ExactReal.sqrt(
            draw(st.sampled_from([2, 3, 5])))
    return normalize(FloorLogInstance(alpha, beta, base))


@settings(max_examples=80, deadline=None)
@given(norm=st_rational_slope())
def test_residue_certificates_match_fraction_oracle(norm):
    want_r, want_h, want_d = rational_slope_terms(norm.alpha, norm.beta, norm.base, 40)
    pairs = list(zip(*residue_digits(norm, 42)))
    assert [r for r, _ in pairs[:40]] == want_r
    assert [h for _, h in pairs] == want_h
    assert [row.r for row in classify_range(norm, 40)] == want_r
    r, h = residue_digits(norm, 60)
    assert residue_digits(norm, 42) == (r[:42], h[:42])
    tables = InstanceTables(norm, 40, 40)
    d_cert = decide_d_periodicity(tables, 40)[2].certificate
    assert tables.r_verdict.certificate.replay(40) == want_r
    assert d_cert.replay(40) == want_d
    # each certificate lists the hits to the end of its span, which the
    # orbit may take past 42
    for cert, top in ((tables.r_verdict.certificate, 41), (d_cert, 42)):
        hits = tuple(k for k in cert.integrality_hits if k <= top)
        assert hits == tuple(k for k in range(1, top + 1) if want_h[k - 1])


def test_five_quarters_residues_hit_at_every_level():
    # 4*10^k is a multiple of 5 at every k, so every quotient is an integer
    norm = norm_of("5/4", 0, 10)
    assert list(zip(*residue_digits(norm, 50))) == [(r, 1) for r in r_stream(norm, 50)]
    tables = InstanceTables(norm, 30, 30)
    assert tables.r_verdict.certificate.integrality_hits == tuple(range(1, 32))
    d_cert = decide_d_periodicity(tables, 30)[2].certificate
    assert d_cert.integrality_hits == tuple(range(1, 33))
    assert d_cert.replay(30) == rational_slope_terms(norm.alpha, norm.beta, 10, 30)[2]


# 743 is prime and 10 has order 742 mod it: cover 1484, past the audit
N_743 = norm_of("743/742", 0, 10)


def test_certify_r_compares_the_stream_past_the_audit_prefix():
    tables = InstanceTables(N_743, 200)
    span, p = tables.span_r, 743
    assert (tables.audit_r, span) == (400, 1484)
    args = (tables.residues, tables.jumps_to(tables.audit_r + 1), p, tables.orbit, 10)
    assert certify_r(tables.r_terms(span), *args).certified
    stream = tables.r_terms(span)
    stream[999] += 1
    with pytest.raises(ConsistencyError, match="stream routes disagree on r at k=1000"):
        certify_r(stream, *args)


def test_certify_r_compares_integrality_hits_on_the_audit_prefix():
    tables = InstanceTables(norm_of("5/4", 0, 10), 30)
    r, h = tables.residues
    bent = (r, [0] + h[1:])
    with pytest.raises(ConsistencyError, match="integrality hits"):
        certify_r(tables.r_terms(30), bent, tables.jumps_to(31), 5, tables.orbit, 10)
    # the message names the first level where the two routes part
    for k in (1, 20):
        bent = (r, h[: k - 1] + [0] + h[k:])
        with pytest.raises(ConsistencyError, match=f"integrality hits at k={k}$"):
            certify_r(tables.r_terms(30), bent, tables.jumps_to(31), 5, tables.orbit, 10)


# a hit at every level; a cover of 1484 past the audit; a rational offset;
# a surd
_READ_ORDER_CASES = [("5/4", "0", 10), ("743/742", "0", 10), ("3/2", "1/3", 2),
                     ("sqrt(2)", "0", 2)]


@pytest.mark.parametrize("alpha, beta, base", _READ_ORDER_CASES)
def test_tables_read_alike_in_any_order(alpha, beta, base):
    """The held jump table is built for whichever reader comes first and
    rebuilt only for a longer read; the r verdict, the d stage and a step
    view read past every audit come out the same in any order."""
    norm = norm_of(alpha, beta, base)
    size = base**450  # 452 jump levels, past the r and d audits
    levels = jump_levels_past(base, size)
    assert levels == 452

    def read(order):
        tables, out = InstanceTables(norm, 200, 60), {}
        for name in order:
            if name == "r":
                out[name] = tables.r_verdict
            elif name == "d":
                out[name] = decide_d_periodicity(tables, 60)
            else:
                out[name] = v_indicator(norm, size, tables.jumps_to(levels)).steps
        return out

    first = read("rdv")
    assert read("drv") == first == read("vrd")
    assert first["v"] == v_indicator(norm, size).steps
