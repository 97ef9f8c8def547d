"""Level-count module: exact counts, jump alignment, difference periodicity."""

import ast
import inspect
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlog import levelcounts
from floorlog.battery import BATTERY
from floorlog.exact import ExactReal
from floorlog.jumpdigits import InstanceTables, detect_period, r_stream
from floorlog.levelcounts import (
    align_m0,
    certify_d,
    d_seq,
    decide_d_periodicity,
    f_counts,
)
from floorlog.sequences import (
    ConsistencyError,
    FloorLogInstance,
    jump_positions,
    normalize,
    u_term,
)
from oracles import oracle_f, oracle_r, oracle_u, rational_level_starts


def norm_of(alpha, beta, base):
    return normalize(
        FloorLogInstance(ExactReal.parse(str(alpha)), ExactReal.parse(str(beta)), base)
    )


def d_verdict(norm, window):
    """The d verdict on tables certifying r and d on window terms."""
    return decide_d_periodicity(InstanceTables(norm, window, window), window)[2]


N_SQRT2 = norm_of("sqrt(2)", 0, 2)


def test_f_frozen_sqrt2():
    lc = f_counts(N_SQRT2, 4)
    assert lc.k_min == 0
    assert [lc.at(k) for k in range(0, 5)] == [1, 1, 3, 6, 11]


def test_f_frozen_alpha_one():
    lc = f_counts(norm_of(1, 0, 2), 3)
    assert [lc.at(k) for k in range(0, 4)] == [1, 2, 4, 8]


def test_f_frozen_three_halves():
    lc = f_counts(norm_of("3/2", 0, 2), 3)
    assert [lc.at(k) for k in range(0, 4)] == [1, 1, 3, 5]


def test_f_negative_levels_and_gaps():
    # beta = 1/3 puts n = 0 at level -2 and leaves level -1 empty: the
    # argument hops from 1/3 straight past [1/2, 1)
    lc = f_counts(norm_of("3/2", "1/3", 2), 3)
    assert lc.k_min == -2
    assert lc.at(-2) == 1
    assert lc.at(-1) == 0
    assert lc.at(0) == 1
    assert lc.at(1) == 1


def test_f_conservation():
    # total through level K is exactly the count of enumerated indices
    lc = f_counts(N_SQRT2, 4)
    total = sum(lc.at(k) for k in range(lc.k_min, 5))
    walked = 0
    n = N_SQRT2.n_min
    while u_term(N_SQRT2.alpha, N_SQRT2.beta, 2, n) <= 4:
        walked += 1
        n += 1
    assert total == walked == 22


def test_f_rejects_bad_kmax():
    with pytest.raises(ValueError):
        f_counts(N_SQRT2, 0)


def test_align_sqrt2():
    lc = f_counts(N_SQRT2, 30)
    res = align_m0(lc, jump_positions(N_SQRT2, 35))
    assert res.ok and res.m0 == 0
    assert res.threshold == 1 and res.mismatches == ()


def test_align_alpha_one_every_level_hits():
    n = norm_of(1, 0, 2)
    res = align_m0(f_counts(n, 20), jump_positions(n, 25))
    assert res.m0 == 0 and res.mismatches == ()


def test_align_single_hit_shifts_threshold():
    # beta = 2 - sqrt(2): the very first crossing lands on an integer, so
    # the identity misses exactly at k = 1 and the clean tail starts at 2
    root2 = ExactReal.sqrt(2)
    n = normalize(FloorLogInstance(root2, ExactReal(2) - root2, 2))
    lc = f_counts(n, 30)
    res = align_m0(lc, jump_positions(n, 35))
    assert res.m0 == 0
    assert res.mismatches == (1,)
    assert res.threshold == 2
    d_seq(lc, r_stream(n, 30), res)  # cross-check starts past the threshold, so this must pass


def test_align_degenerate_recurring_hits():
    # (5/3, 1/3, 2): crossings land on integers at k = 1, 5, 9, ... with
    # non-integer partners, so no offset can ever align
    n = norm_of("5/3", "1/3", 2)
    lc = f_counts(n, 40)
    res = align_m0(lc, jump_positions(n, 45))
    assert not res.ok and res.m0 is None
    assert res.note
    assert 1 in jump_positions(n, 6).integrality_hits
    assert 5 in jump_positions(n, 6).integrality_hits


def test_align_hit_on_the_top_level_blocks_alignment():
    # (128 - beta)/alpha = 90 exactly, so the only integer crossing is at
    # level 7: with levels up to 6 the single mismatch sits on the top
    # compared level, outside any clean tail; with more levels it moves
    # into the prefix and the threshold steps past it
    n = norm_of("sqrt(2)", "128-90*sqrt(2)", 2)
    assert jump_positions(n, 12).integrality_hits == (7,)
    res = align_m0(f_counts(n, 6), jump_positions(n, 12))
    assert res.m0 is None and res.checked_to == 6
    res = align_m0(f_counts(n, 14), jump_positions(n, 20))
    assert (res.m0, res.threshold, res.mismatches) == (0, 8, (6, 7))


def test_d_frozen_sqrt2():
    lc = f_counts(N_SQRT2, 10)
    d = d_seq(lc, r_stream(N_SQRT2, 10), align_m0(lc, jump_positions(N_SQRT2, 15)))
    assert d.start == 0
    assert [d.at(k) for k in (1, 2, 3)] == [1, 0, -1]


def test_d_alpha_one_vanishes():
    n = norm_of(1, 0, 2)
    lc = f_counts(n, 10)
    alignment = align_m0(lc, jump_positions(n, 11))
    assert alignment.ok
    assert set(d_seq(lc, r_stream(n, 10), alignment).values) == {0}


def test_d_seq_checks_a_prefix_view_on_its_own_alignment():
    # a prefix view carries nothing of the counts it was cut from: d_seq
    # cross-checks the tail named by the alignment it is handed
    view = f_counts(N_SQRT2, 30).prefix(20)
    alignment = align_m0(view, jump_positions(N_SQRT2, 21))
    assert alignment.ok and (alignment.threshold, alignment.checked_to) == (1, 20)
    rs = r_stream(N_SQRT2, 20)
    d_seq(view, rs, alignment)
    rs[15] += 1  # r_16, read by d_15 and d_16
    with pytest.raises(ConsistencyError, match="jump digits predict"):
        d_seq(view, rs, alignment)


def test_decide_d_three_halves():
    v = d_verdict(norm_of("3/2", 0, 2), 12)
    assert v.kind == "Periodic" and v.certified
    assert (v.preperiod, v.period) == (0, 2)
    assert v.certificate.cycle == (1, -1)
    assert v.certificate.modulus == 3


def test_decide_d_sqrt2():
    v = d_verdict(N_SQRT2, 12)
    assert v.kind == "AperiodicByTheorem" and v.certified


def test_decide_d_alpha_one():
    v = d_verdict(norm_of(1, 0, 2), 8)
    assert (v.preperiod, v.period) == (0, 1)
    assert v.certificate.cycle == (0,)


def test_decide_d_checks_the_handed_r_certificate():
    n = norm_of("3/2", 0, 2)
    tables = InstanceTables(n, 12, 12)
    rv = tables.r_verdict
    cert = rv.certificate
    bent = replace(cert, cycle=(cert.cycle[0], cert.cycle[1] + 1))
    tables.r_verdict = replace(rv, certificate=bent)
    with pytest.raises(ConsistencyError, match="d_1 "):
        decide_d_periodicity(tables, 12)


def test_decide_d_reports_the_levels_it_certified_on():
    # fk's shape: the reported levels are a prefix of the certified ones,
    # aligned on the shared jump table, and equal to counts of their own
    n = norm_of("7/5", "1/3", 10)
    tables = InstanceTables(n, 60, 60)
    lc, alignment, v = decide_d_periodicity(tables, 20)
    assert v.kind == "Periodic" and v.certificate.modulus == 7
    own = f_counts(n, 20)
    assert (lc.k_min, lc.k_max, lc.f) == (own.k_min, own.k_max, own.f)
    assert alignment == align_m0(own, jump_positions(n, 21))
    assert v == d_verdict(n, 60)


def test_certify_d_compares_the_stream_past_the_audit_prefix():
    # 10 has order 742 mod the prime 743: d is certified on 1484 terms off
    # the residues, and the level counts audit the first 400
    tables = InstanceTables(norm_of("743/742", 0, 10), 200, 200)
    audit, span = tables.audit_d, tables.span_d
    assert (audit, span) == (400, 1484)
    args = (f_counts(tables.norm, audit + 1), tables.jumps_to(audit + 2),
            tables.r_verdict.certificate)
    r_terms = tables.r_terms(span + 1)
    assert certify_d(*args, r_terms, tables.residues).certified
    r_terms[1200] += 1
    with pytest.raises(ConsistencyError, match="disagree on r at k=1201"):
        certify_d(*args, r_terms, tables.residues)


def test_certify_d_compares_integrality_hits_on_the_audit_prefix():
    tables = InstanceTables(norm_of("5/3", "1/3", 2), 16, 16)
    args = (f_counts(tables.norm, 17), tables.jumps_to(18), tables.r_verdict.certificate,
            tables.r_terms(17))
    r, h = tables.residues
    with pytest.raises(ConsistencyError, match="integrality hits"):
        certify_d(*args, (r, h[:-1] + [1 - h[-1]]))


def test_certify_d_audits_the_residue_d_on_the_level_counts():
    # integer crossings recur here, so no offset aligns and neither d_seq
    # nor the difference map checks anything: a count off by one is left
    # to the comparison with the residue d
    tables = InstanceTables(norm_of("5/3", "1/3", 2), 16, 16)
    lc = f_counts(tables.norm, 17)
    assert not align_m0(lc, tables.jumps_to(18)).ok
    bent = replace(lc, f={**lc.f, 10: lc.f[10] + 1})
    with pytest.raises(ConsistencyError, match="level-count routes disagree on d at k=9"):
        certify_d(bent, tables.jumps_to(18), tables.r_verdict.certificate,
                  tables.r_terms(17), tables.residues)


def test_decide_d_survives_degenerate_alignment():
    # alignment fails for this instance, yet the modular cover still
    # certifies the difference sequence; frozen cycle from first principles
    v = d_verdict(norm_of("5/3", "1/3", 2), 16)
    assert v.kind == "Periodic" and v.certified
    assert (v.preperiod, v.period) == (0, 4)
    assert v.certificate.cycle == (-2, 1, -1, 2)
    assert v.certificate.modulus == 5
    assert 1 in v.certificate.integrality_hits
    assert 5 in v.certificate.integrality_hits


def test_partial_sums_rebuild_r_on_aligned_tail():
    lc = f_counts(N_SQRT2, 25)
    d = d_seq(lc, r_stream(N_SQRT2, 25), align_m0(lc, jump_positions(N_SQRT2, 30)))
    acc = oracle_r(N_SQRT2.alpha, N_SQRT2.beta, 2, 1)
    for k in range(1, 24):
        acc += d.at(k)
        assert acc == oracle_r(N_SQRT2.alpha, N_SQRT2.beta, 2, k + 1)


# enumeration cost of oracle_f grows like base**k, so cap the compared
# levels per base to keep the audits honest but quick
_ORACLE_KTOP = {2: 7, 3: 5, 10: 2}

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


@st.composite
def st_level_instance(draw):
    """(alpha, beta, base) over the shapes the count and its audit branch on.

    Slopes: rational, surd, 3 + sqrt(d) (whose reciprocal has a negative
    radical part) and 1 (every crossing lands on an integer).  Offsets:
    rational, surd, and tiny ones that put n = 0 several levels below 0.
    """
    base = draw(st_base)
    root = ExactReal.sqrt(draw(st.sampled_from([2, 3, 5])))
    alpha = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=12).map(ExactReal),
        st.tuples(
            st.fractions(min_value=0, max_value=3, max_denominator=6),
            st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6),
        ).map(lambda t: ExactReal(t[0]) + ExactReal(t[1]) * root),
        st.just(ExactReal(3) + root),
        st.just(ExactReal(1)),
    ))
    beta = draw(st.one_of(
        st_beta,
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=5),
            st.sampled_from([Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4)]),
        ).map(lambda t: ExactReal(t[0]) + ExactReal(t[1]) * root),
        st.tuples(st.integers(min_value=4, max_value=9), st.sampled_from([1, 2])).map(
            lambda t: ExactReal(Fraction(1, base ** t[0])) * (root if t[1] == 2 else 1)
        ),
    ))
    return alpha, beta, base


@settings(max_examples=50, deadline=None)
@given(case=st_level_instance())
@example(case=(ExactReal.parse("3+sqrt(2)"), ExactReal(0), 2))
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal(Fraction(1, 2**9)), 2))
@example(case=(ExactReal(1), ExactReal(Fraction(1, 10**6)), 10))
@example(case=(ExactReal(1), ExactReal(0), 3))
@example(case=(ExactReal.parse("5/3"), ExactReal.parse("1/3*sqrt(2)"), 2))
def test_counts_match_enumeration_oracle(case):
    alpha, beta, base = case
    n = normalize(FloorLogInstance(alpha, beta, base))
    k_top = _ORACLE_KTOP[base]
    lc = f_counts(n, k_top)
    assert lc.k_min == oracle_u(n.alpha, n.beta, base, n.n_min)
    for k in range(lc.k_min, k_top + 1):
        assert lc.at(k) == oracle_f(n.alpha, n.beta, base, k, n.n_min)


@settings(max_examples=40, deadline=None)
@given(case=st_level_instance(), data=st.data())
@example(case=(ExactReal(1), ExactReal(0), 3), data=None)
@example(case=(ExactReal(1), ExactReal(Fraction(1, 10**6)), 10), data=None)
def test_prefix_views_equal_fresh_tables(case, data):
    alpha, beta, base = case
    n = normalize(FloorLogInstance(alpha, beta, base))
    top = 30
    lc = f_counts(n, top)
    ks = [1, top] if data is None else data.draw(
        st.lists(st.integers(1, top), min_size=1, max_size=4), label="k")
    for k in ks:
        view, fresh = lc.prefix(k), f_counts(n, k)
        assert (view.k_min, view.k_max, view.f) == (fresh.k_min, fresh.k_max, fresh.f)


_SHIFTED_STARTS = [
    ("sqrt(2)", 0, 2, 3),              # B != 0, B > 0
    ("3+sqrt(2)", "1/5", 2, 3),        # B != 0, B < 0
    ("3/2", "1/3", 2, 3),              # B == 0, rational ceiling
    ("1", "1/64", 2, 3),               # B == 0 at negative levels
    # the rows below shift a level start past index 2000
    ("sqrt(2)", 0, 2, 14),             # starts at n = 11586
    ("3/2", "1/3", 10, 5),             # starts at n = 66667
    ("3+sqrt(2)", "1/5", 2, 14),       # starts at n = 14847
]


# a row shifting level 3 is named by its instance alone, other rows add the level
@pytest.mark.parametrize("alpha,beta,base,level", _SHIFTED_STARTS, ids=[
    "-".join(map(str, row[:3] if row[3] == 3 else row)) for row in _SHIFTED_STARTS])
@pytest.mark.parametrize("shift", [1, -1])
def test_audit_catches_level_start_off_by_one(monkeypatch, alpha, beta, base, level, shift):
    n = norm_of(alpha, beta, base)
    k_max = level + 5
    f_counts(n, k_max)
    real = levelcounts._level_starts

    def off_by_one(norm, k_lo, k_hi):
        starts = real(norm, k_lo, k_hi)
        starts[level - k_lo] += shift  # the level starts one index late or early
        return starts

    monkeypatch.setattr(levelcounts, "_level_starts", off_by_one)
    with pytest.raises(ConsistencyError):
        f_counts(n, k_max)


def test_counts_never_read_the_jump_tables():
    """f is not read off the jump table or the digit routes, so comparing it
    with the jump gaps (align_m0) and d with the r differences stays a check:
    neither f_counts nor _level_starts names any of them."""
    tables = {"jump_positions", "JumpData", "r_digits", "residue_digits", "InstanceTables"}

    def names(func):
        nodes = list(ast.walk(ast.parse(inspect.getsource(func))))
        return {node.id for node in nodes if isinstance(node, ast.Name)} | {
            node.attr for node in nodes if isinstance(node, ast.Attribute)}

    named = {func.__name__: sorted(names(func) & tables)
             for func in (levelcounts.f_counts, levelcounts._level_starts)}
    assert named == {"f_counts": [], "_level_starts": []}


@settings(max_examples=40, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_aligned_tail_matches_digit_differences(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    lc = f_counts(n, 24)
    res = align_m0(lc, jump_positions(n, 30))
    d = d_seq(lc, r_stream(n, 24), res)  # raises on its own if the aligned tail disagrees
    if res.ok:
        m0, t = res.m0, res.threshold
        for k in range(max(t, 1), 12):
            want = oracle_r(n.alpha, n.beta, base, k + m0 + 1) - oracle_r(
                n.alpha, n.beta, base, k + m0
            )
            assert d.at(k) == want


def _align_by_lookup(lc, jd):
    """The offset search align_m0 once ran, one jd.at lookup pair per level.

    It tries offsets m0 = 0..8 under align_m0's acceptance rule and returns
    (m0, threshold, checked_to, also_valid, mismatches) for the least
    accepted offset; also_valid lists the larger ones that pass too.
    """
    found = []
    for m0 in range(0, max(0, min(8, jd.k_max - 3)) + 1):
        k_top = min(lc.k_max, jd.k_max - m0 - 1)
        if k_top < 6:
            continue
        bad = tuple(
            k for k in range(1, k_top + 1)
            if lc.at(k) != jd.at(k + m0 + 1) - jd.at(k + m0)
        )
        if not bad or bad[-1] <= k_top // 2:
            found.append((m0, k_top, bad))
    if not found:
        return None, None, max(min(lc.k_max, jd.k_max - 1), 0), (), ()
    m0, k_top, bad = found[0]
    return m0, (bad[-1] + 1) if bad else 1, k_top, tuple(m for m, _, _ in found[1:]), bad


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st_alpha, st_beta, st_base),
        st.tuples(
            st.sampled_from(["1", "5/3", "7/5", "sqrt(2)"]).map(ExactReal.parse),
            st.sampled_from(["0", "1/3", "128-90*sqrt(2)", "2-sqrt(2)"]).map(ExactReal.parse),
            st.just(2),
        ),
    ),
    k_max=st.integers(min_value=1, max_value=20),
    extra=st.integers(min_value=0, max_value=12),
)
def test_align_matches_per_level_lookup(case, k_max, extra):
    alpha, beta, base = case
    n = normalize(FloorLogInstance(alpha, beta, base))
    lc = f_counts(n, k_max)
    jd = jump_positions(n, max(1, k_max + extra - 6))
    _assert_offset_zero_is_the_only_offset(lc, jd)


def _assert_offset_zero_is_the_only_offset(lc, jd):
    res = align_m0(lc, jd)
    m0, threshold, checked_to, also_valid, mismatches = _align_by_lookup(lc, jd)
    assert also_valid == ()
    assert (res.m0, res.threshold, res.checked_to, res.mismatches) == (
        m0, threshold, checked_to, mismatches)


@pytest.mark.parametrize("inst", BATTERY, ids=lambda inst: inst.name)
def test_offset_search_finds_only_offset_zero_on_the_battery(inst):
    # the table sizes run_analyze, fk and criterion 6 use, with the old
    # 12-level slack, and decide_d_periodicity's own range on rational slopes
    n = inst.normalized()
    for k_max in (6, 60, 200):
        _assert_offset_zero_is_the_only_offset(
            f_counts(n, k_max), jump_positions(n, k_max + 12))
    if inst.alpha_is_rational:
        for window in (60, 400):
            cert = detect_period(n, window).certificate
            span = max(cert.orbit_preperiod + 2 * cert.orbit_period, window)
            _assert_offset_zero_is_the_only_offset(
                f_counts(n, span + 1), jump_positions(n, span + 2))


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.fractions(min_value=Fraction(1, 3), max_value=8, max_denominator=10).map(
        lambda f: ExactReal(f)
    ),
    beta=st_beta,
    base=st_base,
)
def test_rational_differences_certified(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    v = d_verdict(n, 8)
    assert v.kind == "Periodic" and v.certified
    for k in range(1, _ORACLE_KTOP[base]):
        want = oracle_f(n.alpha, n.beta, base, k + 1, n.n_min) - base * oracle_f(
            n.alpha, n.beta, base, k, n.n_min
        )
        assert v.certificate.predict(k) == want


@settings(max_examples=25, deadline=None)
@given(
    rational=st.fractions(min_value=0, max_value=2, max_denominator=5),
    coeff=st.fractions(min_value=Fraction(1, 4), max_value=1, max_denominator=4),
    d=st.sampled_from([2, 3, 5]),
    base=st_base,
)
def test_surd_differences_refused(rational, coeff, d, base):
    alpha = ExactReal(rational) + ExactReal(coeff) * ExactReal.sqrt(d)
    n = normalize(FloorLogInstance(alpha, ExactReal(0), base))
    v = d_verdict(n, 8)
    assert v.kind == "AperiodicByTheorem"


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=400),
    q=st.integers(min_value=1, max_value=400),
    beta=st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(7, 5))),
    base=st.integers(min_value=2, max_value=10),
    k_lo=st.integers(min_value=-4, max_value=3),
)
@example(p=5, q=4, beta=Fraction(0), base=10, k_lo=0)
@example(p=5, q=4, beta=Fraction(1, 2), base=10, k_lo=-3)
def test_rational_level_starts_match_fraction_oracle(p, q, beta, base, k_lo):
    # negative k_lo takes the general path below level 0, then the
    # rational step from level 0 on
    n = normalize(FloorLogInstance(ExactReal(Fraction(p, q)), ExactReal(beta), base))
    want = rational_level_starts(
        n.alpha.as_fraction(), n.beta.as_fraction(), base, k_lo, 30, n.n_min
    )
    assert levelcounts._level_starts(n, k_lo, 30) == want
