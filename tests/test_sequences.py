"""Floor-log sequence tests: normalization, u/v terms, jump positions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlog import cli
from floorlog.battery import BATTERY, by_name
from floorlog.exact import ExactReal
from floorlog.sequences import (
    ConsistencyError,
    FloorLogInstance,
    JumpData,
    NormalizedInstance,
    jump_positions,
    normalize,
    u_seq,
    u_term,
    v_indicator,
)
from oracles import (
    dense_v_indicator,
    normalize_stepwise,
    oracle_c,
    oracle_u,
    rational_jumps,
    v_seq,
    verify_jumps_against_v,
)

SQRT2 = ExactReal.sqrt(2)


def inst(alpha, beta, base) -> FloorLogInstance:
    return FloorLogInstance(ExactReal.parse(str(alpha)), ExactReal.parse(str(beta)), base)


def norm_of(alpha, beta, base) -> NormalizedInstance:
    return normalize(inst(alpha, beta, base))


def test_u_frozen_sqrt2():
    n = norm_of("sqrt(2)", 0, 2)
    u = u_seq(n, 6)
    assert u.start == 1
    assert list(u.values) == [0, 1, 2, 2, 2, 3]


def test_v_frozen_sqrt2():
    n = norm_of("sqrt(2)", 0, 2)
    v, n0 = v_seq(n, 5)
    assert list(v.values) == [1, 1, 0, 0, 1]
    assert n0 is None


def test_u_frozen_three_halves():
    n = norm_of("3/2", 0, 2)
    u = u_seq(n, 5)
    assert list(u.values) == [0, 1, 2, 2, 2]


def test_c_frozen_sqrt2():
    n = norm_of("sqrt(2)", 0, 2)
    jd = jump_positions(n, 8)
    assert list(jd.c) == [1, 2, 5, 11, 22, 45, 90, 181]
    assert jd.integrality_hits == ()


def test_c_frozen_three_halves():
    n = norm_of("3/2", 0, 2)
    jd = jump_positions(n, 6)
    # floor(2^{k+1}/3)
    assert list(jd.c) == [1, 2, 5, 10, 21, 42]


def test_c_integrality_alpha_one():
    n = norm_of(1, 0, 2)
    jd = jump_positions(n, 4)
    assert list(jd.c) == [2, 4, 8, 16]
    assert jd.integrality_hits[0] == 1
    assert len(jd.integrality_hits) >= 2  # a rationality witness by itself


def test_normalize_shift_example():
    n = norm_of(3, 5, 2)
    assert n.alpha == Fraction(3, 2)
    assert n.beta == 1
    assert n.index_shift == 1
    assert n.value_offset == 1


def test_normalize_identity_holds():
    raw = inst(3, 5, 2)
    n = normalize(raw)
    for k in range(n.identity_start, n.identity_start + 40):
        orig = u_term(raw.alpha, raw.beta, raw.base, k)
        mapped = n.value_offset + u_term(n.alpha, n.beta, n.base, k + n.index_shift)
        assert orig == mapped


def test_normalize_negative_beta():
    raw = inst("3/2", -4, 2)
    n = normalize(raw)
    assert n.beta.sign() >= 0
    assert n.beta < n.alpha
    assert n.index_shift < 0
    for k in range(n.identity_start, n.identity_start + 30):
        orig = u_term(raw.alpha, raw.beta, raw.base, k)
        mapped = n.value_offset + u_term(n.alpha, n.beta, n.base, k + n.index_shift)
        assert orig == mapped


def test_normalize_surd_above_base():
    n = norm_of("1+1*sqrt(2)", 0, 2)  # 2.414... needs one halving
    assert n.value_offset == 1
    assert n.alpha < 2
    assert n.alpha > 1


def test_normalize_small_alpha_scales_up():
    raw = inst("1/3", 0, 2)
    n = normalize(raw)
    assert n.alpha == Fraction(4, 3)
    assert n.value_offset == -2
    for k in range(n.identity_start, n.identity_start + 30):
        orig = u_term(raw.alpha, raw.beta, raw.base, k)
        mapped = n.value_offset + u_term(n.alpha, n.beta, n.base, k + n.index_shift)
        assert orig == mapped


def test_normalize_small_alpha_large_beta():
    # scaling up multiplies beta too, so the index shift happens afterwards
    raw = inst("1/4", 5, 2)
    n = normalize(raw)
    assert n.alpha == 1
    assert n.beta < n.alpha
    assert n.index_shift == 20  # beta*4 = 20 absorbed one alpha at a time
    for k in range(n.identity_start, n.identity_start + 30):
        orig = u_term(raw.alpha, raw.beta, raw.base, k)
        mapped = n.value_offset + u_term(n.alpha, n.beta, n.base, k + n.index_shift)
        assert orig == mapped


def test_n_min():
    assert inst("sqrt(2)", 0, 2).n_min == 1
    assert inst("3/2", "1/3", 2).n_min == 0
    assert inst("3/2", -4, 2).n_min == 3  # 3/2*n > 4 first at n = 3
    assert norm_of("sqrt(2)", 0, 2).n_min == 1


def test_u_negative_levels():
    # alpha n + beta in (0, 1) floors the log below zero
    n = inst("22/7", "1/3", 2)
    assert u_term(n.alpha, n.beta, n.base, 0) == -2  # 1/3 in [1/4, 1/2)
    assert oracle_u(n.alpha, n.beta, 2, 0) == -2


def test_u_rejects_nonpositive_argument():
    raw = inst("3/2", -4, 2)
    with pytest.raises(ValueError):
        u_term(raw.alpha, raw.beta, raw.base, 2)  # 3 - 4 < 0


def test_instance_validation():
    with pytest.raises(ValueError):
        inst(0, 0, 2)
    with pytest.raises(ValueError):
        inst("-3/2", 0, 2)
    with pytest.raises(ValueError):
        inst(1, 0, 1)
    with pytest.raises(ValueError, match=r"sqrt\(2\) and sqrt\(3\)"):
        inst("sqrt(2)", "1/3*sqrt(3)", 10)
    # one radicand, or a rational partner, is fine
    inst("sqrt(2)", "1/3*sqrt(8)", 10)
    inst("3/2", "sqrt(3)", 10)
    with pytest.raises(ConsistencyError):
        NormalizedInstance(ExactReal(3), ExactReal(0), 2)


def test_jump_cross_check_sqrt2():
    n = norm_of("sqrt(2)", 0, 2)
    verify_jumps_against_v(n, jump_positions(n, 9), 400)


def test_jump_cross_check_with_integrality():
    n = norm_of(1, 0, 2)
    verify_jumps_against_v(n, jump_positions(n, 6), 80)


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


@settings(max_examples=80, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_normalize_invariants_and_identity(alpha, beta, base):
    raw = FloorLogInstance(alpha, beta, base)
    n = normalize(raw)
    assert n.beta.sign() >= 0
    assert n.beta < n.alpha
    assert n.alpha < base
    assert n.alpha >= 1
    for k in range(n.identity_start, n.identity_start + 12):
        orig = u_term(raw.alpha, raw.beta, raw.base, k)
        mapped = n.value_offset + u_term(n.alpha, n.beta, n.base, k + n.index_shift)
        assert orig == mapped


@settings(max_examples=50, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base, n=st.integers(min_value=0, max_value=300))
def test_u_matches_oracle(alpha, beta, base, n):
    raw = FloorLogInstance(alpha, beta, base)
    if n < raw.n_min:
        n = raw.n_min
    assert u_term(alpha, beta, base, n) == oracle_u(alpha, beta, base, n)


@settings(max_examples=40, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_c_matches_oracle_and_v_alignment(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    jd = jump_positions(n, 10)
    for k in (1, 2, 3, 7, 10):
        assert jd.at(k) == oracle_c(n.alpha, n.beta, base, k)
    verify_jumps_against_v(n, jump_positions(n, 5), jd.at(5) + 2)


@settings(max_examples=50, deadline=None)
@given(alpha=st_alpha, beta=st_beta, base=st_base)
def test_v_is_eventually_binary(alpha, beta, base):
    n = normalize(FloorLogInstance(alpha, beta, base))
    _, n0 = v_seq(n, 600)
    if n0 is not None:
        # violations live in a finite prefix; with normalized data they are
        # confined to the very start where the argument is still below 1
        assert n.alpha * n0 + n.beta < 1


@st.composite
def st_wide_pair(draw, scale: int, top: int):
    """alpha > 0 and beta of any sign, one radicand, each a mantissa times scale**e, |e| <= top."""
    d = draw(st.sampled_from([1, 2, 3, 5]))

    def scaled() -> ExactReal:
        mantissa = ExactReal(
            draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
        ) + ExactReal(
            draw(st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6))
        ) * ExactReal.sqrt(d)
        return mantissa * ExactReal(Fraction(scale) ** draw(st.integers(-top, top)))

    return scaled(), draw(st.sampled_from([-1, 0, 1])) * scaled()


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(min_value=2, max_value=16).flatmap(
        lambda base: st.tuples(st_wide_pair(base, 40), st.just(base))
    ),
    n=st.integers(min_value=0, max_value=3),
)
def test_u_matches_oracle_across_levels(case, n):
    # alpha*n + beta from about base^-40 to base^40, both sides of level 0
    (alpha, beta), base = case
    n = max(n, FloorLogInstance(alpha, beta, base).n_min)
    assert u_term(alpha, beta, base, n) == oracle_u(alpha, beta, base, n)


@settings(max_examples=60, deadline=None)
@given(pair=st_wide_pair(10, 30), base=st.integers(min_value=2, max_value=16))
def test_normalize_matches_stepwise_scaling(pair, base):
    raw = FloorLogInstance(*pair, base)
    got, want = normalize(raw), normalize_stepwise(raw)
    assert got == want
    assert (str(got.alpha), str(got.beta)) == (str(want.alpha), str(want.beta))


def test_level_of_a_4000_digit_denominator_is_a_few_operations(monkeypatch, capsys):
    nines = "9" * 4000
    alpha = ExactReal.parse(f"1/{nines}")
    zero = ExactReal(0)
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        real = getattr(ExactReal, name)

        def counted(self, other, _real=real):
            calls.append(other)
            return _real(self, other)

        monkeypatch.setattr(ExactReal, name, counted)
    # stepping one power of 2 at a time would take 13,288 steps each
    assert u_term(alpha, zero, 2, 1) == -13288
    assert len(calls) <= 8
    calls.clear()
    assert normalize(FloorLogInstance(alpha, zero, 2)).value_offset == -13288
    assert len(calls) <= 8
    monkeypatch.undo()
    assert cli.main(["seq", "--alpha", f"1/{nines}", "--base", "2", "--to", "3"]) == 0
    assert capsys.readouterr().out.strip() == "-13288,-13287,-13287"


RATIONAL_OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(7, 5))


@settings(max_examples=80, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=400),
    q=st.integers(min_value=1, max_value=400),
    beta=st.sampled_from(RATIONAL_OFFSETS),
    base=st.integers(min_value=2, max_value=10),
)
@example(p=5, q=4, beta=Fraction(0), base=10)
def test_rational_jump_table_matches_fraction_oracle(p, q, beta, base):
    n = normalize(FloorLogInstance(ExactReal(Fraction(p, q)), ExactReal(beta), base))
    want = rational_jumps(n.alpha.as_fraction(), n.beta.as_fraction(), base, 40)
    assert jump_positions(n, 40) == want


def test_five_quarters_hits_an_integer_at_every_level():
    n = norm_of("5/4", 0, 10)
    jd = jump_positions(n, 30)
    assert jd.integrality_hits == tuple(range(1, 31))
    assert jd == rational_jumps(Fraction(5, 4), Fraction(0), 10, 30)


@pytest.mark.parametrize("alpha, beta, base", [
    ("5/4", "0", 10), ("22/7", "-1/3", 2), ("sqrt(2)", "0", 3), ("1/2+1/2*sqrt(5)", "2/7", 10)])
def test_held_and_sliced_positions_equal_the_fold(alpha, beta, base):
    """A table's c and the c of each of its prefixes, read once a full
    table's c has been read, are what folding c_1 and r gives."""
    n = norm_of(alpha, beta, base)
    jd = jump_positions(n, 30)
    assert jd.c == JumpData(jd.base, jd.c1, jd.r).c
    for k in (1, 2, 17, 29):
        view = jd.prefix(k)
        assert view == jump_positions(n, k)
        assert view.c == jd.c[:k] == JumpData(view.base, view.c1, view.r).c


# (alpha, beta, base, hits): rational slopes with a hit at every level, with
# sparse hits and with none, a rational slope with a surd offset, and surds
BASE_POWER_CASES = [
    ("5/4", "0", 10, "every"),
    ("1", "0", 2, "every"),
    ("5/3", "1/3", 3, "sparse"),
    ("3/2", "1/3", 2, "none"),
    ("22/7", "1/3*sqrt(2)", 2, "none"),
    ("sqrt(2)", "0", 2, "none"),
    ("1+sqrt(3)", "0", 3, "none"),
    ("1/2+1/2*sqrt(5)", "2/7*sqrt(5)", 10, "none"),
]


@pytest.mark.parametrize("alpha, beta, base, hits", BASE_POWER_CASES)
@pytest.mark.parametrize("m", [2, 3])
def test_jump_table_in_a_power_of_the_base(alpha, beta, base, hits, m):
    """c^(b^m)_k = c^(b)_(mk), the hits are the k with mk a base-b hit, and
    r^(b^m)_k = sum_(i<m) b^(m-1-i)*r^(b)_(mk+i); each table is its fields."""
    levels = 30
    n = norm_of(alpha, beta, base)
    fine = jump_positions(n, m * levels)
    coarse = jump_positions(NormalizedInstance(n.alpha, n.beta, base**m), levels)
    found = len(fine.integrality_hits)
    assert {"every": found == m * levels, "sparse": 0 < found < m * levels,
            "none": found == 0}[hits]
    assert coarse.c == tuple(fine.at(m * k) for k in range(1, levels + 1))
    assert coarse.integrality_hits == tuple(
        k for k in range(1, levels + 1) if m * k in fine.integrality_hits)
    assert coarse.r == tuple(
        sum(base ** (m - 1 - i) * fine.r[m * k + i - 1] for i in range(m))
        for k in range(1, levels))
    for t in (fine, coarse):
        rebuilt = JumpData(t.base, t.c1, t.r, t.integrality_hits)
        assert rebuilt == t and rebuilt.c == t.c


def test_a_table_needs_one_level():
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        jump_positions(norm_of("sqrt(2)", 0, 2), 0)


@pytest.mark.parametrize("inst", BATTERY, ids=lambda i: i.name)
def test_step_view_reads_like_the_dense_indicator(inst):
    n = inst.normalized()
    view, dense = v_indicator(n, 3000), dense_v_indicator(n, 3000)
    assert list(view) == list(dense)  # iteration ends at the IndexError past size


@pytest.mark.parametrize("name", ["i14", "i03"])
def test_step_view_matches_the_dense_indicator_at_kernel_scale(name):
    # the size criterion 3 walks its kernels on
    n, size = by_name(name).normalized(), 2**9 * 4096 - 1
    view, dense = v_indicator(n, size), dense_v_indicator(n, size)
    assert view.size == len(dense) - 1 == size
    ones, i = set(), dense.find(1)
    while i >= 0:
        ones.add(i)
        i = dense.find(1, i + 1)
    assert view.steps == ones
    for i in sorted({0, size} | {j + s for j in ones for s in (-1, 0, 1)} - {-1, size + 1}):
        assert view[i] == dense[i]
    for outside in (-1, size + 1, size + 2**20):
        with pytest.raises(IndexError):
            view[outside]
