"""The linear-step surd tables against their direct forms in oracles.py.

sequences.jump_positions brackets each c_k with two fixed-point roots
taken once per call, and jumpdigits.classify_range sweeps integers;
both must give exactly what a fresh root per index and an ExactReal
sweep give, integrality hits and record tags included.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floorlog import sequences
from floorlog.exact import ExactReal, floor_quadratic
from floorlog.jumpdigits import classify_range
from floorlog.sequences import FloorLogInstance, jump_positions, normalize
from oracles import classify_range_exact, jump_positions_fresh_roots

st_ratio = st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6)


def _surd(a: Fraction, c: Fraction, d: int) -> ExactReal:
    return ExactReal(a) + ExactReal(c) * ExactReal.sqrt(d)


@st.composite
def st_surd_slope(draw, d):
    """a + c*sqrt(d) > 0 with c of either sign."""
    c = draw(st_ratio)
    if draw(st.booleans()):
        alpha = _surd(draw(st.fractions(min_value=-1, max_value=3, max_denominator=6)), c, d)
        assume(alpha.sign() > 0)
        return alpha
    # a negative radical part: the rational part must exceed c*sqrt(d)
    lead = _surd(Fraction(0), c, d).ceil()
    return _surd(lead + draw(st.fractions(min_value=0, max_value=2, max_denominator=6)), -c, d)


@st.composite
def st_table_instance(draw):
    """(alpha, beta, base, k_max) over every shape the two tables branch on.

    Surd slopes with positive and negative radical parts, with rational
    or surd offsets of either sign; a rational slope with a surd offset
    (q = 0, f != 0); rational slopes whose numerator divides a power of
    the base, which hit integers; and alpha = 1.
    """
    base = draw(st.integers(min_value=2, max_value=10))
    d = draw(st.sampled_from([2, 3, 5, 7, 10]))
    rational_beta = st.fractions(min_value=-2, max_value=3, max_denominator=7).map(ExactReal)
    surd_beta = st.tuples(
        st.fractions(min_value=-1, max_value=2, max_denominator=5),
        st.sampled_from([Fraction(-2, 3), Fraction(-1, 2), Fraction(1, 3), Fraction(5, 4)]),
    ).map(lambda t: _surd(t[0], t[1], d))
    shape = draw(st.sampled_from(["surd", "rational-slope-surd-offset", "hits", "unit"]))
    if shape == "surd":
        alpha, beta = draw(st_surd_slope(d)), draw(st.one_of(rational_beta, surd_beta))
    elif shape == "rational-slope-surd-offset":
        alpha = ExactReal(draw(st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=12)))
        beta = draw(surd_beta)
    elif shape == "hits":
        divisors = [p for p in range(1, base * base + 1) if base * base % p == 0]
        alpha = ExactReal(Fraction(draw(st.sampled_from(divisors)), draw(st.integers(1, 12))))
        beta = draw(st.one_of(st.just(ExactReal(0)), rational_beta))
    else:
        alpha, beta = ExactReal(1), draw(st.one_of(st.just(ExactReal(0)), rational_beta))
    return alpha, beta, base, draw(st.integers(min_value=1, max_value=300))


@settings(max_examples=120, deadline=None)
@given(case=st_table_instance())
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal(0), 2, 300))
@example(case=(ExactReal.parse("3-sqrt(2)"), ExactReal.parse("-1/2*sqrt(2)"), 7, 57))
@example(case=(ExactReal.parse("5/3"), ExactReal.parse("1/3*sqrt(2)"), 2, 40))
@example(case=(ExactReal.parse("5/4"), ExactReal(0), 10, 30))
@example(case=(ExactReal(1), ExactReal(0), 3, 1))
def test_tables_equal_their_direct_forms(case):
    alpha, beta, base, k_max = case
    norm = normalize(FloorLogInstance(alpha, beta, base))
    assert jump_positions(norm, k_max) == jump_positions_fresh_roots(norm, k_max)
    assert classify_range(norm, k_max) == classify_range_exact(norm, k_max)


# slopes and offsets covering q > 0, q < 0, q = 0 with f != 0, f < 0 and
# f = 0 after normalization, in every base from 2 to 10
_GUARD_CASES = [
    (alpha, beta, base)
    for alpha, beta in [
        ("sqrt(2)", "0"), ("1+sqrt(3)", "0"), ("3-sqrt(2)", "1/3"), ("3+sqrt(2)", "0"),
        ("2+1/2*sqrt(3)", "1/5"), ("5/2+sqrt(2)", "-1/3*sqrt(2)"),
        ("2-1/2*sqrt(3)", "-1/2*sqrt(3)"), ("1/2+1/2*sqrt(5)", "2/7*sqrt(5)"),
        ("5/3", "1/3*sqrt(2)"), ("7/5", "1-2/3*sqrt(7)"), ("sqrt(10)", "1/2+1/3*sqrt(10)"),
    ]
    for base in range(2, 11)
]


def test_straddled_brackets_fall_back_to_a_fresh_root(monkeypatch):
    """The bracket holds for any M >= 0.  With the guard at -2, the least
    that keeps M >= 0 for every base and k_max (base^1 has at least two
    bits), it straddles an integer often: the fresh-root fallback must
    then give c_k, and every accepted bracket must still be right."""
    roots = []

    def counting_floor(a, b, d, c):
        roots.append(b)
        return floor_quadratic(a, b, d, c)

    monkeypatch.setattr(sequences, "_ROOT_GUARD_BITS", -2)
    monkeypatch.setattr(sequences, "floor_quadratic", counting_floor)
    fallbacks = 0
    for alpha, beta, base in _GUARD_CASES:
        norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
        for k_max in range(1, 41):
            roots.clear()
            assert jump_positions(norm, k_max) == jump_positions_fresh_roots(norm, k_max)
            fallbacks += len(roots) - 2  # two fixed-point roots per call
    assert fallbacks > 100
