"""Exact-number tests, pinned against the interval/shadow oracle."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floorlog
from floorlog.exact import (
    ExactReal,
    IncompatibleRadicandsError,
    ParseError,
    floor_quadratic,
    squarefree_decompose,
)
from oracles import sh_compare, sh_floor, sh_make, shadow

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13]

st_small_rat = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
st_surd = st.builds(
    lambda a, c, d: ExactReal(a) + ExactReal(c) * ExactReal.sqrt(d),
    st_small_rat,
    st_small_rat,
    st.sampled_from(SQUAREFREE),
)
st_value = st.one_of(st_small_rat.map(ExactReal), st_surd)


def test_parse_grammar():
    assert ExactReal.parse("7") == 7
    assert ExactReal.parse("-1/3") == Fraction(-1, 3)
    assert ExactReal.parse("3/2") == Fraction(3, 2)
    s8 = ExactReal.parse("sqrt(8)")
    assert s8 == 2 * ExactReal.sqrt(2)
    assert s8.radicand == 2
    # a perfect-square radicand collapses to a rational
    assert ExactReal.parse("1+2*sqrt(4)") == 5
    assert ExactReal.parse("1+2*sqrt(4)").is_rational
    golden = ExactReal.parse("1/2+1/2*sqrt(5)")
    assert golden.rational_part == Fraction(1, 2)
    assert golden.radical_coeff == Fraction(1, 2)
    assert golden.radicand == 5


@pytest.mark.parametrize("bad", ["", "x", "sqrt(-2)", "sqrt(0)", "1/0", "2**3", "sqrt(2)+sqrt(3)"])
def test_parse_rejects(bad):
    with pytest.raises((ParseError, ZeroDivisionError)):
        ExactReal.parse(bad)


def test_parse_caps_the_radicand():
    # the largest prime below the 10**12 cap still decomposes quickly
    assert ExactReal.parse("sqrt(999999999989)").radicand == 999999999989
    assert ExactReal.parse("sqrt(1000000000000)") == 10**6
    for text in ["sqrt(1000000000001)", "1+sqrt(2000000000000)"]:
        with pytest.raises(ParseError, match="radicand"):
            ExactReal.parse(text)


@pytest.mark.parametrize(
    "template", ["{}", "-{}", "3/{}", "{}/3", "sqrt({})", "1+{}*sqrt(2)"]
)
def test_parse_refuses_overlong_integer_literals(template):
    # int() has its own digit limit (4300 by default); hitting it is a
    # parse failure, not a bare ValueError
    with pytest.raises(ParseError, match="too long"):
        ExactReal.parse(template.format("1" * 5000))
    assert ExactReal.parse(template.format("7"))


def test_parse_str_roundtrip_examples():
    for text in ["0", "22/7", "-5", "sqrt(2)", "-sqrt(7)", "1/2+1/2*sqrt(5)", "2-3/4*sqrt(10)"]:
        v = ExactReal.parse(text)
        assert ExactReal.parse(str(v)) == v


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (6, 10)
    assert squarefree_decompose(49) == (7, 1)


def test_compare_examples():
    assert ExactReal.sqrt(2).compare(Fraction(3, 2)) < 0
    assert ExactReal.sqrt(2).compare(Fraction(7, 5)) > 0
    assert (ExactReal.sqrt(2) / 2).compare(1 / ExactReal.sqrt(2)) == 0
    # across radicands
    assert ExactReal.sqrt(2) < ExactReal.sqrt(3)
    assert 1 + ExactReal.sqrt(2) < ExactReal.sqrt(6)
    assert 2 + ExactReal.sqrt(2) > ExactReal.sqrt(11)


def test_floor_examples():
    assert (1024 / ExactReal.sqrt(2)).floor() == 724
    assert ExactReal.parse("-1/3").floor() == -1
    assert ExactReal.parse("-1/3").frac() == Fraction(2, 3)
    assert (-ExactReal.sqrt(2)).floor() == -2
    assert ((1 + ExactReal.sqrt(5)) / 2).floor() == 1
    assert ExactReal(7).floor() == 7
    assert ExactReal.parse("22/7").floor() == 3
    assert ExactReal.parse("22/7").ceil() == 4
    assert ExactReal.sqrt(2).ceil() == 2


def test_mixed_radicand_arithmetic_raises():
    with pytest.raises(IncompatibleRadicandsError):
        ExactReal.sqrt(2) + ExactReal.sqrt(3)
    with pytest.raises(IncompatibleRadicandsError):
        ExactReal.sqrt(2) * ExactReal.sqrt(3)
    # but comparison stays total
    assert ExactReal.sqrt(2).compare(ExactReal.sqrt(3)) == -1


def test_field_arithmetic_identities():
    phi = (1 + ExactReal.sqrt(5)) / 2
    assert phi * phi == phi + 1
    assert (ExactReal.sqrt(2) * ExactReal.sqrt(2)) == 2
    x = ExactReal(Fraction(3, 7)) - 5 * ExactReal.sqrt(13)
    assert x - x == 0
    assert x / x == 1
    assert (1 / x) * x == 1


def test_no_float_conversion():
    # exactness is enforced by construction: no __float__ anywhere
    with pytest.raises(TypeError):
        float(ExactReal.sqrt(2))


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        1 / ExactReal(0)
    with pytest.raises(ZeroDivisionError):
        ExactReal.sqrt(2) / 0


@settings(max_examples=200)
@given(x=st_value, y=st_value)
def test_compare_matches_interval_oracle(x, y):
    assert x.compare(y) == sh_compare(shadow(x), shadow(y))


@settings(max_examples=200)
@given(x=st_value)
def test_floor_matches_oracle_and_frac_identity(x):
    f = x.floor()
    assert f == sh_floor(shadow(x))
    fr = x.frac()
    assert fr.sign() >= 0
    assert fr < 1
    assert fr + f == x


st_operand = st.integers(min_value=-(1 << 300), max_value=1 << 300)
# (d, b): a non-square d with any b, or d = 1 with b = 0
st_radical = st.one_of(
    st.tuples(st.just(1), st.just(0)),
    st.tuples(st.sampled_from([2, 3, 5, 6, 7, 10]), st.one_of(st.just(0), st_operand)),
)


@settings(max_examples=200)
@given(
    a=st.one_of(st.just(0), st_operand),
    radical=st_radical,
    c=st.integers(min_value=1, max_value=1 << 300),
)
@example(a=0, radical=(2, -1), c=1)
@example(a=-7, radical=(1, 0), c=7)
@example(a=3, radical=(5, -(1 << 299)), c=6)
@example(a=6, radical=(2, -4), c=10)  # a common factor left in
def test_floor_quadratic_matches_oracle_on_unreduced_quadruples(a, radical, c):
    d, b = radical
    x = sh_make(Fraction(a, c), Fraction(b, c), d)
    floor = floor_quadratic(a, b, d, c)
    assert floor == sh_floor(x)
    # the level-start ceiling in levelcounts: ceil(x) = -floor(-x), which is
    # floor(x) + 1 unless x is an integer
    whole = b == 0 and a % c == 0
    assert -floor_quadratic(-a, -b, d, c) == floor + (0 if whole else 1)


def test_only_exact_imports_isqrt():
    """floor_quadratic stays the package's one integer square root: no other
    module under floorlog imports isqrt, from math or elsewhere."""
    importers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(floorlog.__file__).parent.rglob("*.py"))
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "isqrt" for alias in node.names)
    ]
    assert importers == []


@settings(max_examples=150)
@given(x=st_value, y=st_value)
def test_ring_ops_match_shadow(x, y):
    if x.radicand != y.radicand and x.radicand != 1 and y.radicand != 1:
        return
    from oracles import sh_add, sh_mul, sh_sub

    assert shadow(x + y) == sh_add(shadow(x), shadow(y))
    assert shadow(x - y) == sh_sub(shadow(x), shadow(y))
    assert shadow(x * y) == sh_mul(shadow(x), shadow(y))
    if y != 0:
        from oracles import sh_div

        assert shadow(x / y) == sh_div(shadow(x), shadow(y))


@settings(max_examples=100)
@given(x=st_value)
def test_str_roundtrip(x):
    assert ExactReal.parse(str(x)) == x


@settings(max_examples=100)
@given(x=st_value, n=st.integers(min_value=-6, max_value=6))
def test_integer_shift_commutes_with_floor(x, n):
    assert (x + n).floor() == x.floor() + n
    assert (x + n).frac() == x.frac()


def test_hash_consistency():
    assert hash(ExactReal(3)) == hash(3)
    assert hash(ExactReal(Fraction(3, 2))) == hash(Fraction(3, 2))
    a = 1 + 2 * ExactReal.sqrt(18)  # normalizes to 1 + 6*sqrt(2)
    b = 1 + 6 * ExactReal.sqrt(2)
    assert a == b and hash(a) == hash(b)


def test_sign_of_tiny_differences():
    # sqrt(2) is not 99/70 even though they agree to 4 decimal places
    assert ExactReal.sqrt(2) != Fraction(99, 70)
    assert (ExactReal.sqrt(2) - Fraction(99, 70)).sign() == -1
    assert (ExactReal.sqrt(2) - Fraction(140, 99)).sign() == 1
