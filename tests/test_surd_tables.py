"""The surd tables against their direct forms in oracles.py and each other.

sequences.jump_positions brackets each c_k with two fixed-point roots
taken once per call, and jumpdigits.classify_range reads its threshold
tests off the digit tails of one exact floor; both must give exactly
what a fresh root per index, a per-digit integer sweep and an ExactReal
sweep give, integrality hits and record tags included.  r_stream must
give what the jump table gives in every base, with one exact floor per
term it does not read off a block, and what the per-digit spigot in
oracles.py gives at every block length, including the blocks that a
narrow guard sends back to the per-digit floor.  The remainder machine
names nothing of the jump table, so the comparison stays a check.
"""

import ast
import inspect
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from floorlog import jumpdigits, sequences
from floorlog.exact import ExactReal, floor_quadratic
from floorlog.jumpdigits import classify_range, r_digits, r_direct, r_from_jumps, r_stream
from floorlog.sequences import FloorLogInstance, jump_positions, normalize
from oracles import (
    classify_range_exact,
    classify_range_sweep,
    jump_positions_fresh_roots,
    r_digits_per_digit,
)

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
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("32-22*sqrt(2)"), 2, 40))
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("2-sqrt(2)"), 2, 40))
def test_tables_equal_their_direct_forms(case):
    alpha, beta, base, k_max = case
    norm = normalize(FloorLogInstance(alpha, beta, base))
    assert jump_positions(norm, k_max) == jump_positions_fresh_roots(norm, k_max)
    records = classify_range(norm, k_max)
    assert records == classify_range_exact(norm, k_max)
    assert records == classify_range_sweep(norm, k_max)


def _count_exact_tests(monkeypatch) -> list[int]:
    """The indices k at which classify_range falls back to the exact sign test."""
    seen = []
    real = jumpdigits._threshold_exact

    def counted(norm, offset, k):
        seen.append(k)
        return real(norm, offset, k)

    monkeypatch.setattr(jumpdigits, "_threshold_exact", counted)
    return seen


@pytest.mark.parametrize("beta, hit", [("32-22*sqrt(2)", 5), ("2-sqrt(2)", 1)])
def test_a_surd_integrality_hit_takes_the_exact_test(monkeypatch, beta, hit):
    """(2^hit - beta)/sqrt(2) is an integer, so frac(2^hit/alpha) equals
    frac(beta/alpha): the digit tails agree forever and only the exact
    sign test settles P_hit, which then holds."""
    norm = normalize(FloorLogInstance(ExactReal.parse("sqrt(2)"), ExactReal.parse(beta), 2))
    assert jump_positions(norm, 40).integrality_hits == (hit,)
    fallbacks = _count_exact_tests(monkeypatch)
    records = classify_range(norm, 40)
    assert fallbacks == [hit]
    assert records[hit - 1].pk
    assert records == classify_range_sweep(norm, 40)


@st.composite
def st_tail_tie(draw):
    """A surd alpha in [1, base) with frac(beta/alpha) within base^-(j+g) of
    frac(base^j/alpha), g the guard digits, so the two digit tails agree on
    their first j + g digits.

    frac(beta/alpha) = (floor(base^(j+g) u) + s)/base^(j+g) for
    u = frac(base^j/alpha) and s in [0, 1): a rational s, a surd s, or
    s = frac(base^(j+g) u), which makes j an integrality hit.  With
    2j >= k_max + 1 the agreement covers every digit classify_range reads
    past place j, so P_j must come from the exact sign test.
    """
    base = draw(st.integers(min_value=2, max_value=10))
    d = draw(st.sampled_from([2, 3, 5, 7, 10]))
    alpha = normalize(FloorLogInstance(draw(st_surd_slope(d)), ExactReal(0), base)).alpha
    k_max = draw(st.integers(min_value=1, max_value=60))
    j = draw(st.integers(min_value=(k_max + 2) // 2, max_value=k_max + 1))
    scale = base ** (j + jumpdigits._TAIL_GUARD_DIGITS)
    u = (base**j / alpha).frac()
    shape = draw(st.sampled_from(["rational", "surd", "hit"]))
    if shape == "rational":
        s = ExactReal(draw(st.fractions(min_value=0, max_value=1, max_denominator=9)))
        assume(s < 1)
    elif shape == "surd":
        s = (ExactReal(draw(st_ratio)) * ExactReal.sqrt(d)).frac()
    else:
        s = (scale * u).frac()
    offset = ((scale * u).floor() + s) / scale
    return alpha, alpha * offset, base, k_max, j


@settings(max_examples=60, deadline=None)
@given(case=st_tail_tie())
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("32-22*sqrt(2)"), 2, 9, 5))
def test_long_tail_agreements_fall_back_to_the_exact_test(case):
    alpha, beta, base, k_max, j = case
    norm = normalize(FloorLogInstance(alpha, beta, base))
    assert (norm.alpha, norm.beta) == (alpha, beta)
    with pytest.MonkeyPatch.context() as patch:
        fallbacks = _count_exact_tests(patch)
        records = classify_range(norm, k_max)
    assert j in fallbacks
    assert records == classify_range_sweep(norm, k_max)
    assert records == classify_range_exact(norm, k_max)


# slopes and offsets covering q > 0, q < 0, q = 0 with f != 0, f < 0 and
# f = 0 after normalization, in every base from 2 to 10; the last two
# hit an integer, at k = 5 in base 2 and at k = 2 in base 10
_GUARD_CASES = [
    (alpha, beta, base)
    for alpha, beta in [
        ("sqrt(2)", "0"), ("1+sqrt(3)", "0"), ("3-sqrt(2)", "1/3"), ("3+sqrt(2)", "0"),
        ("2+1/2*sqrt(3)", "1/5"), ("5/2+sqrt(2)", "-1/3*sqrt(2)"),
        ("2-1/2*sqrt(3)", "-1/2*sqrt(3)"), ("1/2+1/2*sqrt(5)", "2/7*sqrt(5)"),
        ("5/3", "1/3*sqrt(2)"), ("7/5", "1-2/3*sqrt(7)"), ("sqrt(10)", "1/2+1/3*sqrt(10)"),
        ("sqrt(2)", "32-22*sqrt(2)"), ("sqrt(2)", "100-70*sqrt(2)"),
    ]
    for base in range(2, 11)
]


def test_straddled_brackets_fall_back_to_a_fresh_root(monkeypatch):
    """The bracket holds for any M >= 0.  With the guard at -2, the least
    that keeps M >= 0 for every base and k_max (base^1 has at least two
    bits), it straddles an integer often: the fresh-root fallback must
    then give c_k, and every accepted bracket must still be right.  The
    integrality hits are recorded there, and must be the fresh-root
    ones too."""
    roots = []

    def counting_floor(a, b, d, c):
        roots.append(b)
        return floor_quadratic(a, b, d, c)

    monkeypatch.setattr(sequences, "_ROOT_GUARD_BITS", -2)
    monkeypatch.setattr(sequences, "floor_quadratic", counting_floor)
    fallbacks = hits = 0
    for alpha, beta, base in _GUARD_CASES:
        norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
        for k_max in range(1, 41):
            roots.clear()
            table = jump_positions(norm, k_max)
            assert table == jump_positions_fresh_roots(norm, k_max)
            fallbacks += len(roots) - 2  # two fixed-point roots per call
            hits += len(table.integrality_hits)
    assert fallbacks > 100
    assert hits > 0


# spigot slopes (alpha, beta): t = 0 (beta 0); t != 0 with B positive or
# negative throughout; and sqrt(2) with beta 5000-3535*sqrt(2), where
# B_k is (base^k - 5000)/2 up to a positive factor, so B changes sign
# once in every base here
_SPIGOT_SLOPES = (
    ("sqrt(2)", "0"), ("1/2+1/2*sqrt(5)", "2/7*sqrt(5)"), ("3-sqrt(2)", "1/3"),
    ("sqrt(2)", "5000-3535*sqrt(2)"),
)


def _count_block_steps(monkeypatch) -> list[int]:
    """The block values of r_digits' exact steps in base base^L, one per block run."""
    values = []
    real = jumpdigits._block_step

    def counted(*args):
        out = real(*args)
        values.append(out[-1])
        return out

    monkeypatch.setattr(jumpdigits, "_block_step", counted)
    return values


@pytest.mark.parametrize("base", [2, 3, 4, 5, 10, 255, 256, 4095, 4096])
def test_spigot_equals_the_jump_table_in_every_base(monkeypatch, base):
    """Each term not read off a block takes one root, each entry into
    block mode one more, and the block constants three."""
    roots = []

    def counting_floor(a, b, d, c):
        roots.append(b)
        return floor_quadratic(a, b, d, c)

    monkeypatch.setattr(jumpdigits, "floor_quadratic", counting_floor)
    blocks = _count_block_steps(monkeypatch)
    k_max, length = 200, jumpdigits._BLOCK_DIGITS
    for alpha, beta in _SPIGOT_SLOPES:
        norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
        roots.clear()
        blocks.clear()
        digits = r_digits(norm)
        stream, terms, entries = [], 0, 0
        left, from_block = 0, False  # digits of the last block still to be read
        for _ in range(k_max):
            ran = len(blocks)
            stream.append(next(digits))
            if len(blocks) > ran:
                # a block ran and its first digit was read; it starts a
                # run of blocks unless the previous digit came off one too.
                # At the default guard no block here is abandoned, so
                # every entry runs one
                entries += not from_block
                left = length
            from_block = left > 0
            if from_block:
                left -= 1
            else:
                terms += 1
        assert blocks  # by k_max = 200 every stream here runs in blocks
        assert len(roots) == 3 + terms + entries
        assert stream == r_from_jumps(jump_positions(norm, k_max + 1), base)
        for k in (1, 2, 3, k_max // 2, k_max):
            assert r_direct(norm, k) == stream[k - 1]


@pytest.mark.parametrize("guard", [1, 2, 3, 4])
def test_narrow_guards_make_the_filter_fire(monkeypatch, guard):
    """With a guard of G bits the bracket is up to 2^-G wide and the top
    G bits of the carried numerator's fraction are all ones about once
    in 2^G steps, so the exact bracket test runs often and sometimes
    finds a straddle.  Every c_k must still be the fresh-root one, and
    every integrality hit, which always straddles, must be found."""
    roots = []

    def counting_floor(a, b, d, c):
        roots.append(b)
        return floor_quadratic(a, b, d, c)

    monkeypatch.setattr(sequences, "_ROOT_GUARD_BITS", guard)
    monkeypatch.setattr(sequences, "floor_quadratic", counting_floor)
    fallbacks = hits = 0
    for alpha, beta, base in _GUARD_CASES:
        norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
        for k_max in range(1, 41):
            roots.clear()
            table = jump_positions(norm, k_max)
            assert table == jump_positions_fresh_roots(norm, k_max)
            fallbacks += len(roots) - 2  # two fixed-point roots per call
            hits += len(table.integrality_hits)
    assert hits > 0
    if guard == 1:
        assert fallbacks > 0


@st.composite
def st_carried_instance(draw):
    """(alpha, beta, base, k_max): a surd slope a + c*sqrt(d) with an offset
    whose rational and radical parts may be negative, in a base from 2 to
    16 or 4096."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 11, 13]))
    alpha = draw(st_surd_slope(d))
    rational = draw(st.fractions(min_value=-3, max_value=3, max_denominator=9))
    if draw(st.booleans()):
        beta = ExactReal(rational)
    else:
        radical = draw(st.fractions(min_value=-2, max_value=2, max_denominator=7))
        assume(radical != 0)
        beta = _surd(rational, radical, d)
    base = draw(st.sampled_from([*range(2, 17), 4096]))
    return alpha, beta, base, draw(st.integers(min_value=1, max_value=80))


def _assert_table_is_fresh_roots(norm, k_max: int) -> None:
    table, fresh = jump_positions(norm, k_max), jump_positions_fresh_roots(norm, k_max)
    assert table.c1 == fresh.c1
    assert table.r == fresh.r
    assert table.integrality_hits == fresh.integrality_hits
    assert len(table.c) == table.k_max == k_max
    assert table.c == fresh.c


@settings(max_examples=150, deadline=None)
@given(case=st_carried_instance())
@example(case=(ExactReal.parse("2-1/2*sqrt(3)"), ExactReal.parse("-1-1/2*sqrt(3)"), 4096, 80))
def test_carried_numerator_equals_fresh_roots(case):
    """c_1, r and the hits off the carried remainder, and c folded from
    them, are the fresh roots' positions."""
    alpha, beta, base, k_max = case
    _assert_table_is_fresh_roots(normalize(FloorLogInstance(alpha, beta, base)), k_max)


@pytest.mark.parametrize("alpha, beta, base", [
    case for case in _GUARD_CASES if case[1] in ("32-22*sqrt(2)", "100-70*sqrt(2)")])
def test_the_hit_slopes_keep_their_positions(alpha, beta, base):
    norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
    _assert_table_is_fresh_roots(norm, 40)


def test_the_table_takes_memory_linear_in_its_depth():
    """At 2*10^4 + 1 levels of sqrt(2) in base 10 a position has about
    66,000 bits, so a table that kept every c_k would hold some 80 MB;
    the carried remainder is one such number and the digits are small."""
    norm = normalize(FloorLogInstance(ExactReal.parse("sqrt(2)"), ExactReal(0), 10))
    k_max = 2 * 10**4 + 1
    tracemalloc.start()
    try:
        table = jump_positions(norm, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6
    assert table.k_max == k_max
    assert table.r[-1] == r_direct(norm, k_max - 1)


def test_records_are_immutable_and_equal_the_sweep():
    norm = normalize(FloorLogInstance(ExactReal.parse("1/2+1/2*sqrt(5)"),
                                      ExactReal.parse("2/7*sqrt(5)"), 10))
    records = classify_range(norm, 120)
    sweep = classify_range_sweep(norm, 120)
    assert len(records) == len(sweep) == 120
    for record, swept in zip(records, sweep):
        assert type(record) is type(swept) is jumpdigits.RkRecord
        assert record == swept
    with pytest.raises(AttributeError):
        records[0].r = 0
    with pytest.raises(AttributeError):
        records[0].extra = 0
    first = records[0]
    with pytest.raises(sequences.ConsistencyError):
        first._replace(r=first.r + 1)
    assert first._replace(k=first.k) == first


# sqrt(2) with beta = N - floor(N/sqrt(2))*sqrt(2), N = 10^60: B_k is
# (base^k - N)/2 up to a positive factor, so B starts near 10^60 in size,
# blocks run from the first digit, and B changes sign near k = 199 in
# base 2 (k = 60 in base 10)
_LATE_SIGN_CHANGE = f"{10**60}-{isqrt(10**120 // 2)}*sqrt(2)"


@settings(max_examples=200, deadline=None)
@given(case=st_carried_instance(), length=st.sampled_from([1, 2, 5, 64]),
       k_max=st.integers(min_value=1, max_value=400))
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("5000-3535*sqrt(2)"), 2, 0),
         length=5, k_max=300)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse(_LATE_SIGN_CHANGE), 2, 0),
         length=5, k_max=300)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse(_LATE_SIGN_CHANGE), 10, 0),
         length=2, k_max=150)
@example(case=(ExactReal.parse("2-1/2*sqrt(3)"), ExactReal.parse("-1-1/2*sqrt(3)"), 4096, 0),
         length=64, k_max=400)
# (base^k - beta)/sqrt(2) is an integer at k = 5, 2 and 3 in the rows
# below, so B = 0 there and the per-digit floor takes it
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("32-22*sqrt(2)"), 2, 0),
         length=1, k_max=150)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("32-22*sqrt(2)"), 2, 0),
         length=5, k_max=150)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("32-22*sqrt(2)"), 2, 0),
         length=64, k_max=150)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("100-70*sqrt(2)"), 10, 0),
         length=1, k_max=60)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("100-70*sqrt(2)"), 10, 0),
         length=5, k_max=60)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("100-70*sqrt(2)"), 10, 0),
         length=64, k_max=60)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("27-19*sqrt(2)"), 3, 0),
         length=1, k_max=100)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("27-19*sqrt(2)"), 3, 0),
         length=5, k_max=100)
@example(case=(ExactReal.parse("sqrt(2)"), ExactReal.parse("27-19*sqrt(2)"), 3, 0),
         length=64, k_max=100)
def test_blocks_equal_the_per_digit_machine(case, length, k_max):
    alpha, beta, base, _ = case
    norm = normalize(FloorLogInstance(alpha, beta, base))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jumpdigits, "_BLOCK_DIGITS", length)
        stream = r_stream(norm, k_max)
    assert stream == list(islice(r_digits_per_digit(norm), k_max))
    assert stream == r_from_jumps(jump_positions(norm, k_max + 1), base)


def test_the_remainder_machine_never_names_the_jump_table():
    """r_digits shares only the exact floor kernel with jump_positions and
    nothing with the residue kernel, so comparing them stays a check:
    neither the machine nor its block helpers names those routes or
    their tables."""
    tables = {"jump_positions", "JumpData", "_ROOT_GUARD_BITS", "residue_digits",
              "_residue_steps", "InstanceTables"}

    def names(func):
        nodes = list(ast.walk(ast.parse(inspect.getsource(func))))
        return {node.id for node in nodes if isinstance(node, ast.Name)} | {
            node.attr for node in nodes if isinstance(node, ast.Attribute)}

    machine = (jumpdigits.r_digits, jumpdigits._block_constants,
               jumpdigits._block_digits, jumpdigits._block_step)
    named = {func.__name__: sorted(names(func) & tables) for func in machine}
    assert named == {func.__name__: [] for func in machine}


def test_blocks_run_on_both_sides_of_a_sign_change_of_b(monkeypatch):
    """With |B| near 10^60 from the first digit, blocks run before B
    changes sign and after.  Near the change |B|*sqrt(2) falls below the
    block threshold, and the per-digit machine takes those digits."""
    blocks = _count_block_steps(monkeypatch)
    monkeypatch.setattr(jumpdigits, "_BLOCK_DIGITS", 5)
    norm = normalize(FloorLogInstance(ExactReal.parse("sqrt(2)"),
                                      ExactReal.parse(_LATE_SIGN_CHANGE), 2))
    stream = r_stream(norm, 400)
    assert stream == list(islice(r_digits_per_digit(norm), 400))
    assert 350 <= 5 * len(blocks) < 400


@pytest.mark.parametrize("guard", [1, 2, 3, 4])
def test_narrow_block_guards_fall_back_to_the_per_digit_machine(monkeypatch, guard):
    """A guard of G bits flags a digit about once in 2^G, so blocks are
    abandoned often and redone one exact step per digit; the filter's
    error bound holds at every guard, so every digit stays exact."""
    outcomes = []
    real = jumpdigits._block_digits

    def counted(*args):
        digits = real(*args)
        outcomes.append(digits is None)
        return digits

    monkeypatch.setattr(jumpdigits, "_block_digits", counted)
    monkeypatch.setattr(jumpdigits, "_BLOCK_GUARD_BITS", guard)
    k_max = 300
    for length in (3, 64):
        monkeypatch.setattr(jumpdigits, "_BLOCK_DIGITS", length)
        for alpha, beta in _SPIGOT_SLOPES:
            for base in (2, 3, 10, 4096):
                norm = normalize(FloorLogInstance(ExactReal.parse(alpha),
                                                  ExactReal.parse(beta), base))
                stream = r_stream(norm, k_max)
                assert stream == list(islice(r_digits_per_digit(norm), k_max))
    fallbacks = sum(outcomes)
    assert fallbacks < len(outcomes)
    if guard == 1:
        assert fallbacks > 0


@pytest.mark.parametrize("alpha, beta, base", [
    ("3/2+1/4*sqrt(7)", "1/5*sqrt(7)", 10),
    ("3/2+5/6*sqrt(5)", "5/8-1/6*sqrt(5)", 5),
])
def test_a_block_step_may_end_with_a_unit_step(monkeypatch, alpha, beta, base):
    """The division estimate of _block_step may fall one short of the
    root, as r_digits' docstring allows, and its unit step then makes s
    and R exact.  With one digit per block and one guard bit these inputs
    reach it within their first blocks."""
    norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
    d = norm.alpha.radicand
    short = []
    real = jumpdigits._block_step

    def checked(block, a, rad, s, rem):
        out = real(block, a, rad, s, rem)
        _, rad_out, s_out, rem_out, _ = out
        root = floor_quadratic(0, abs(rad_out), d, 1)
        assert (s_out, rem_out) == (root, rad_out * rad_out * d - root * root)
        # the step's estimate, before any unit step
        lift_u, u, e = block.spigot[rad > 0]
        rem0 = block.square * rem + block.lift * rad - lift_u * s + e
        s0 = block.power * s + u
        estimate = s0 + rem0 // (2 * s0 + block.power + 1)
        assert s_out - estimate in (0, 1)
        short.append(s_out - estimate)
        return out

    monkeypatch.setattr(jumpdigits, "_block_step", checked)
    monkeypatch.setattr(jumpdigits, "_BLOCK_DIGITS", 1)
    monkeypatch.setattr(jumpdigits, "_BLOCK_GUARD_BITS", 1)
    stream = r_stream(norm, 40)
    assert stream == list(islice(r_digits_per_digit(norm), 40))
    assert sum(short) >= 1


def test_a_block_value_that_disagrees_with_its_digits_raises(monkeypatch):
    def corrupted(*args):
        *state, value = real(*args)
        return *state, value + 1

    real = jumpdigits._block_step
    monkeypatch.setattr(jumpdigits, "_block_step", corrupted)
    norm = normalize(FloorLogInstance(ExactReal.parse("sqrt(2)"), ExactReal(0), 2))
    assert r_stream(norm, 130) == list(islice(r_digits_per_digit(norm), 130))
    with pytest.raises(sequences.ConsistencyError, match="block"):
        r_stream(norm, 300)
