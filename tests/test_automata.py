"""Automata machinery: construction, minimization, equivalence, kernels."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlog import automata
from floorlog.automata import (
    Dfa,
    equivalent,
    equivalent_to_length,
    from_patterns,
    kernel_explore,
    trie_dfa,
)
from floorlog.exact import ExactReal
from floorlog.jumpdigits import InstanceTables
from floorlog.language import decide_regularity
from floorlog.sequences import FloorLogInstance, normalize
from oracles import dense_v_indicator, from_patterns_ungrouped


def all_words(base, max_len):
    def rec(prefix, budget):
        yield prefix
        if budget:
            for d in range(base):
                yield from rec(prefix + (d,), budget - 1)

    yield from rec((), max_len)


def pattern_dfa_10star():
    return from_patterns([("1", "0", "")], base=2)


def test_single_pattern_10star():
    m = pattern_dfa_10star()
    for w in ("1", "10", "100", "10000"):
        assert m.accepts(w)
    for w in ("", "0", "11", "101", "010"):
        assert not m.accepts(w)


def test_alternating_pair_of_patterns():
    m = from_patterns([("1", "01", ""), ("10", "10", "")], base=2)
    assert m.num_states == 4  # three live states and the sink
    got = sorted(
        (list(w) for w in all_words(2, 6) if m.accepts(w)), key=lambda w: (len(w), w)
    )
    assert got == [
        [1],
        [1, 0],
        [1, 0, 1],
        [1, 0, 1, 0],
        [1, 0, 1, 0, 1],
        [1, 0, 1, 0, 1, 0],
    ]


def test_exceptions_only():
    m = from_patterns([], exceptions=["1"], base=2)
    assert m.num_states == 3
    assert m.accepts("1")
    for w in ("", "0", "10", "11"):
        assert not m.accepts(w)


def test_empty_v0_loop_stays_off_the_exceptions():
    # with V0 empty the hub must still be a state of its own: a loop on the
    # start state would also run in front of the exception, accepting 00
    m = from_patterns([("", "00", "0")], exceptions=[""], base=2)
    assert [w for w in ("", "0", "00", "000", "0000", "00000") if m.accepts(w)] == [
        "", "0", "000", "00000"
    ]


def test_pattern_digit_outside_alphabet():
    with pytest.raises(ValueError):
        from_patterns([("2", "01", "")], base=2)


def test_empty_language():
    m = from_patterns([], base=2)
    assert not any(m.accepts(w) for w in all_words(2, 5))


@st.composite
def pattern_sets(draw):
    """Patterns drawn from small V0 and V1 pools, so groups share them often.

    Each V2 is free, a prefix of its V1 (the empty word among them) or V1
    extended; a pattern may repeat, and some exceptions are prefixes of
    pattern words.
    """
    base = draw(st.integers(min_value=2, max_value=10))
    word = st.lists(st.integers(min_value=0, max_value=base - 1), max_size=4).map(tuple)
    v0_pool = draw(st.lists(word, min_size=1, max_size=3))
    v1_pool = draw(st.lists(word, min_size=1, max_size=3))
    patterns = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        v0 = draw(st.sampled_from(v0_pool))
        v1 = draw(st.sampled_from(v1_pool))
        v2 = draw(st.one_of(
            word,
            st.integers(min_value=0, max_value=len(v1)).map(lambda i: v1[:i]),
            word.map(lambda w: v1 + w),
        ))
        patterns.append((v0, v1, v2))
    if patterns:
        patterns += draw(st.lists(st.sampled_from(patterns), max_size=2))
    exceptions = draw(st.lists(word, max_size=3))
    for v0, v1, v2 in draw(st.lists(st.sampled_from(patterns), max_size=3)) if patterns else ():
        full = v0 + v1 * draw(st.integers(min_value=0, max_value=2)) + v2
        exceptions.append(full[: draw(st.integers(min_value=0, max_value=len(full)))])
    return base, patterns, exceptions


@settings(max_examples=200, deadline=None)
@given(case=pattern_sets())
# one V0, two loops: a hub that is the V0 trie node carries both loops
@example(case=(2, [((1,), (0,), ()), ((1,), (1,), ())], []))
# an exception passing through the V0 trie node must not take the loop
@example(case=(2, [((1,), (1,), ())], [(1, 0)]))
# one group whose V2s are a prefix of V1 and an extension of it
@example(case=(3, [((2,), (0, 1), (0,)), ((2,), (0, 1), (0, 1, 2))], [(2, 0)]))
def test_grouped_machine_matches_ungrouped_oracle(case):
    base, patterns, exceptions = case
    got = from_patterns(patterns, exceptions, base)
    assert got.to_table() == from_patterns_ungrouped(patterns, exceptions, base).to_table()


def test_shared_loops_keep_the_nfa_linear(monkeypatch):
    # 1009/1000 base 10: 252 certified patterns with |V1| = 252, all with
    # one V0 and one V1; one copy per pattern made 95,384 NFA states
    sizes = []
    determinize = automata._Nfa.determinize

    def counted(self, start):
        sizes.append(len(self.delta))
        return determinize(self, start)

    monkeypatch.setattr(automata._Nfa, "determinize", counted)
    norm = normalize(FloorLogInstance(ExactReal.parse("1009/1000"), ExactReal(0), 10))
    verdict = decide_regularity(InstanceTables(norm, 1000), 10)
    assert verdict.kind == "Regular" and len(verdict.patterns) == 252
    assert verdict.dfa.num_states == 254
    assert len(sizes) == 1 and sizes[0] < 1000


def test_minimize_idempotent_and_smaller():
    # bloated machine for "ends with 1": duplicate states galore
    rows = ((1, 2), (3, 2), (1, 4), (3, 2), (1, 4))
    m = Dfa(2, rows, 0, frozenset({2, 4}))
    small = m.minimize()
    assert small.num_states == 2
    assert small.minimize() == small
    ok, _ = equivalent(m, small)
    assert ok


def test_equivalent_shortest_witness_is_empty_word():
    plain = pattern_dfa_10star()
    with_eps = from_patterns([("1", "0", "")], exceptions=[""], base=2)
    ok, witness = equivalent(plain, with_eps)
    assert not ok and witness == ()


def test_equivalent_alphabet_mismatch():
    a = pattern_dfa_10star()
    b = from_patterns([("1", "0", "")], base=3)
    with pytest.raises(ValueError):
        equivalent(a, b)


def test_equivalence_up_to_length_cap():
    inf = pattern_dfa_10star()
    finite = trie_dfa(["1", "10", "100"], base=2)
    ok, _ = equivalent_to_length(inf, finite, 3)
    assert ok
    ok, witness = equivalent_to_length(inf, finite, 4)
    assert not ok and list(witness) == [1, 0, 0, 0]
    ok, witness = equivalent(inf, finite)
    assert not ok and len(witness) == 4


def test_trie_matches_pattern_machine():
    m = from_patterns([("1", "01", "")], base=2)
    words = [w for w in all_words(2, 12) if m.accepts(w)]
    oracle = trie_dfa(words, base=2)
    ok, _ = equivalent_to_length(m, oracle, 12)
    assert ok


def test_canonical_is_stable():
    m = from_patterns([("1", "01", ""), ("10", "10", "")], base=2)
    assert m.canonical() == m.canonical().canonical()


def test_table_roundtrip():
    m = from_patterns([("1", "01", "")], base=2)
    table = m.to_table()
    again = Dfa(
        table["base"],
        tuple(tuple(row) for row in table["transitions"]),
        table["start"],
        frozenset(table["accepting"]),
    )
    assert again == m


def test_dot_smoke():
    dot = pattern_dfa_10star().to_dot()
    assert dot.startswith("digraph") and "doublecircle" in dot


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(2, ((0,),), 0, frozenset())  # short row
    with pytest.raises(ValueError):
        Dfa(2, ((0, 5),), 0, frozenset())  # target out of range
    with pytest.raises(ValueError):
        Dfa(2, ((0, 0),), 3, frozenset())  # bad start
    with pytest.raises(ValueError):
        Dfa(2, ((0, 0),), 0, frozenset({7}))  # bad accepting
    with pytest.raises(ValueError):
        pattern_dfa_10star().walk("13")  # digit outside alphabet


def test_kernel_constant_sequence():
    rep = kernel_explore(lambda n: 0, 2, 6, 32)
    assert rep.distinct == 1 and rep.closure
    assert rep.distinct_by_depth == (1,) * 7


def test_kernel_power_jump_sequence_closes():
    n = normalize(FloorLogInstance(ExactReal(1), ExactReal(0), 2))
    bm = dense_v_indicator(n, 1 << 17)
    rep = kernel_explore(lambda i: bm[i], 2, 8, 256)
    assert rep.closure
    assert rep.distinct == 4
    assert rep.distinct_by_depth[-1] == rep.distinct_by_depth[-1 - 1]
    deeper = kernel_explore(lambda i: bm[i], 2, 9, 256)
    assert deeper.closure and deeper.distinct == rep.distinct


def test_kernel_sqrt2_jump_sequence_saturates_the_window():
    # the true kernel here is infinite, but window fingerprints cannot see
    # that: every visible one sits at a depth-independent position, so the
    # walk stalls once residue collisions run out and then reports closure.
    # That is the under-approximation doing exactly what its warning says.
    n = normalize(FloorLogInstance(ExactReal.sqrt(2), ExactReal(0), 2))
    bm = dense_v_indicator(n, 1 << 17)
    rep = kernel_explore(lambda i: bm[i], 2, 8, 256)
    assert rep.distinct_by_depth == (1, 3, 7, 13, 16, 19, 19, 19, 19)
    assert rep.closure
    counts = rep.distinct_by_depth
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    wider = kernel_explore(lambda i: bm[i], 2, 8, 1024)
    assert wider.distinct_by_depth[-1] >= rep.distinct_by_depth[-1]


def test_kernel_bad_arguments():
    with pytest.raises(ValueError):
        kernel_explore(lambda n: 0, 2, -1, 16)
    with pytest.raises(ValueError):
        kernel_explore(lambda n: 0, 2, 3, 0)


def random_dfa(draw, base):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = tuple(
        tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(base))
        for _ in range(n)
    )
    acc = frozenset(
        q for q in range(n) if draw(st.booleans())
    )
    return Dfa(base, rows, 0, acc)


@st.composite
def dfas(draw):
    return random_dfa(draw, draw(st.sampled_from([2, 3])))


@settings(max_examples=60, deadline=None)
@given(m=dfas())
def test_minimize_preserves_language(m):
    small = m.minimize()
    assert small.num_states <= m.num_states
    assert small.minimize() == small
    for w in all_words(m.base, 7):
        assert m.accepts(w) == small.accepts(w)


@settings(max_examples=60, deadline=None)
@given(a=dfas(), b=dfas())
def test_witness_is_shortest(a, b):
    if a.base != b.base:
        return
    ok, witness = equivalent(a, b)
    if ok:
        for w in all_words(a.base, 6):
            assert a.accepts(w) == b.accepts(w)
    else:
        assert a.accepts(witness) != b.accepts(witness)
        for w in all_words(a.base, min(len(witness), 6)):
            if len(w) < len(witness):
                assert a.accepts(w) == b.accepts(w)


@settings(max_examples=50, deadline=None)
@given(
    words=st.lists(
        st.lists(st.integers(min_value=0, max_value=2), max_size=5).map(tuple),
        max_size=8,
    ),
    base=st.sampled_from([3]),
)
def test_trie_accepts_exactly(words, base):
    m = trie_dfa(words, base)
    wanted = set(words)
    got = {w for w in all_words(base, 5) if m.accepts(w)}
    assert got == wanted
    for w in all_words(base, 4):
        assert m.accepts(w) == (w in wanted)
