"""Finite automata over digit alphabets.

Deterministic machines are immutable tables: state q reading digit d moves
to ``transitions[q][d]``, with every row total (a rejecting sink makes up
the difference when a language is finite).  Construction from word
patterns goes through an epsilon-NFA whose size is linear in the
distinct words: patterns that share V0 and V1 share one hub and one V1
loop, and all words are read through tries.  The subset construction
takes one pass over each subset's members with precomputed epsilon
closures, and partition-refinement minimization plus a breadth-first
renumbering follow, so equal languages produce identical tables.

The kernel explorer walks arithmetic subsequences n -> s(base^i * n + j),
identifying two of them when their first ``prefix_len`` terms agree.
That fingerprinting can only merge too much, never too little, so a
"closed" answer is corroborating evidence while a growth curve is an
honest refusal to stabilize.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .numeration import as_digits, word_str
from .sequences import ConsistencyError

Word = tuple[int, ...]


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton on the digit alphabet 0..base-1."""

    base: int
    transitions: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]

    def __post_init__(self):
        n = len(self.transitions)
        if n == 0:
            raise ValueError("a machine needs at least one state")
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")
        for q, row in enumerate(self.transitions):
            if len(row) != self.base:
                raise ValueError(f"state {q} has {len(row)} edges, need {self.base}")
            for d, t in enumerate(row):
                if not 0 <= t < n:
                    raise ValueError(f"edge {q} --{d}--> {t} leaves the state set")
        for q in self.accepting:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range")

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def walk(self, word) -> int:
        q = self.start
        for d in as_digits(word):
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} outside alphabet of base {self.base}")
            q = self.transitions[q][d]
        return q

    def accepts(self, word) -> bool:
        return self.walk(word) in self.accepting

    def canonical(self) -> "Dfa":
        """Reachable part only, states renumbered in BFS discovery order."""
        order = {self.start: 0}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            for d in range(self.base):
                t = self.transitions[q][d]
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        rows = [[0] * self.base for _ in order]
        for q, idx in order.items():
            for d in range(self.base):
                rows[idx][d] = order[self.transitions[q][d]]
        acc = frozenset(order[q] for q in self.accepting if q in order)
        return Dfa(self.base, tuple(tuple(r) for r in rows), 0, acc)

    def minimize(self) -> "Dfa":
        # unreachable states refine with the rest; canonical() drops their classes
        n = self.num_states
        cls = [1 if q in self.accepting else 0 for q in range(n)]
        while True:
            labels: dict[tuple, int] = {}
            nxt = [0] * n
            for q in range(n):
                key = (cls[q],) + tuple(cls[self.transitions[q][d]] for d in range(self.base))
                nxt[q] = labels.setdefault(key, len(labels))
            if nxt == cls:
                break
            cls = nxt
        count = max(cls) + 1
        rows = [[0] * self.base for _ in range(count)]
        acc = set()
        for q in range(n):
            c = cls[q]
            for d in range(self.base):
                rows[c][d] = cls[self.transitions[q][d]]
            if q in self.accepting:
                acc.add(c)
        out = Dfa(self.base, tuple(tuple(r) for r in rows), cls[self.start], frozenset(acc))
        return out.canonical()

    def to_dot(self) -> str:
        lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
        for q in range(self.num_states):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
        lines.append(f"  hidden -> q{self.start};")
        grouped: dict[tuple[int, int], list[int]] = {}
        for q in range(self.num_states):
            for d in range(self.base):
                grouped.setdefault((q, self.transitions[q][d]), []).append(d)
        for (q, t), digits in sorted(grouped.items()):
            label = ",".join(str(d) for d in digits)
            lines.append(f"  q{q} -> q{t} [label=\"{label}\"];")
        lines.append("}")
        return "\n".join(lines)

    def to_table(self) -> dict:
        return {
            "base": self.base,
            "start": self.start,
            "accepting": sorted(self.accepting),
            "transitions": [list(row) for row in self.transitions],
        }


def trie_dfa(words: Iterable, base: int) -> Dfa:
    """Exact-finite-language machine: one trie node per proper prefix.

    Deliberately naive so it can serve as an independent oracle against
    the pattern-built machines.
    """
    toc: dict[Word, int] = {(): 0}
    accepted: set[int] = set()
    for raw in words:
        w = as_digits(raw)
        for d in w:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} outside alphabet of base {base}")
        for i in range(1, len(w) + 1):
            toc.setdefault(w[:i], len(toc))
        accepted.add(toc[w])
    sink = len(toc)
    rows = [[sink] * base for _ in range(sink + 1)]
    for prefix, q in toc.items():
        for d in range(base):
            child = prefix + (d,)
            if child in toc:
                rows[q][d] = toc[child]
    return Dfa(base, tuple(tuple(r) for r in rows), 0, frozenset(accepted)).canonical()


class _Nfa:
    """Throwaway epsilon-NFA used only as scaffolding for from_patterns.

    Every state's digit edges are deterministic (the words are read
    through tries, one child per digit); epsilon edges supply all the
    nondeterminism.  They only ever enter a hub, and a hub has none of
    its own, so a state's epsilon closure is the state and its targets.
    """

    def __init__(self, base: int):
        self.base = base
        self.eps: list[list[int]] = []
        self.delta: list[dict[int, int]] = []
        self.accepting: set[int] = set()

    def fresh(self) -> int:
        self.eps.append([])
        self.delta.append({})
        return len(self.eps) - 1

    def word_path(self, q: int, word: Word) -> int:
        """The trie node that word reaches from q, made as it goes."""
        for d in word:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} outside alphabet of base {self.base}")
            t = self.delta[q].get(d)
            if t is None:
                t = self.delta[q][d] = self.fresh()
            q = t
        return q

    def determinize(self, start: int) -> Dfa:
        closure = [frozenset((q, *hubs)) for q, hubs in enumerate(self.eps)]
        start_set = closure[start]
        index = {start_set: 0}
        order = [start_set]
        rows: list[list[int]] = []
        for cur in order:  # grows as subsets are discovered: breadth first
            moved: dict[int, set[int]] = {}
            for q in cur:
                for d, t in self.delta[q].items():
                    moved.setdefault(d, set()).update(closure[t])
            row = []
            for d in range(self.base):
                nxt = frozenset(moved.get(d, ()))
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                row.append(index[nxt])
            rows.append(row)
        acc = frozenset(i for i, s in enumerate(order) if not self.accepting.isdisjoint(s))
        return Dfa(self.base, tuple(tuple(r) for r in rows), 0, acc)


def from_patterns(patterns: Iterable, exceptions: Iterable = (), base: int = 2) -> Dfa:
    """Minimal DFA for (union of V0 V1* V2 over the patterns) + exceptions.

    Each pattern is a triple of digit words; strings like "01" are read
    digit by digit.  Patterns with the same V0 and V1 share one hub and
    one V1 loop, since the union of V0 V1* V2 over them is V0 V1* (union
    of their V2): the NFA grows with the total length of the distinct
    words, not with the number of patterns times |V1|.  The exceptions
    and every V0 are read through one trie rooted at the start state,
    and each hub's loop and V2 tails through a trie rooted at the hub.
    A hub is a fresh state entered by an epsilon edge from the end of
    its V0, never a trie node itself, so no other word passing through
    that node can take the loop.  The result is checked against the raw
    subset-built machine before being returned.
    """
    nfa = _Nfa(base)
    start = nfa.fresh()
    for raw in exceptions:
        nfa.accepting.add(nfa.word_path(start, as_digits(raw)))
    hubs: dict[tuple[Word, Word], int] = {}
    for pat in patterns:
        v0, v1, v2 = (as_digits(part) for part in pat)
        hub = hubs.get((v0, v1))
        if hub is None:
            hub = hubs[v0, v1] = nfa.fresh()
            nfa.eps[nfa.word_path(start, v0)].append(hub)
            if v1:
                nfa.eps[nfa.word_path(hub, v1)].append(hub)
        nfa.accepting.add(nfa.word_path(hub, v2))
    raw_dfa = nfa.determinize(start)
    out = raw_dfa.minimize()
    ok, witness = equivalent(out, raw_dfa)
    if not ok:
        raise ConsistencyError(
            f"minimization changed the language, witness {word_str(witness)!r}"
        )
    return out


def equivalent(a: Dfa, b: Dfa) -> tuple[bool, Word | None]:
    """Language equality, with a shortest distinguishing word on failure."""
    return _product_search(a, b, None)


def equivalent_to_length(a: Dfa, b: Dfa, max_len: int) -> tuple[bool, Word | None]:
    """Agreement on every word of length <= max_len only."""
    return _product_search(a, b, max_len)


def _product_search(a: Dfa, b: Dfa, max_len: int | None) -> tuple[bool, Word | None]:
    if a.base != b.base:
        raise ValueError(f"alphabet mismatch: base {a.base} vs {b.base}")
    seen = {(a.start, b.start)}
    queue: deque[tuple[int, int, Word]] = deque([(a.start, b.start, ())])
    while queue:
        qa, qb, word = queue.popleft()
        if (qa in a.accepting) != (qb in b.accepting):
            return False, word
        if max_len is not None and len(word) >= max_len:
            continue
        for d in range(a.base):
            ta, tb = a.transitions[qa][d], b.transitions[qb][d]
            if (ta, tb) not in seen:
                seen.add((ta, tb))
                queue.append((ta, tb, word + (d,)))
    return True, None


@dataclass(frozen=True)
class KernelReport:
    """What the subsequence walk saw, depth by depth.

    distinct_by_depth[i] counts the fingerprint classes discovered among
    all nodes of depth <= i, so it never decreases.  closure means the
    walk drained: every child of every examined node matched a class
    already on file.  Because classes are prefix fingerprints this is
    evidence of kernel finiteness, not a proof of it.
    """

    base: int
    depth: int
    prefix_len: int
    distinct_by_depth: tuple[int, ...]
    closure: bool

    @property
    def distinct(self) -> int:
        return self.distinct_by_depth[-1]


def kernel_explore(
    seq_source: Callable[[int], int], base: int, depth: int, prefix_len: int
) -> KernelReport:
    """Breadth-first walk of n -> seq(base^i n + j), fingerprint-deduped.

    seq_source must cover indices up to base**depth * (prefix_len - 1)
    + base**depth - 1; when the frontier is still alive at the cap, the
    closure probe reads one level deeper.  Sources raise if asked past
    their range, and that error propagates.
    """
    if depth < 0 or prefix_len < 1:
        raise ValueError("need depth >= 0 and at least one fingerprint term")

    def fingerprint(i: int, j: int) -> tuple[int, ...]:
        step = base**i
        return tuple(map(seq_source, range(j, j + step * prefix_len, step)))

    seen = {fingerprint(0, 0)}
    counts = [1]
    frontier = [(0, 0)]
    for level in range(1, depth + 1):
        nxt = []
        for i, j in frontier:
            step = base**i
            for t in range(base):
                child = (i + 1, t * step + j)
                fp = fingerprint(*child)
                if fp not in seen:
                    seen.add(fp)
                    nxt.append(child)
        counts.append(len(seen))
        frontier = nxt
        if not frontier:
            counts.extend([len(seen)] * (depth - level))
            break
    closed = all(
        fingerprint(i + 1, t * base**i + j) in seen
        for i, j in frontier
        for t in range(base)
    )
    return KernelReport(
        base=base,
        depth=depth,
        prefix_len=prefix_len,
        distinct_by_depth=tuple(counts),
        closure=closed,
    )
