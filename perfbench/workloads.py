"""Seeded workloads of the floorlog benchmark: inputs, operations, checks.

Each workload turns a seed into a list of operations grouped in passes.
Every pass has the same composition (the same number of inputs from each
stratum, in the same interleaving), and the seed picks the inputs inside
each stratum.  Cutting a run anywhere therefore leaves a near-constant
mix of cheap and expensive operations, which keeps throughput and
latency comparable across seeds.

An operation calls the library's public functions on generated inputs
only (slope and offset texts, bases, depths, digit blocks).  Its check
runs afterwards, outside the timed region, and compares the output with
an independent route: the rationality dichotomy, r_direct spot values,
certificate replays, and trie machines built from the benchmark's own
renderings of the jump table.  A check raises CheckFailure.

Input budgets (why the generators stay where they are):
- surd radicands are small squarefree integers, because
  squarefree_decompose factors by trial division and a 20-digit prime
  radicand would take hours;
- surd depths K are sized by operand bits (K * log2(base) stays between
  about 1500 and 3700 bits), so one cross-check takes 0.05-0.7 s;
- rational primes stay below 4000 and the orbit of the base mod p stays
  within 800, and rational-orbit runs the pipeline at window 200, so
  one analysis takes 0.1-1 s instead of the 8-14 s that the ROADMAP's
  1009/1000 and 10007/10000 probes take at the default window 1000.
All of this is sized for a shared 2-CPU box.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PASSES = 12  # generated passes; a run that outlasts them starts over


class CheckFailure(Exception):
    """An operation's output disagreed with an independent route."""


@dataclass(frozen=True)
class Op:
    """One generated input: the pass it belongs to, its stratum, its fields."""

    pass_index: int
    stratum: str
    args: dict


@dataclass(frozen=True)
class Outcome:
    """What a passed check reports back: the decision and digits verified."""

    decision: str
    digits: int = 0


DECIDED = ("Regular", "NonRegular", "AperiodicByTheorem")


def interleave(strata: list[list[dict]], rng: random.Random, tags: list[str],
               pass_index: int) -> list[Op]:
    """Shuffle inside each stratum, then merge the strata proportionally.

    Every prefix of the merged pass holds each stratum in close to its
    share of the whole pass.
    """
    for items in strata:
        rng.shuffle(items)
    total = sum(len(items) for items in strata)
    taken = [0] * len(strata)
    out = []
    for _ in range(total):
        j = min(
            (j for j in range(len(strata)) if taken[j] < len(strata[j])),
            key=lambda j: ((taken[j] + 1) / len(strata[j]), j),
        )
        out.append(Op(pass_index, tags[j], strata[j][taken[j]]))
        taken[j] += 1
    return out


# ---------------------------------------------------------------------------
# independent routes used by the checks


def render(n: int, base: int) -> tuple[int, ...]:
    """Canonical base-b digits of n >= 0, written here rather than imported."""
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(reversed(digits))


def predict(cert: dict, k: int) -> int:
    """Replay a report's mod-cycle certificate at 1-based index k."""
    if k <= cert["preperiod"]:
        return cert["head"][k - 1]
    return cert["cycle"][(k - cert["preperiod"] - 1) % cert["period"]]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_report(fl, report: dict, rational: bool, spot_ks: list[int]) -> Outcome:
    """Audit one run_analyze report against independent routes."""
    verdicts = report["verdicts"]
    scenario = report["scenario"]
    base = scenario["base"]
    _expect(
        verdicts["sequence_regularity"]["b_regular"] is rational,
        f"b_regular={verdicts['sequence_regularity']['b_regular']} for a "
        f"{'rational' if rational else 'irrational'} slope",
    )
    side = "Periodic" if rational else "AperiodicByTheorem"
    for link in ("r_periodicity", "d_periodicity"):
        v = verdicts[link]
        _expect(v["kind"] == side and v["certified"],
                f"{link} is {v['kind']} (certified={v['certified']}), expected {side}")
    lang = verdicts["language_regularity"]
    wrong = "NonRegular" if rational else "Regular"
    _expect(lang["kind"] in ("Regular", "NonRegular", "Inconclusive"),
            f"unknown language verdict {lang['kind']}")
    _expect(lang["kind"] != wrong, f"language {lang['kind']} on the wrong side")

    norm = fl.sequences.normalize(fl.sequences.FloorLogInstance(
        fl.exact.ExactReal.parse(scenario["alpha"]),
        fl.exact.ExactReal.parse(scenario["beta"]),
        base,
    ))
    r_head = report["evidence"]["r_head"]
    r_cert = verdicts["r_periodicity"].get("mod_cycle")
    for k in spot_ks:
        direct = fl.jumpdigits.r_direct(norm, k)
        if k <= len(r_head):
            _expect(direct == r_head[k - 1], f"r_direct({k})={direct}, r_head has {r_head[k - 1]}")
        if r_cert is not None:
            _expect(direct == predict(r_cert, k),
                    f"r_direct({k})={direct}, certificate predicts {predict(r_cert, k)}")
    d_cert = verdicts["d_periodicity"].get("mod_cycle")
    if d_cert is not None:
        f = dict(report["evidence"]["level_counts"])
        for k in range(1, max(f)):
            d_k = f[k + 1] - base * f[k]
            _expect(d_k == predict(d_cert, k),
                    f"d_{k}={d_k} from level counts, certificate predicts {predict(d_cert, k)}")

    if lang["kind"] == "Regular":
        parse_word = fl.numeration.parse_word
        patterns = [tuple(parse_word(p[part]) for part in ("v0", "v1", "v2"))
                    for p in lang["patterns"]]
        exceptions = [parse_word(w) for w in lang["exceptions"]]
        dfa = fl.automata.from_patterns(patterns, exceptions, base)
        _expect(dfa.num_states == lang["dfa_states"],
                f"patterns rebuild {dfa.num_states} states, report says {lang['dfa_states']}")
        # the language is the set of renderings of c_1, c_2, ...; here they
        # come from the jump table, not from the r_stream digits the
        # language stage folded
        max_len = 40 if base < 10 else 24
        jumps = fl.sequences.jump_positions(norm, max_len + 3)
        words = [w for w in (render(c, base) for c in jumps.c) if len(w) <= max_len]
        trie = fl.automata.trie_dfa(words, base)
        agree, witness = fl.automata.equivalent_to_length(dfa, trie, max_len)
        _expect(agree, f"DFA and jump-table trie disagree on {witness}")
    return Outcome(lang["kind"])


# ---------------------------------------------------------------------------
# workloads


class Battery:
    """The 20 pinned instances through run_analyze at CLI defaults."""

    name = "battery"

    def generate(self, seed: int, fl) -> list[Op]:
        rng = random.Random(seed)
        rows = [(i.alpha_text, i.beta_text, i.base) for i in fl.battery.BATTERY]
        ops = []
        for pass_index in range(PASSES):
            strata = [
                [{"alpha": a, "beta": b, "base": base, "rational": rational,
                  "spot_ks": sorted(rng.sample(range(1, 65), 4) + [rng.randrange(65, 300)])}
                 for a, b, base in rows if ("sqrt" not in a) == rational]
                for rational in (True, False)
            ]
            ops += interleave(strata, rng, ["rational", "surd"], pass_index)
        return ops

    def run(self, op: Op, fl):
        a = op.args
        return fl.cli.run_analyze({"alpha": a["alpha"], "beta": a["beta"], "base": a["base"]})

    def check(self, op: Op, out, fl) -> Outcome:
        return check_report(fl, out, op.args["rational"], op.args["spot_ks"])


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


def _order_within(base: int, p: int, cap: int) -> int | None:
    """Multiplicative order of base mod p, or None when it exceeds cap."""
    r, k = base % p, 1
    while r != 1:
        if k >= cap:
            return None
        r, k = r * base % p, k + 1
    return k


class RationalOrbit:
    """Prime-numerator slopes p/q whose orbit of base mod p is short or long.

    At window 200 an orbit of period q certifies a pattern for every
    residue only when about 3q fits in the window, so orders up to 46
    come out Regular, and orders from 75 up come out Inconclusive after
    a partial pattern search (75-82) or right away with big level counts
    (from 290).  The two groups stress language/automata and
    levelcounts/sequences respectively.
    """

    name = "rational-orbit"
    window = 200
    prime_limit = 4000
    # (stratum, base, lowest order, highest order) per slot of one pass;
    # the cost of an analysis follows the order closely, so narrow bands
    # keep every pass equally expensive whatever primes the seed picks.
    # The heaviest band comes twice so that a run holds about 20 of its
    # operations and the latency tail (10 samples beyond) lands inside it.
    slots = (
        ("short", 10, 5, 8),
        ("short", 10, 26, 33),
        ("short", 10, 41, 46),
        ("short", 2, 20, 25),
        ("short", 3, 27, 31),
        ("long", 10, 75, 82),
        ("long", 10, 700, 800),
        ("long", 10, 700, 800),
        ("long", 2, 290, 380),
        ("long", 3, 580, 720),
    )
    offsets = (Fraction(0), Fraction(1, 3), Fraction(1, 2))

    def _pick_prime(self, rng, primes, base, lo, hi) -> tuple[int, int]:
        pool = [p for p in primes if p > lo and base % p]
        while True:
            p = rng.choice(pool)
            order = _order_within(base, p, hi)
            if order is not None and order >= lo:
                return p, order

    def generate(self, seed: int, fl=None) -> list[Op]:
        rng = random.Random(seed)
        primes = _primes(self.prime_limit)
        ops = []
        for pass_index in range(PASSES):
            strata = {"short": [], "long": []}
            for stratum, base, lo, hi in self.slots:
                p, order = self._pick_prime(rng, primes, base, lo, hi)
                # p/base < q < p keeps 1 < alpha < base, so p stays the numerator
                q = rng.randrange(p // base + 1, p)
                strata[stratum].append({
                    "alpha": f"{p}/{q}",
                    "beta": str(rng.choice(self.offsets)),
                    "base": base,
                    "order": order,
                    "spot_ks": sorted(rng.sample(range(1, 65), 3) + [rng.randrange(65, 400)]),
                })
            ops += interleave([strata["short"], strata["long"]], rng, ["short", "long"], pass_index)
        return ops

    def run(self, op: Op, fl):
        a = op.args
        return fl.cli.run_analyze(
            {"alpha": a["alpha"], "beta": a["beta"], "base": a["base"], "window": self.window}
        )

    def check(self, op: Op, out, fl) -> Outcome:
        return check_report(fl, out, True, op.args["spot_ks"])


class SurdDeep:
    """Quadratic-surd slopes cross-checked route against route to depth K."""

    name = "surd-deep"
    radicands = (2, 3, 5, 6, 7, 10, 11, 13)
    # depth rungs per base: K * log2(base) runs from about 1500 to 3700 bits
    rungs = {2: (1500, 2000, 2500, 3000), 3: (1000, 1350, 1700, 2050), 10: (500, 700, 900, 1100)}
    prefix = 256  # classify_range audit length
    halves = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    coefs = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2))

    @staticmethod
    def _surd_text(a: Fraction, c: Fraction, d: int) -> str:
        root = f"sqrt({d})" if c == 1 else f"{c}*sqrt({d})"
        return root if a == 0 else f"{a}+{root}"

    def generate(self, seed: int, fl=None) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for pass_index in range(PASSES):
            strata = []
            for rung in range(4):
                stratum = []
                for base in (2, 3, 10):
                    d = rng.choice(self.radicands)
                    alpha = self._surd_text(rng.choice(self.halves), rng.choice(self.coefs), d)
                    shape = rng.randrange(4)
                    r = Fraction(rng.randint(1, 5), rng.randint(2, 7))
                    beta = ("0", str(r), self._surd_text(0, r, d),
                            self._surd_text(r, Fraction(1, 3), d))[shape]
                    k = self.rungs[base][rung] + rng.randrange(50)
                    spots = [1, 2, k] + rng.sample(range(3, k), 3)
                    stratum.append({"alpha": alpha, "beta": beta, "base": base,
                                    "k": k, "spot_ks": sorted(spots)})
                strata.append(stratum)
            ops += interleave(strata, rng, ["rung0", "rung1", "rung2", "rung3"], pass_index)
        return ops

    def run(self, op: Op, fl):
        a = op.args
        parse = fl.exact.ExactReal.parse
        norm = fl.sequences.normalize(
            fl.sequences.FloorLogInstance(parse(a["alpha"]), parse(a["beta"]), a["base"])
        )
        k = a["k"]
        jd = fl.jumpdigits
        return {
            "stream": jd.r_stream(norm, k),
            "table": jd.r_from_jumps(fl.sequences.jump_positions(norm, k + 1), norm.base),
            "direct": {s: jd.r_direct(norm, s) for s in a["spot_ks"]},
            "records": jd.classify_range(norm, self.prefix),
            "verdict": jd.detect_period(norm, 1000),
        }

    def check(self, op: Op, out, fl) -> Outcome:
        k = op.args["k"]
        stream, table = out["stream"], out["table"]
        _expect(len(stream) == len(table) == k, f"route lengths {len(stream)}/{len(table)}, want {k}")
        if stream != table:
            at = next(i for i, (x, y) in enumerate(zip(stream, table)) if x != y) + 1
            raise CheckFailure(f"r_stream and jump table disagree first at k={at}")
        for s, value in out["direct"].items():
            _expect(value == stream[s - 1], f"r_direct({s})={value}, routes give {stream[s - 1]}")
        for rec in out["records"]:
            _expect(rec.r == stream[rec.k - 1], f"classify_range r_{rec.k}={rec.r}, routes give {stream[rec.k - 1]}")
        verdict = out["verdict"]
        _expect(verdict.kind == "AperiodicByTheorem" and verdict.certified,
                f"surd slope decided {verdict.kind} (certified={verdict.certified})")
        return Outcome(verdict.kind, digits=k)


class SyntheticStreams:
    """decide_regularity on periodic, Thue-Morse block and finite streams."""

    name = "synthetic-streams"
    trie_words = 80  # criterion 5's trie check: 80 words, lengths up to 60
    trie_len = 60

    @staticmethod
    def _digits(rng, base: int, lo: int, hi: int) -> list[int]:
        return [rng.randrange(2 * base - 1) for _ in range(rng.randint(lo, hi))]

    def generate(self, seed: int, fl=None) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for pass_index in range(PASSES):
            periodic = [{"kind": "periodic", "base": base,
                         "pre": self._digits(rng, base, 0, 5),
                         "per": self._digits(rng, base, 1, 6)}
                        for base in (2, 2, 3, 3, 10, 10)]
            blocks = []
            for base in rng.sample((2, 3, 10), 2):
                size = rng.randint(1, 3)
                a = self._digits(rng, base, size, size)
                b = a
                while b == a:
                    b = self._digits(rng, base, size, size)
                blocks.append({"kind": "tm-blocks", "base": base, "a": a, "b": b})
            explicit = []
            for base in rng.sample((2, 3, 10), 2):
                per = self._digits(rng, base, 1, 6)
                length = rng.randint(120, 240)
                explicit.append({"kind": "explicit", "base": base,
                                 "word": [per[i % len(per)] for i in range(length)]})
            ops += interleave([periodic, blocks, explicit], rng,
                              ["periodic", "tm-blocks", "explicit"], pass_index)
        return ops

    def run(self, op: Op, fl):
        a = op.args
        lang = fl.language
        if a["kind"] == "periodic":
            verdict = lang.decide_regularity(lang.PeriodicDigitSource(a["pre"], a["per"]), a["base"])
            out = {"verdict": verdict}
            if verdict.kind == "Regular":
                lw = lang.words(lang.PeriodicDigitSource(a["pre"], a["per"]), a["base"],
                                self.trie_words, allow_zero_start=True)
                trie = fl.automata.trie_dfa([w for w in lw.words if len(w) <= self.trie_len], a["base"])
                out["words"] = lw.words
                out["agree"] = fl.automata.equivalent_to_length(verdict.dfa, trie, self.trie_len)
            return out
        if a["kind"] == "tm-blocks":
            src = lang.ThueMorseBlockSource(a["a"], a["b"])
        else:
            src = lang.ExplicitDigitSource(a["word"])
        return {"verdict": lang.decide_regularity(src, a["base"])}

    def check(self, op: Op, out, fl) -> Outcome:
        a = op.args
        verdict = out["verdict"]
        expected = {"periodic": "Regular", "tm-blocks": "NonRegular", "explicit": "Inconclusive"}[a["kind"]]
        _expect(verdict.kind == expected, f"{a['kind']} stream decided {verdict.kind}, expected {expected}")
        if a["kind"] == "periodic":
            digits = a["pre"] + a["per"] * (self.trie_words // len(a["per"]) + 1)
            value, mine = 0, []
            for d in digits[: self.trie_words + 1]:
                value = value * a["base"] + d
                mine.append(render(value, a["base"]))
            _expect(list(out["words"]) == mine, "library words differ from the benchmark's own renderings")
            agree, witness = out["agree"]
            _expect(agree, f"Regular DFA and word trie disagree on {witness}")
        elif a["kind"] == "tm-blocks":
            _expect(verdict.certificate is not None and verdict.certificate.certified,
                    "NonRegular without a certified aperiodicity proof")
        else:
            scan = verdict.evidence.get("pattern_scan")
            _expect(scan is not None and sorted(scan) == list(range(1, 9)),
                    "Inconclusive verdict without a pattern scan over periods 1..8")
        return Outcome(verdict.kind)


WORKLOADS = {w.name: w for w in (Battery(), SurdDeep(), RationalOrbit(), SyntheticStreams())}
