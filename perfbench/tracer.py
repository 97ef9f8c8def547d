"""Spans and counters around the library's public functions, for the traced run.

Timing stays out of src/floorlog: the tracer wraps functions from here,
in every floorlog module namespace that holds them (cli.r_stream and
jumpdigits.r_stream alike), and restores the originals afterwards.  A
span records name, start, end, parent span and operation id; spans stay
in memory until the run ends.  Self time, counts and ratios are derived
from the spans; the only counter kept outside spans is the number of
ExactReal floors, which are too many to record one by one.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) of every spanned function; the span is named
# module.<last part>, so ExactReal.parse becomes exact.parse
SPANNED = (
    ("exact", "ExactReal.parse"),
    ("numeration", "to_word"),
    ("sequences", "normalize"),
    ("sequences", "jump_positions"),
    ("sequences", "v_indicator"),
    ("jumpdigits", "r_stream"),
    ("jumpdigits", "r_from_jumps"),
    ("jumpdigits", "r_direct"),
    ("jumpdigits", "classify_range"),
    ("jumpdigits", "detect_period"),
    ("levelcounts", "f_counts"),
    ("levelcounts", "align_m0"),
    ("levelcounts", "d_seq"),
    ("levelcounts", "decide_d_periodicity"),
    ("language", "words"),
    ("language", "find_pattern"),
    ("language", "certify_pattern"),
    ("language", "decide_regularity"),
    ("automata", "from_patterns"),
    ("automata", "Dfa.minimize"),
    ("automata", "equivalent"),
    ("automata", "equivalent_to_length"),
    ("automata", "trie_dfa"),
    ("automata", "kernel_explore"),
    ("cli", "run_analyze"),
)
SPAN_NAMES = tuple(f"{mod}.{path.rsplit('.', 1)[-1]}" for mod, path in SPANNED)


def _instance_key(norm) -> str:
    return f"{norm.alpha}|{norm.beta}|{norm.base}"


# attributes noted on a span from the call's result and arguments
NOTES = {
    "jumpdigits.r_stream": lambda out, norm, k_max: {"k": k_max, "inst": _instance_key(norm)},
    # exact.max_operand_bits is computed here, from the returned c_k
    "sequences.jump_positions": lambda out, norm, k_max: {
        "k": k_max, "bits": max(out.c, default=0).bit_length()},
    "language.words": lambda out, *a, **kw: {"rendered": len(out.words)},
    "language.find_pattern": lambda out, *a, **kw: {"hit": out is not None},
    "automata.minimize": lambda out, dfa: {"in": dfa.num_states, "out": out.num_states},
}

CLAUSES = ("i", "ii", "iii", "iv")

# per-layer metrics: (name, unit, better); values are per operation
# unless the unit says otherwise
PER_LAYER = (
    [(f"{name}.self_s", "s/op", "lower") for name in SPAN_NAMES]
    + [(f"{name}.calls", "1/op", "lower")
       for name in ("numeration.to_word", "language.find_pattern", "language.certify_pattern")]
    + [
        ("language.words.rendered", "words/op", "lower"),
        ("language.find_pattern.hit_ratio", "ratio", "higher"),
        ("jumpdigits.r_stream.digits", "digits/op", "lower"),
        ("jumpdigits.r_stream.useful_ratio", "ratio", "higher"),
        ("sequences.jump_positions.k_total", "digits/op", "lower"),
        ("exact.floor.calls", "1/op", "lower"),
        ("exact.max_operand_bits", "bits", "lower"),
    ]
    + [(f"language.certify_pattern.rejections.{c}", "1/op", "lower") for c in CLAUSES]
    + [
        ("automata.minimize.states_in", "states", "lower"),
        ("automata.minimize.states_out", "states", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.slowdown", "ratio", "lower"),
    ]
)


def _floorlog_modules():
    return [m for n, m in list(sys.modules.items()) if n == "floorlog" or n.startswith("floorlog.")]


class Tracer:
    """Installs span wrappers; records only inside operation()."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, attrs]
        self.floor_calls = 0
        self._stack: list[int] = []
        self._op_id = None
        self._active = False
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def install(self, fl) -> None:
        """Wrap every SPANNED function of the imported modules in fl."""
        for (mod_name, path), name in zip(SPANNED, SPAN_NAMES):
            owner = getattr(fl, mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in _floorlog_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        real = fl.exact.ExactReal.__dict__["__floor__"]

        def counted_floor(x):
            if self._active:
                self.floor_calls += 1
            return real(x)

        self._set(fl.exact.ExactReal, "__floor__", counted_floor)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer._stack[-1], tracer._op_id, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = {"raised": type(exc).__name__, "clause": getattr(exc, "clause", None)}
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if note is not None:
                span[5] = note(out, *args, **kwargs)
            return out

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Record spans for one operation under a root span named op."""
        span = ["op", perf_counter(), 0.0, -1, op_id, None]
        self._op_id = op_id
        self._stack = [len(self.spans)]
        self.spans.append(span)
        self._active = True
        try:
            yield
        finally:
            self._active = False
            span[2] = perf_counter()

    # -- derived metrics -----------------------------------------------------

    def layer_metrics(self, scale: list[float]) -> dict[str, float]:
        """Every PER_LAYER value except the trace.* ones, from the spans.

        scale[i] converts operation i's wall seconds to reference seconds.
        """
        n = len(scale)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        sums: Counter = Counter()
        rejections: Counter = Counter()
        asked: dict[tuple, list[int]] = defaultdict(list)
        max_bits = 0
        for i, (name, start, end, _, op_id, attrs) in enumerate(self.spans):
            self_s[name] += (end - start - covered[i]) * scale[op_id]
            calls[name] += 1
            if not attrs:
                continue
            if name == "jumpdigits.r_stream":
                asked[(op_id, attrs["inst"])].append(attrs["k"])
            elif name == "sequences.jump_positions":
                sums["jump_k"] += attrs["k"]
                max_bits = max(max_bits, attrs["bits"])
            elif name == "language.words":
                sums["rendered"] += attrs["rendered"]
            elif name == "language.find_pattern":
                sums["hits"] += attrs["hit"]
            elif name == "automata.minimize":
                sums["states_in"] += attrs["in"]
                sums["states_out"] += attrs["out"]
            elif name == "language.certify_pattern" and attrs.get("clause"):
                rejections[attrs["clause"]] += 1
        digits = sum(sum(ks) for ks in asked.values())
        out = {f"{name}.self_s": self_s[name] / n for name in SPAN_NAMES}
        for name in ("numeration.to_word", "language.find_pattern", "language.certify_pattern"):
            out[f"{name}.calls"] = calls[name] / n
        minimize_calls = calls["automata.minimize"]
        out.update({
            "language.words.rendered": sums["rendered"] / n,
            "language.find_pattern.hit_ratio":
                sums["hits"] / calls["language.find_pattern"] if calls["language.find_pattern"] else 0.0,
            "jumpdigits.r_stream.digits": digits / n,
            # deepest request per instance over all digits computed for it;
            # below 1 when a caller recomputes from scratch as it deepens
            "jumpdigits.r_stream.useful_ratio":
                sum(max(ks) for ks in asked.values()) / digits if digits else 0.0,
            "sequences.jump_positions.k_total": sums["jump_k"] / n,
            "exact.floor.calls": self.floor_calls / n,
            "exact.max_operand_bits": max_bits,
        })
        for clause in CLAUSES:
            out[f"language.certify_pattern.rejections.{clause}"] = rejections[clause] / n
        for key in ("states_in", "states_out"):
            out[f"automata.minimize.{key}"] = sums[key] / minimize_calls if minimize_calls else 0.0
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "span_fields": ["name", "start", "end", "parent", "op", "attrs"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
