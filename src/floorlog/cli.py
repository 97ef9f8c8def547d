"""Command-line front end emitting exact analysis results as JSON.

Subcommands: seq, rk, digits, language, decide, kernel, fk, dfa, analyze.
stdout carries data; stderr carries diagnostics.  Exit codes separate
operational trouble from mathematical outcomes: 0 means the run
completed (whatever the verdict says), 1 means the invocation was
unusable (bad flags, bad scenario file, unparseable numbers, oversized
scopes), 2 means an internal consistency check tripped, which is a bug
and should be reported.

Scenario files (--scenario file.json) provide the same fields as flags;
an explicitly passed flag wins over the file, and a JSON null counts as
unset.  `analyze --batch list.json` runs a JSON array of scenarios back
to back; each entry takes the scenario file's place, so the file fills
what an entry leaves unset and flags still win.  All JSON output is
canonical (sorted keys, two-space indent), so identical inputs produce
byte-identical reports apart from the timings block.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .automata import kernel_explore
from .exact import ExactReal, ParseError
from .jumpdigits import (
    PeriodicityVerdict,
    classify_range,
    detect_period,
    inverse_slope_digits,
    r_stream,
)
from .language import (
    MIN_WINDOW,
    DigitSource,
    ExplicitDigitSource,
    PeriodicDigitSource,
    RkDigitSource,
    ThueMorseBlockSource,
    decide_regularity,
    verify_length_claim,
    words,
)
from .levelcounts import align_m0, d_seq, decide_d_periodicity, f_counts
from .numeration import parse_word, word_str
from .sequences import (
    ConsistencyError,
    FloorLogInstance,
    NormalizedInstance,
    jump_positions,
    normalize,
    u_term,
    v_indicator,
)

SCHEMA = "floorlog-report/2"
DEFAULT_KMAX = 200
DEFAULT_WINDOW = 10**3
_KERNEL_SCOPE_CAP = 1 << 24


class UsageError(Exception):
    """Invocation-level problem: wrong flags, bad input text, huge scopes."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token after a value flag as that flag's value
        # only if it looks like a negative decimal number; widen that to
        # every negative number ExactReal.parse reads, so --beta -1/3 and
        # --beta -sqrt(2) work as --beta=-1/3 does.  No flag starts that way.
        self._negative_number_matcher = re.compile(r"^-(\d|sqrt\()")

    # argparse exits with status 2 on usage problems; this tool reserves
    # 2 for internal consistency failures, so usage errors become 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _print(payload) -> None:
    print(_canonical(payload))


# ---------------------------------------------------------------------------
# scenario fields: main merges the layers once, handlers read them here
# ---------------------------------------------------------------------------


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}")


def _merge(*layers: dict) -> dict:
    """One field dict from layers of rising priority; null means unset."""
    fields = {}
    for layer in layers:
        fields.update((k, v) for k, v in layer.items() if v is not None)
    return fields


def _flag(key: str) -> str:
    return {"start": "--from", "stop": "--to"}.get(key, "--" + key.replace("_", "-"))


def _field(fields: dict, key: str, default=None):
    value = fields.get(key)
    if value is None:
        value = default
    if value is None:
        raise UsageError(f"{_flag(key)} is required (flag or scenario file)")
    return value


def _positive_int(fields: dict, key: str, default=None) -> int:
    value = _field(fields, key, default)
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{_flag(key)} must be an integer, got {value!r}")
    if out < 1:
        raise UsageError(f"{_flag(key)} must be positive, got {out}")
    return out


def _base(fields: dict) -> int:
    base = _positive_int(fields, "base")
    if base < 2:
        raise UsageError("--base must be at least 2")
    return base


def _window(fields: dict) -> int:
    window = _positive_int(fields, "window", DEFAULT_WINDOW)
    if window < MIN_WINDOW:
        raise UsageError(f"--window must be at least {MIN_WINDOW}")
    return window


def _exact(fields: dict, key: str, default=None) -> ExactReal:
    try:
        return ExactReal.parse(str(_field(fields, key, default)))
    except ParseError as exc:
        raise UsageError(f"cannot parse {_flag(key)}: {exc}")


def _triple(fields: dict) -> tuple[ExactReal, ExactReal, int]:
    """alpha, beta (default 0) and base, unnormalized."""
    return _exact(fields, "alpha"), _exact(fields, "beta", "0"), _base(fields)


def _normalized(fields: dict) -> NormalizedInstance:
    try:
        return normalize(FloorLogInstance(*_triple(fields)))
    except ValueError as exc:
        raise UsageError(str(exc))


def _digit_word(fields: dict, key: str, default=None) -> tuple[int, ...]:
    text = str(_field(fields, key, default))
    if text == "":
        return ()
    try:
        return parse_word(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {_flag(key)}: {exc}")


def _digit_source(fields: dict) -> tuple[DigitSource, int]:
    base = _base(fields)
    kind = _field(fields, "source", "rk")
    try:
        if kind == "rk":
            return RkDigitSource(_normalized(fields)), base
        if kind == "periodic":
            if fields.get("period") is None:
                raise UsageError("--period is required for --source periodic")
            pre = _digit_word(fields, "preperiod", "")
            return PeriodicDigitSource(pre, _digit_word(fields, "period")), base
        if kind == "explicit":
            if fields.get("word") is None:
                raise UsageError("--word is required for --source explicit")
            return ExplicitDigitSource(_digit_word(fields, "word")), base
        if kind == "tm-blocks":
            if fields.get("block_a") is None or fields.get("block_b") is None:
                raise UsageError(
                    "--block-a and --block-b are required for --source tm-blocks"
                )
            return (
                ThueMorseBlockSource(
                    _digit_word(fields, "block_a"), _digit_word(fields, "block_b")
                ),
                base,
            )
    except ValueError as exc:
        raise UsageError(str(exc))
    raise UsageError(f"unknown source kind {kind!r}")


# ---------------------------------------------------------------------------
# payload shaping
# ---------------------------------------------------------------------------


def _periodicity_payload(verdict: PeriodicityVerdict | None):
    if verdict is None:
        return None
    out = {"kind": verdict.kind, "certified": verdict.certified}
    if verdict.kind == "Periodic":
        out["preperiod"] = verdict.preperiod
        out["period"] = verdict.period
    if verdict.reason:
        out["reason"] = verdict.reason
    if verdict.window is not None:
        out["window"] = verdict.window
    cert = verdict.certificate
    if cert is not None:
        out["mod_cycle"] = {
            "modulus": cert.modulus,
            "preperiod": cert.preperiod,
            "period": cert.period,
            "head": list(cert.head),
            "cycle": list(cert.cycle),
            "integrality_hits": list(cert.integrality_hits),
        }
    return out


def _length_claim_payload(report):
    return {
        "stable_from": report.stable_from,
        "anomalies": [list(item) for item in report.anomalies],
        "checked_to": report.checked_to,
        "violation": report.violation,
    }


def _verdict_payload(verdict) -> dict:
    out = {
        "kind": verdict.kind,
        "patterns": [],
        "exceptions": [],
        "dfa_states": None,
        "certificate": _periodicity_payload(verdict.certificate),
    }
    if verdict.kind == "Regular":
        out["patterns"] = [
            {
                "v0": word_str(p.v0),
                "v1": word_str(p.v1),
                "v2": word_str(p.v2),
                "period": p.period,
                "residue": p.residue,
                "anchor": p.anchor,
                "constant": p.constant,
            }
            for p in verdict.patterns
        ]
        out["exceptions"] = [word_str(w) for w in verdict.exceptions]
        out["dfa_states"] = verdict.dfa.num_states
    elif verdict.kind == "Inconclusive":
        out["window"] = verdict.window
        evidence = {}
        for key, value in verdict.evidence.items():
            if key == "length_claim":
                evidence[key] = _length_claim_payload(value)
            elif key == "pattern_scan":
                evidence[key] = {str(p): list(hits) for p, hits in value.items()}
            else:
                evidence[key] = value
        out["evidence"] = evidence
    return out


def _alignment_payload(alignment):
    return {
        "m0": alignment.m0,
        "threshold": alignment.threshold,
        "checked_to": alignment.checked_to,
        "mismatches": list(alignment.mismatches),
        "also_valid": [],  # kept until the floorlog-report/3 bump
        "ok": alignment.ok,
        "note": alignment.note,
    }


def _kernel_payload(report):
    return {
        "base": report.base,
        "depth": report.depth,
        "prefix_len": report.prefix_len,
        "distinct_by_depth": list(report.distinct_by_depth),
        "closure": report.closure,
    }


def _kernel_report(norm: NormalizedInstance, depth: int, prefix_len: int):
    # the closure probe reads one level past depth, so cover that too
    scope = norm.base ** (depth + 1) * prefix_len
    if scope > _KERNEL_SCOPE_CAP:
        raise UsageError(
            f"kernel scope base**(depth+1) * prefix_len = {scope} exceeds "
            f"the cap {_KERNEL_SCOPE_CAP}; lower --depth or --prefix-len"
        )
    bitmap = v_indicator(norm, scope - 1)
    return kernel_explore(lambda n: bitmap[n], norm.base, depth, prefix_len)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_seq(fields) -> int:
    alpha, beta, base = _triple(fields)
    start = _positive_int(fields, "start", 1)
    stop = _positive_int(fields, "stop", 10)
    if stop < start:
        raise UsageError("--to must not be below --from")
    try:
        values = [u_term(alpha, beta, base, n) for n in range(start, stop + 1)]
    except ValueError as exc:
        raise UsageError(str(exc))
    print(",".join(str(v) for v in values))
    return 0


def _cmd_rk(fields) -> int:
    norm = _normalized(fields)
    kmax = _positive_int(fields, "kmax", DEFAULT_KMAX)
    records = classify_range(norm, kmax)
    _print(
        [
            {
                "k": rec.k,
                "r": rec.r,
                "case": rec.case_tag,
                "digit": rec.digit,
                "pk": rec.pk,
                "pk1": rec.pk1,
            }
            for rec in records
        ]
    )
    return 0


def _cmd_digits(fields) -> int:
    norm = _normalized(fields)
    count = _positive_int(fields, "count", 32)
    _print(
        {
            "alpha": str(norm.alpha),
            "base": norm.base,
            "value": "frac(1/alpha)",
            "digits": inverse_slope_digits(norm, count),
        }
    )
    return 0


def _cmd_language(fields) -> int:
    src, base = _digit_source(fields)
    n_max = _positive_int(fields, "nmax", 30)
    lw = words(src, base, n_max, allow_zero_start=True)
    payload = {
        "source": lw.source_label,
        "base": base,
        "n_top": lw.n_top,
        "words": lw.word_strs(),
    }
    if lw.n_top >= 1:
        report = verify_length_claim(lw)
        payload["length_stabilization_N"] = report.stable_from
        payload["length_claim"] = _length_claim_payload(report)
    _print(payload)
    return 0


def _cmd_decide(fields) -> int:
    src, base = _digit_source(fields)
    window = _window(fields)
    verdict = decide_regularity(src, base, window=window)
    _print(_verdict_payload(verdict))
    return 0


def _cmd_kernel(fields) -> int:
    norm = _normalized(fields)
    depth = _positive_int(fields, "depth", 6)
    prefix_len = _positive_int(fields, "prefix_len", 64)
    _print(_kernel_payload(_kernel_report(norm, depth, prefix_len)))
    return 0


def _cmd_fk(fields) -> int:
    norm = _normalized(fields)
    kmax = _positive_int(fields, "kmax", 60)
    lc = f_counts(norm, kmax)
    alignment = align_m0(lc, jump_positions(norm, kmax + 1))
    payload = {
        "k_min": lc.k_min,
        "k_max": lc.k_max,
        "f": [[k, lc.at(k)] for k in range(lc.k_min, lc.k_max + 1)],
        "alignment": _alignment_payload(alignment),
        "d_verdict": _periodicity_payload(
            decide_d_periodicity(norm, kmax, detect_period(norm, kmax))
        ),
    }
    if alignment.ok:
        slice_ = d_seq(lc)
        payload["d_start"] = slice_.start
        payload["d"] = list(slice_.values)
    _print(payload)
    return 0


def _cmd_dfa(fields) -> int:
    norm = _normalized(fields)
    window = _window(fields)
    verdict = decide_regularity(RkDigitSource(norm), norm.base, window=window)
    if fields["dot"]:
        if verdict.kind != "Regular" or verdict.dfa is None:
            print(
                f"no DFA: verdict is {verdict.kind}; emitting verdict JSON",
                file=sys.stderr,
            )
            _print({"kind": verdict.kind})
            return 0
        print(verdict.dfa.to_dot())
        return 0
    payload = _verdict_payload(verdict)
    if verdict.kind == "Regular":
        payload["table"] = verdict.dfa.to_table()
    _print(payload)
    return 0


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def _check_links(rational: bool, r_verdict, language_verdict, d_verdict) -> None:
    """The chain's verdict links must agree wherever they commit.

    Inconclusive links are allowed (finite windows), but a certified
    verdict on the wrong side of the rationality dichotomy is a bug, not
    a mathematical outcome.
    """
    if r_verdict.kind == "Periodic" and not rational:
        raise ConsistencyError("r certified periodic with irrational slope")
    if r_verdict.kind == "AperiodicByTheorem" and rational:
        raise ConsistencyError("r certified aperiodic with rational slope")
    if language_verdict.kind == "Regular" and not rational:
        raise ConsistencyError("language Regular with irrational slope")
    if language_verdict.kind == "NonRegular" and rational:
        raise ConsistencyError("language NonRegular with rational slope")
    if d_verdict.kind == "Periodic" and not rational:
        raise ConsistencyError("d certified periodic with irrational slope")
    if d_verdict.kind == "AperiodicByTheorem" and rational:
        raise ConsistencyError("d certified aperiodic with rational slope")


def run_analyze(scenario: dict) -> dict:
    """Execute the whole decision chain for one scenario dict.

    Every link (digit periodicity, language regularity, level-count
    difference periodicity, the headline regular-iff-rational verdict)
    is recorded separately so a failure localizes to its link.  The
    scenario holds the same fields as the flags; null means unset.
    """
    kmax = _positive_int(scenario, "kmax", DEFAULT_KMAX)
    window = _window(scenario)
    kernel_depth = _positive_int(scenario, "kernel_depth", 4)
    kernel_prefix = _positive_int(scenario, "kernel_prefix", 32)

    timings: dict[str, float] = {}
    clock = time.perf_counter

    t0 = clock()
    norm = _normalized(scenario)
    base = norm.base
    timings["normalize"] = clock() - t0

    t0 = clock()
    r_head = r_stream(norm, min(kmax, 64))
    r_verdict = detect_period(norm, window)
    timings["r_periodicity"] = clock() - t0

    t0 = clock()
    language_verdict = decide_regularity(
        RkDigitSource(norm, r_verdict), base, window=window
    )
    timings["language"] = clock() - t0

    t0 = clock()
    kernel = _kernel_report(norm, kernel_depth, kernel_prefix)
    timings["kernel"] = clock() - t0

    t0 = clock()
    fk_top = min(kmax, 60)
    lc = f_counts(norm, fk_top)
    alignment = align_m0(lc, jump_positions(norm, fk_top + 1))
    d_verdict = decide_d_periodicity(norm, min(kmax, 400), r_verdict)
    timings["level_counts"] = clock() - t0

    rational = bool(norm.alpha.is_rational)
    _check_links(rational, r_verdict, language_verdict, d_verdict)

    return {
        "schema": SCHEMA,
        "version": __version__,
        "scenario": {
            "alpha": str(scenario["alpha"]),
            "beta": str(_field(scenario, "beta", "0")),
            "base": base,
            "kmax": kmax,
            "window": window,
            "kernel_depth": kernel_depth,
            "kernel_prefix": kernel_prefix,
        },
        "normalization": {
            "alpha": str(norm.alpha),
            "beta": str(norm.beta),
            "base": norm.base,
            "index_shift": norm.index_shift,
            "value_offset": norm.value_offset,
            "identity_start": norm.identity_start,
        },
        "verdicts": {
            "r_periodicity": _periodicity_payload(r_verdict),
            "language_regularity": _verdict_payload(language_verdict),
            "d_periodicity": _periodicity_payload(d_verdict),
            "sequence_regularity": {
                "b_regular": rational,
                "reason": (
                    "slope is rational, so the digit recurrence is"
                    " ultimately periodic"
                    if rational
                    else "slope is an irrational quadratic surd"
                ),
            },
        },
        "evidence": {
            "r_head": list(r_head),
            "kernel": _kernel_payload(kernel),
            "level_counts": [[k, lc.at(k)] for k in range(lc.k_min, lc.k_max + 1)],
            "alignment": _alignment_payload(alignment),
        },
        "timings": timings,
    }


def _cmd_analyze(fields) -> int:
    _print(run_analyze(fields))
    return 0


def _cmd_batch(path: str, scenario: dict, flags: dict) -> int:
    batch = _load_json(path, "batch file")
    if not isinstance(batch, list):
        raise UsageError("batch file must hold a JSON array of scenarios")
    for i, entry in enumerate(batch):
        if not isinstance(entry, dict):
            raise UsageError(f"batch entry {i} is not a JSON object")
    # each entry takes the scenario file's place; flags still win
    _print([run_analyze(_merge(scenario, entry, flags)) for entry in batch])
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", help="slope, e.g. 3/2 or sqrt(2) or 1+sqrt(2)")
    sub.add_argument("--beta", help="offset, default 0")
    sub.add_argument("--base", type=int, help="numeration base, >= 2")
    sub.add_argument(
        "--scenario", help="JSON file with default field values; flags win"
    )


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--source",
        choices=["rk", "periodic", "explicit", "tm-blocks"],
        help="digit stream kind, default rk",
    )
    sub.add_argument("--preperiod", help="digits before the cycle (periodic)")
    sub.add_argument("--period", help="cycle digits (periodic)")
    sub.add_argument("--word", help="digits (explicit)")
    sub.add_argument("--block-a", dest="block_a", help="block A (tm-blocks)")
    sub.add_argument("--block-b", dest="block_b", help="block B (tm-blocks)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="floorlog",
        description="Exact regularity analysis of floor-log sequences.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    seq = subs.add_parser("seq", help="print u_n over an index range")
    _add_instance_flags(seq)
    seq.add_argument("--from", dest="start", type=int, help="first index, default 1")
    seq.add_argument("--to", dest="stop", type=int, help="last index, default 10")
    seq.set_defaults(handler=_cmd_seq)

    rk = subs.add_parser("rk", help="classified digit records as JSON")
    _add_instance_flags(rk)
    rk.add_argument("--kmax", type=int, help=f"range 1..kmax, default {DEFAULT_KMAX}")
    rk.set_defaults(handler=_cmd_rk)

    digits = subs.add_parser("digits", help="base digits of frac(1/alpha)")
    _add_instance_flags(digits)
    digits.add_argument("--count", type=int, help="digit count, default 32")
    digits.set_defaults(handler=_cmd_digits)

    language = subs.add_parser("language", help="words of a digit stream")
    _add_instance_flags(language)
    _add_source_flags(language)
    language.add_argument("--nmax", type=int, help="last word index, default 30")
    language.set_defaults(handler=_cmd_language)

    decide = subs.add_parser("decide", help="regularity verdict for a stream")
    _add_instance_flags(decide)
    _add_source_flags(decide)
    decide.add_argument(
        "--window", type=int, help=f"word window, default {DEFAULT_WINDOW}"
    )
    decide.set_defaults(handler=_cmd_decide)

    kernel = subs.add_parser("kernel", help="kernel growth of the unit-step word")
    _add_instance_flags(kernel)
    kernel.add_argument("--depth", type=int, help="kernel depth, default 6")
    kernel.add_argument(
        "--prefix-len", dest="prefix_len", type=int, help="fingerprint length, default 64"
    )
    kernel.set_defaults(handler=_cmd_kernel)

    fk = subs.add_parser("fk", help="level counts, alignment, d-periodicity")
    _add_instance_flags(fk)
    fk.add_argument("--kmax", type=int, help="top level, default 60")
    fk.set_defaults(handler=_cmd_fk)

    dfa = subs.add_parser("dfa", help="DFA of the word language, JSON or DOT")
    _add_instance_flags(dfa)
    dfa.add_argument("--window", type=int, help=f"word window, default {DEFAULT_WINDOW}")
    dfa.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    dfa.set_defaults(handler=_cmd_dfa)

    analyze = subs.add_parser("analyze", help="full pipeline report as JSON")
    _add_instance_flags(analyze)
    analyze.add_argument("--kmax", type=int, help=f"default {DEFAULT_KMAX}")
    analyze.add_argument("--window", type=int, help=f"default {DEFAULT_WINDOW}")
    analyze.add_argument("--kernel-depth", dest="kernel_depth", type=int)
    analyze.add_argument("--kernel-prefix", dest="kernel_prefix", type=int)
    analyze.add_argument("--batch", help="JSON array of scenarios to run")
    analyze.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _load_json(args.scenario, "scenario file") if args.scenario else {}
        if not isinstance(scenario, dict):
            raise UsageError("scenario file must hold a JSON object")
        flags = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "handler", "scenario", "batch")
        }
        if getattr(args, "batch", None):
            return _cmd_batch(args.batch, scenario, flags)
        return args.handler(_merge(scenario, flags))
    except UsageError as exc:
        print(f"floorlog: error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"floorlog: internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
