"""Command-line front end emitting exact analysis results as JSON.

Subcommands: seq, rk, digits, language, decide, kernel, fk, dfa, analyze.
stdout carries data; stderr carries diagnostics.  Each handler returns
what stdout carries, a JSON-ready value or, for seq and dfa --dot, text,
and only _main writes it, once per run.  Exit codes separate
operational trouble from mathematical outcomes: 0 means the run
completed (whatever the verdict says), 1 means the invocation was
unusable (bad flags, unreadable argument files, unparseable numbers,
oversized scopes, or any value the library refuses with a ValueError),
2 means an internal consistency check tripped, which is a bug and
should be reported.  All JSON output is canonical (sorted keys,
two-space indent), so identical inputs produce byte-identical reports
apart from the timings block.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict
from numbers import Number

from . import __version__
from .automata import kernel_explore
from .exact import ExactReal, ParseError
from .jumpdigits import (
    DigitSource,
    InstanceTables,
    PeriodicityVerdict,
    classify_range,
    inverse_slope_digits,
)
from .language import (
    MIN_WINDOW,
    ExplicitDigitSource,
    PeriodicDigitSource,
    ThueMorseBlockSource,
    decide_regularity,
    verify_length_claim,
    words,
)
from .levelcounts import d_seq, decide_d_periodicity
from .numeration import parse_word, word_str
from .sequences import (
    ConsistencyError,
    FloorLogInstance,
    NormalizedInstance,
    jump_levels_past,
    normalize,
    u_term,
    v_indicator,
)

SCHEMA = "floorlog-report/2"
DEFAULT_KMAX = 200
DEFAULT_WINDOW = 10**3
_KERNEL_SCOPE_CAP = 1 << 24
# work budgets, refused with exit 1: the work and output of each flag's
# stage grow at least linearly in it; at its cap a small instance such as
# 3/2 in base 2 or 10 runs in about ten seconds or less
# the language fold keeps every w_n, so --window memory grows as
# window^2 * log2(base): at this cap analyze on 3/2 peaks near 0.3 GB in
# base 10 and 1 GB in base 4096; analyze on 10007/10000 in base 10 still
# ends Inconclusive at this cap, after about 130 s at a 1.5 GB peak RSS
# on a 2-CPU x86 box, CPython 3.11
_WINDOW_CAP = 25000
_KMAX_CAP = 4000  # fk in base 10 prints f_k up to 4001 digits; see _fk_fits_text_limit
_COUNT_CAP = 10**5
_NMAX_CAP = 2000  # language prints every word, about nmax^2 / 2 digits
_INDEX_CAP = 10**6
_DEPTH_CAP = 64  # bounds base**depth before the kernel scope cap is tested
# base**2 is the least kernel scope (depth 1, prefix 1), so analyze cannot
# run above this base; it also bounds the alphabet of every digit automaton
_BASE_CAP = 1 << 12


class UsageError(ValueError):
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

    # argparse expands @file tokens inside a file too, so a file naming
    # itself would recurse until RecursionError; one level is enough
    def convert_arg_line_to_args(self, arg_line):
        if arg_line.startswith("@"):
            self.error(f"an argument file may not name another file: {arg_line}")
        return [arg_line]


def _canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# fields: one dict of flag values per run, None meaning unset
# ---------------------------------------------------------------------------


def _flag(key: str) -> str:
    return {"start": "--from", "stop": "--to"}.get(key, "--" + key.replace("_", "-"))


def _field(fields: dict, key: str, default=None):
    value = fields.get(key)
    if value is None:
        value = default
    if value is None:
        raise UsageError(f"{_flag(key)} is required")
    return value


def _integer(fields: dict, key: str, default=None, least=None, cap=None) -> int:
    value = _field(fields, key, default)
    # run_analyze callers may pass a decimal string such as "2" or a number
    # such as 2.0; int() truncates 2.5 and reads True as 1, so a number it
    # changes and a bool are refused
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, bool) or (isinstance(value, Number) and out != value):
        raise UsageError(f"{_flag(key)} must be an integer, got {value!r}")
    if least is not None and out < least:
        raise UsageError(f"{_flag(key)} must be at least {least}, got {out}")
    if cap is not None and out > cap:
        raise UsageError(f"{_flag(key)} must be at most {cap}, got {out}")
    return out


def _positive_int(fields: dict, key: str, default=None, cap=None) -> int:
    return _integer(fields, key, default, least=1, cap=cap)


def _base(fields: dict) -> int:
    return _integer(fields, "base", least=2, cap=_BASE_CAP)


def _window(fields: dict) -> int:
    return _integer(fields, "window", DEFAULT_WINDOW, least=MIN_WINDOW, cap=_WINDOW_CAP)


def _exact(fields: dict, key: str, default=None) -> ExactReal:
    try:
        return ExactReal.parse(str(_field(fields, key, default)))
    except ParseError as exc:
        raise UsageError(f"cannot parse {_flag(key)}: {exc}")


def _instance(fields: dict) -> FloorLogInstance:
    """alpha, beta (default 0) and base, checked and unnormalized."""
    return FloorLogInstance(_exact(fields, "alpha"), _exact(fields, "beta", "0"), _base(fields))


def _normalized(fields: dict) -> NormalizedInstance:
    return normalize(_instance(fields))


def _digit_word(fields: dict, key: str, default=None, *, allow_empty=False) -> tuple[int, ...]:
    """The digit word under key, checked here so that a message names its flag."""
    text = str(_field(fields, key, default))
    try:
        word = parse_word(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {_flag(key)}: {exc}")
    if not word and not allow_empty:
        raise UsageError(f"{_flag(key)} must hold at least one digit")
    if any(d < 0 for d in word):
        raise UsageError(f"{_flag(key)} digits must be nonnegative")
    return word


def _digit_source(fields: dict, window: int) -> tuple[DigitSource, int]:
    """The stream --source names; an rk stream's r verdict is certified on window."""
    base = _base(fields)
    kind = _field(fields, "source", "rk")
    if kind == "rk":
        return InstanceTables(_normalized(fields), window), base
    if kind == "periodic":
        pre = _digit_word(fields, "preperiod", "", allow_empty=True)
        return PeriodicDigitSource(pre, _digit_word(fields, "period")), base
    if kind == "explicit":
        return ExplicitDigitSource(_digit_word(fields, "word")), base
    # --source takes choices=, so the kind left is tm-blocks
    return (
        ThueMorseBlockSource(_digit_word(fields, "block_a"), _digit_word(fields, "block_b")),
        base,
    )


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
                evidence[key] = asdict(value)
            elif key == "pattern_scan":
                evidence[key] = {str(p): list(hits) for p, hits in value.items()}
            else:
                evidence[key] = value
        out["evidence"] = evidence
    return out


def _alignment_payload(alignment):
    # also_valid is kept until the floorlog-report/3 bump
    return {**asdict(alignment), "also_valid": [], "ok": alignment.ok}


def _kernel_scope(base: int, depth: int, prefix_len: int, flags: str) -> int:
    # the closure probe reads one level past depth, so cover that too
    scope = base ** (depth + 1) * prefix_len
    if scope > _KERNEL_SCOPE_CAP:
        raise UsageError(
            f"kernel scope base**(depth+1) * prefix_len = {scope} exceeds "
            f"the cap {_KERNEL_SCOPE_CAP}; lower {flags}"
        )
    return scope


def _kernel_report(norm: NormalizedInstance, depth: int, prefix_len: int, scope: int, jumps):
    steps = v_indicator(norm, scope - 1, jumps)
    return kernel_explore(steps.__getitem__, norm.base, depth, prefix_len)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_seq(fields) -> str:
    inst = _instance(fields)
    start = _integer(fields, "start", 1, least=0)
    stop = _integer(fields, "stop", 10, cap=_INDEX_CAP)
    if stop < start:
        raise UsageError("--to must not be below --from")
    values = [u_term(inst.alpha, inst.beta, inst.base, n) for n in range(start, stop + 1)]
    return ",".join(str(v) for v in values)


def _cmd_rk(fields) -> list:
    norm = _normalized(fields)
    kmax = _positive_int(fields, "kmax", DEFAULT_KMAX, _KMAX_CAP)
    return [
        {
            "k": rec.k,
            "r": rec.r,
            "case": rec.case_tag,
            "digit": rec.digit,
            "pk": rec.pk,
            "pk1": rec.pk1,
        }
        for rec in classify_range(norm, kmax)
    ]


def _cmd_digits(fields) -> dict:
    norm = _normalized(fields)
    count = _positive_int(fields, "count", 32, _COUNT_CAP)
    return {
        "alpha": str(norm.alpha),
        "base": norm.base,
        "value": "frac(1/alpha)",
        "digits": inverse_slope_digits(norm, count),
    }


def _cmd_language(fields) -> dict:
    # words read digits alone, so no r verdict is computed and 1 is never read
    src, base = _digit_source(fields, 1)
    n_max = _positive_int(fields, "nmax", 30, _NMAX_CAP)
    lw = words(src, base, n_max, allow_zero_start=True)
    payload = {
        "source": lw.source_label,
        "base": base,
        "n_top": lw.n_top,
        "words": lw.word_strs(),
    }
    if lw.n_top >= 1:
        report = verify_length_claim(lw.lengths)
        payload["length_stabilization_N"] = report.stable_from
        payload["length_claim"] = asdict(report)
    return payload


def _regularity(fields):
    """The regularity verdict of the stream --source names, on --window."""
    window = _window(fields)
    src, base = _digit_source(fields, window)
    return decide_regularity(src, base, window=window)


def _cmd_decide(fields) -> dict:
    return _verdict_payload(_regularity(fields))


def _cmd_kernel(fields) -> dict:
    norm = _normalized(fields)
    depth = _positive_int(fields, "depth", 6, _DEPTH_CAP)
    prefix_len = _positive_int(fields, "prefix_len", 64)
    scope = _kernel_scope(norm.base, depth, prefix_len, "--depth or --prefix-len")
    return asdict(_kernel_report(norm, depth, prefix_len, scope, None))


def _fk_fits_text_limit(base: int, kmax: int) -> None:
    """Refuse a level range whose counts Python cannot print.

    On a normalized instance (alpha >= 1, 0 <= beta < alpha) a level
    holds f_k <= (base^(k+1) - base^k)/alpha + 2 indices, which is below
    base^(kmax+1) for every k <= kmax once base^kmax > 2 (smaller ranges
    print one-digit counts).  So every count fk prints has at most limit
    digits when base^(kmax+1) <= 10^limit, limit being the interpreter's
    int-to-text digit limit (0 when it is off).
    """
    limit = sys.get_int_max_str_digits()
    if limit and base ** (kmax + 1) > 10**limit:
        raise UsageError(
            f"--kmax {kmax} at --base {base} could print level counts f_k of "
            f"more than {limit} digits, Python's int-to-text limit; lower --kmax"
        )


def _cmd_fk(fields) -> dict:
    norm = _normalized(fields)
    kmax = _positive_int(fields, "kmax", 60, _KMAX_CAP)
    _fk_fits_text_limit(norm.base, kmax)
    tables = InstanceTables(norm, kmax, d_window=kmax)
    lc, alignment, d_verdict = decide_d_periodicity(tables, kmax)
    payload = {
        "k_min": lc.k_min,
        "k_max": lc.k_max,
        "f": [[k, lc.at(k)] for k in range(lc.k_min, lc.k_max + 1)],
        "alignment": _alignment_payload(alignment),
        "d_verdict": _periodicity_payload(d_verdict),
    }
    if alignment.ok:
        slice_ = d_seq(lc, tables.r_terms(lc.k_max), alignment)
        payload["d_start"] = slice_.start
        payload["d"] = list(slice_.values)
    return payload


def _cmd_dfa(fields) -> dict | str:
    # dfa has no --source flag, so _regularity reads the rk stream
    verdict = _regularity(fields)
    if fields["dot"]:
        if verdict.kind != "Regular":
            print(f"no DFA: verdict is {verdict.kind}; emitting verdict JSON", file=sys.stderr)
            return {"kind": verdict.kind}
        return verdict.dfa.to_dot()
    payload = _verdict_payload(verdict)
    if verdict.kind == "Regular":
        payload["table"] = verdict.dfa.to_table()
    return payload


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
    scenario holds the same fields as the flags; None means unset.
    """
    kmax = _positive_int(scenario, "kmax", DEFAULT_KMAX, _KMAX_CAP)
    window = _window(scenario)
    kernel_depth = _positive_int(scenario, "kernel_depth", 4, _DEPTH_CAP)
    kernel_prefix = _positive_int(scenario, "kernel_prefix", 32)

    timings: dict[str, float] = {}
    clock = time.perf_counter

    t0 = clock()
    norm = _normalized(scenario)
    base = norm.base
    kernel_scope = _kernel_scope(
        base, kernel_depth, kernel_prefix, "--kernel-depth or --kernel-prefix"
    )
    timings["normalize"] = clock() - t0

    tables = InstanceTables(norm, window, d_window=min(kmax, 400))

    t0 = clock()
    r_verdict = tables.r_verdict
    r_head = tables.r_terms(min(kmax, 64))
    timings["r_periodicity"] = clock() - t0

    t0 = clock()
    language_verdict = decide_regularity(tables, base, window=window)
    timings["language"] = clock() - t0

    # at defaults the level stage reads further into the jump table than
    # the kernel, so counting first lets the kernel read a prefix of it
    t0 = clock()
    lc, alignment, d_verdict = decide_d_periodicity(tables, min(kmax, 60))
    timings["level_counts"] = clock() - t0

    t0 = clock()
    kernel_jumps = tables.jumps_to(jump_levels_past(base, kernel_scope - 1))
    kernel = _kernel_report(norm, kernel_depth, kernel_prefix, kernel_scope, kernel_jumps)
    timings["kernel"] = clock() - t0

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
            "kernel": asdict(kernel),
            "level_counts": [[k, lc.at(k)] for k in range(lc.k_min, lc.k_max + 1)],
            "alignment": _alignment_payload(alignment),
        },
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", help="slope, e.g. 3/2 or sqrt(2) or 1+sqrt(2)")
    sub.add_argument("--beta", help="offset, default 0")
    sub.add_argument("--base", type=int, help="numeration base, >= 2")


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
        # flags may come from a file, one token per line: floorlog analyze @args
        fromfile_prefix_chars="@",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    seq = subs.add_parser("seq", help="print u_n over an index range")
    _add_instance_flags(seq)
    seq.add_argument("--from", dest="start", type=int, help="first index (0 or more), default 1")
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
    analyze.set_defaults(handler=run_analyze)

    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`floorlog seq ... | head`): exit 1 without
        # a traceback, as the Python docs advise for SIGPIPE; pointing the
        # process's stdout at devnull keeps the final flush at exit quiet too
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:
        # argparse reports an argument file it cannot open, not one it cannot decode
        parser.error(f"cannot read an argument file: {exc}")
    try:
        output = args.handler(vars(args))
        # rendering may refuse too: an integer past Python's int-to-text limit
        text = output if isinstance(output, str) else _canonical(output)
    except ValueError as exc:
        print(f"floorlog: error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"floorlog: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
