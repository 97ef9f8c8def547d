"""Command-line behaviour: exit codes, payload shapes, determinism."""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floorlog import cli, jumpdigits, levelcounts, sequences
from floorlog.battery import BATTERY
from floorlog.cli import main, run_analyze
from floorlog.exact import ExactReal
from floorlog.jumpdigits import InstanceTables, PeriodicityVerdict
from floorlog.language import decide_regularity
from floorlog.levelcounts import decide_d_periodicity
from floorlog.sequences import ConsistencyError, FloorLogInstance, normalize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_seq_example(capsys):
    code, out, _ = run(capsys, "seq", "--alpha", "1", "--beta", "0",
                       "--base", "2", "--from", "1", "--to", "4")
    assert code == 0
    assert out.strip() == "0,1,1,2"


@pytest.mark.parametrize("command, extra", [
    ("seq", ("--to", "4")),
    ("analyze", ("--kmax", "20", "--window", "50")),
    ("fk", ("--kmax", "20")),
])
@pytest.mark.parametrize("beta", ["-1/3", "-1/2*sqrt(2)", "-sqrt(2)"])
def test_negative_value_may_follow_its_flag(capsys, frozen_clock, command, extra, beta):
    alpha = "2*sqrt(2)" if "sqrt" in beta else "3/2"
    spaced = run(capsys, command, "--alpha", alpha, "--beta", beta, "--base", "2", *extra)
    attached = run(capsys, command, "--alpha", alpha, f"--beta={beta}", "--base", "2", *extra)
    assert attached[0] == 0 and attached[1]
    assert spaced == attached


def test_seq_from_zero_prints_u0(capsys):
    code, out, _ = run(capsys, "seq", "--alpha", "3/2", "--beta", "1",
                       "--base", "2", "--from", "0", "--to", "3")
    assert code == 0
    assert out.strip() == "0,1,2,2"


def test_seq_may_stop_at_zero(capsys):
    code, out, _ = run(capsys, "seq", "--alpha", "3/2", "--beta", "1",
                       "--base", "2", "--from", "0", "--to", "0")
    assert code == 0
    assert out.strip() == "0"
    code, out, err = run(capsys, "seq", "--alpha", "3/2", "--beta", "1",
                         "--base", "2", "--from", "0", "--to", "-1")
    assert code == 1 and out == ""
    assert "--to must not be below --from" in err


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_seq_refuses_a_slope_that_is_not_positive(capsys, alpha):
    code, out, err = run(capsys, "seq", "--alpha", alpha, "--beta", "5",
                         "--base", "2", "--from", "1", "--to", "4")
    assert code == 1 and out == ""
    assert err == "floorlog: error: alpha must be positive\n"


@pytest.mark.parametrize("beta", ["0", "-1/2"])
def test_seq_from_zero_refuses_undefined_u0(capsys, beta):
    code, out, err = run(capsys, "seq", "--alpha", "3/2", "--beta", beta,
                         "--base", "2", "--from", "0", "--to", "3")
    assert code == 1 and out == ""
    assert "u_0 undefined" in err


def test_missing_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "rk", "--base", "2")
    assert code == 1
    assert "alpha" in err


def test_unparseable_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "rk", "--alpha", "sqrt(2)/3", "--base", "2")
    assert code == 1
    assert "alpha" in err


def test_base_below_two_is_usage_error(capsys):
    code, _, err = run(capsys, "seq", "--alpha", "1", "--base", "1")
    assert code == 1
    assert "base" in err


def test_backwards_range_is_usage_error(capsys):
    code, _, _ = run(capsys, "seq", "--alpha", "1", "--base", "2",
                     "--from", "5", "--to", "2")
    assert code == 1


def test_oversized_radicand_is_usage_error(capsys):
    # trial division on a 21-digit prime radicand would run for hours
    t0 = time.perf_counter()
    code, _, err = run(capsys, "seq", "--alpha", "sqrt(100000000000000000039)",
                       "--base", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "radicand" in err and "Traceback" not in err


@pytest.mark.parametrize("template", ["{}", "3/{}", "sqrt({})"])
def test_overlong_integer_literal_is_usage_error(capsys, template):
    # past Python's int-conversion digit limit int() raises its own ValueError
    code, out, err = run(capsys, "seq", "--alpha", template.format("1" * 5000),
                         "--base", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("floorlog: error:")
    assert "too long" in err and "Traceback" not in err


_MIXED_RADICANDS = ["--alpha", "sqrt(2)", "--beta", "1/3*sqrt(3)", "--base", "10"]


@pytest.mark.parametrize("argv", [
    ["analyze"], ["rk"], ["fk"], ["kernel"], ["dfa"], ["digits"], ["seq"],
    ["decide", "--source", "rk"], ["language", "--source", "rk"],
], ids=lambda argv: " ".join(argv))
def test_mixed_radicands_are_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, *_MIXED_RADICANDS)
    assert code == 1 and out == ""
    assert err == (
        "floorlog: error: alpha and beta must share one radicand, "
        "got sqrt(2) and sqrt(3)\n"
    )


class _ClosedPipe:
    """A stdout whose reader has gone away, like `floorlog ... | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["seq", "--alpha", "3/2", "--base", "2", "--to", "2000"],
    ["analyze", "--alpha", "3/2", "--base", "2"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_1_without_traceback(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 1
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_1_through_the_module_entry_point():
    # a real pipe, unlike _ClosedPipe, takes main's dup2 onto devnull and
    # the __main__ guard; rk prints about 400 kB here, past a 64 kB pipe buffer
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "floorlog.cli", "rk", "--alpha", "sqrt(2)", "--base", "2",
         "--kmax", "4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


_SOURCE_FLAGS = {
    "rk": ["--alpha", "3/2", "--beta", "0", "--base", "2"],
    "periodic": ["--preperiod", "21", "--period", "102", "--base", "3"],
    "explicit": ["--word", "1012", "--base", "2"],
    "tm-blocks": ["--block-a", "10", "--block-b", "02", "--base", "2"],
}


@pytest.mark.parametrize("source", sorted(_SOURCE_FLAGS))
@pytest.mark.parametrize("command", ["language", "decide"])
def test_stream_commands_share_source_flags(capsys, command, source):
    code, out, _ = run(capsys, command, "--source", source, *_SOURCE_FLAGS[source])
    assert code == 0
    assert json.loads(out)


# sha256 of stdout, computed before the digit sources shared one buffer
_STREAM_STDOUT_SHA256 = {
    ("language", "explicit"): "a55bc8d9e679cbe549695b8031a9db438d643a89c8f26588fb77944e85865da9",
    ("language", "periodic"): "943ebb1064fd3ca168aad964940cf65bb32c26f11c536a0e092b64eea3b59a10",
    ("language", "rk"): "e3b2d356f65da7bde0db7dbe329eaf3f887cfcab235dd07aec6742ae40c265ba",
    ("language", "tm-blocks"): "23b7ad03c2811cfd1fc43c3db0b60a52627546e08b54a49d62d43ad69d17846c",
    ("decide", "explicit"): "2a7f6411e1658d20a2a20946798ff4339e84bb8fac4231fe0e5d3586a58003f6",
    ("decide", "periodic"): "6167bcf14e00841a007fb07176774ec459afa142d1598893f65bdad20f5c01a1",
    ("decide", "rk"): "5a0f6f3327e16618ae5f933f1499fabc2d40b7afadbe7d58ffc8b79564563480",
    ("decide", "tm-blocks"): "fe9abce78d754c1582f2efcb1c7642100a143e0fc59277e63d53f9657bfe4f2a",
}


# sha256 of stdout, computed while every handler printed its own output;
# analyze runs under frozen_clock, so its timings read 0.0
_COMMAND_STDOUT_SHA256 = {
    ("seq", "--alpha", "3/2", "--beta", "1", "--base", "2", "--from", "0", "--to", "500"):
        "fbab949d73dd638c11f36d960fc0ec23e6154f69cff0bbbcb9a166db0346c034",
    ("digits", "--alpha", "sqrt(2)", "--base", "10", "--count", "500"):
        "269d5cbe14a89529e915548430ac78c35108a1d43f56e506936208c7430c9c80",
    ("kernel", "--alpha", "sqrt(2)", "--base", "2", "--depth", "6", "--prefix-len", "64"):
        "ad45e3ee1ae6b5cf27dac083f80d877979c0724eb2921d2b950f086521ab1f56",
    ("analyze", "--alpha", "3/2", "--base", "2"):
        "a40bbaf075d5025d3ee94acb1ffdc7472dcd995840ed906923b57228584113ab",
}


@pytest.mark.parametrize("command, source", sorted(_STREAM_STDOUT_SHA256))
def test_stream_command_output_is_pinned(capsys, command, source):
    code, out, _ = run(capsys, command, "--source", source, *_SOURCE_FLAGS[source])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _STREAM_STDOUT_SHA256[command, source]


@pytest.mark.parametrize("argv", list(_COMMAND_STDOUT_SHA256), ids=lambda argv: argv[0])
def test_command_output_is_pinned(capsys, frozen_clock, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _COMMAND_STDOUT_SHA256[argv]


_DFA_FLAGS = {
    "3/2": ["--alpha", "3/2", "--base", "2"],
    "7/5+1/3": ["--alpha", "7/5", "--beta", "1/3", "--base", "10"],
    "47/43": ["--alpha", "47/43", "--base", "10"],
    "47/40": ["--alpha", "47/40", "--base", "2"],
    "31/23": ["--alpha", "31/23", "--base", "3"],
}
# the last three have orbits of period 46, 23 and 30 and 48-, 25- and
# 32-state machines; their digests were computed while every pattern
# had its own copy of the V1 loop
_DFA_STDOUT_SHA256 = {
    ("3/2", ()): "fe0bed0c7dffec02d6f9e5c1011e177885fe8328830a5ef7174e2c30e0d40c8a",
    ("3/2", ("--dot",)): "585c55dc775818d399a29bdd13c3fcb6f7cf5d357bcd9fbdd40b70d962473deb",
    ("7/5+1/3", ()): "81fa1c5fdcc31e4f9e2350f3452f4c40745c2092aa4ece3739163585a6102831",
    ("7/5+1/3", ("--dot",)): "11c592b6404c540e656794642231452279398c3eacf34cb5faf0b69835f969b3",
    ("47/43", ("--window", "200")): "076aefddca1b3ddf317a45995575c82d65702abf64cc42adc39774fe401c7567",
    ("47/40", ("--window", "200")): "19f19d555f2de2eecedd435f89417cd391b0351559080d325b3c864ccaa277f6",
    ("31/23", ("--window", "200")): "bb4b9ca8301febd8d83e228517477b6ee4a3037bf04c40ae1e38491e46cac9e3",
}


# sha256 of `rk --kmax 1000` stdout, computed while classify_range swept
# ExactReal values
_RK_FLAGS = {
    "sqrt(2) b2": ["--alpha", "sqrt(2)", "--base", "2"],
    "1+sqrt(3) b3": ["--alpha", "1+sqrt(3)", "--base", "3"],
    "golden b10, surd beta": ["--alpha", "1/2+1/2*sqrt(5)", "--beta", "2/7*sqrt(5)",
                              "--base", "10"],
    "3/2 b2": ["--alpha", "3/2", "--base", "2"],
}
_RK_STDOUT_SHA256 = {
    "sqrt(2) b2": "12bea194250ae393344c74a6e19401aa705391bdd27e6c6f20f2466bf5358697",
    "1+sqrt(3) b3": "0b00e5374c4878d2f4a25cdd429827c92894689a62b83cd96f1970487373fa74",
    "golden b10, surd beta": "5b5d507318bf1a3b65672356df4e047d196e6b55122ed471990be64f5687e54f",
    "3/2 b2": "61de63995d2febd3ee5b68191f53ac81f216c6167616ee2146fd37adac0b71cf",
}


# the first 40 rational-orbit inputs of perfbench seed 401 (alpha, beta,
# base), and the sha256 of their run_analyze reports at window 200,
# timings dropped, each canonical report followed by a newline; computed
# while every certificate replay ran one predict call per index
_ORBIT_401 = (
    ("47/43", "1/2", 10), ("157/39", "1/3", 10), ("41/11", "0", 10),
    ("1439/572", "0", 10), ("47/40", "0", 2), ("653/466", "1/2", 3),
    ("31/23", "0", 3), ("607/601", "0", 2), ("2161/827", "1/2", 10),
    ("1427/559", "1/3", 10), ("241/234", "1/3", 2), ("2473/1643", "0", 3),
    ("59/31", "0", 3), ("701/411", "1/2", 10), ("73/28", "1/3", 10),
    ("2969/2058", "1/3", 2), ("47/8", "1/3", 10), ("1559/290", "1/2", 10),
    ("2161/491", "1/2", 10), ("151/78", "1/3", 10), ("41/20", "0", 10),
    ("1831/1352", "0", 2), ("89/67", "1/3", 10), ("1511/1050", "0", 10),
    ("29/17", "1/2", 3), ("1427/827", "0", 10), ("337/197", "1/3", 2),
    ("677/280", "1/2", 3), ("281/150", "1/3", 10), ("151/51", "1/2", 10),
    ("127/71", "1/3", 10), ("3221/3119", "1/2", 3), ("29/12", "0", 3),
    ("1453/1103", "0", 10), ("7/3", "1/3", 10), ("163/122", "1/3", 10),
    ("601/351", "1/2", 2), ("1201/871", "1/2", 2), ("2791/1160", "1/2", 10),
    ("1439/1091", "1/3", 10),
)
_ORBIT_401_SHA256 = "56c2d465d0d110c45756ee4417e127e7aeb2fcc0d7815605d0310a295b93481c"


def test_rational_orbit_reports_are_pinned():
    digest = hashlib.sha256()
    for alpha, beta, base in _ORBIT_401:
        report = run_analyze({"alpha": alpha, "beta": beta, "base": base, "window": 200})
        del report["timings"]
        digest.update(cli._canonical(report).encode() + b"\n")
    assert digest.hexdigest() == _ORBIT_401_SHA256


@pytest.mark.parametrize("instance", sorted(_RK_STDOUT_SHA256))
def test_rk_output_is_pinned(capsys, instance):
    code, out, _ = run(capsys, "rk", *_RK_FLAGS[instance], "--kmax", "1000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _RK_STDOUT_SHA256[instance]


@pytest.mark.parametrize("instance, extra", list(_DFA_STDOUT_SHA256))
def test_dfa_output_is_pinned(capsys, instance, extra):
    code, out, _ = run(capsys, "dfa", *_DFA_FLAGS[instance], *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _DFA_STDOUT_SHA256[instance, extra]


def test_analyze_has_no_nmax_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--alpha", "3/2", "--base", "2", "--nmax", "5"])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, named", [
    (("rk", "--alpha", "1", "--base", "2", "--kmax", "ten"), "--kmax"),
    (("fk", "--alpha", "3/2", "--base", "2", "--kmax", "abc"), "--kmax"),
    (("fk", "--alpha", "3/2", "--base", "2", "--kmax", "1e400"), "--kmax"),
    (("decide", "--alpha", "3/2", "--base", "2", "--source", "bogus"), "--source"),
], ids=["kmax-ten", "kmax-text", "kmax-overflow", "unknown-source"])
def test_bad_flag_value_exits_one(capsys, argv, named):
    # argparse's own failures must come back as 1, not its default 2
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert named in err


@pytest.mark.parametrize("case", ["missing", "directory", "names-itself", "not-utf8"])
def test_unreadable_argument_file_exits_one(tmp_path, capsys, case):
    path = tmp_path / "args"
    if case == "directory":
        path.mkdir()
    elif case == "names-itself":
        path.write_text(f"@{path}\n")
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe--alpha\n3/2\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", f"@{path}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.count("floorlog: error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["decide", "dfa", "analyze"])
def test_window_below_the_word_minimum_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--alpha", "3/2", "--base", "2",
                         "--window", "7")
    assert code == 1 and out == ""
    assert "--window must be at least 8" in err


def test_nonregular_verdict_still_exits_zero(capsys):
    code, out, _ = run(capsys, "decide", "--alpha", "sqrt(2)",
                       "--beta", "0", "--base", "2")
    assert code == 0
    assert json.loads(out)["kind"] == "NonRegular"


def test_consistency_failure_exits_two(capsys, monkeypatch):
    """A certified-periodic r for an irrational slope is a bug, not a verdict."""
    poisoned = PeriodicityVerdict("Periodic", 0, 2, None)
    monkeypatch.setattr(InstanceTables, "r_verdict", poisoned)
    code, _, err = run(capsys, "analyze", "--alpha", "sqrt(2)",
                       "--beta", "0", "--base", "2")
    assert code == 2
    assert "consistency" in err


@pytest.mark.parametrize("rational, link, kind, message", [
    (False, 0, "Periodic", "r certified periodic with irrational slope"),
    (True, 0, "AperiodicByTheorem", "r certified aperiodic with rational slope"),
    (False, 1, "Regular", "language Regular with irrational slope"),
    (True, 1, "NonRegular", "language NonRegular with rational slope"),
    (False, 2, "Periodic", "d certified periodic with irrational slope"),
    (True, 2, "AperiodicByTheorem", "d certified aperiodic with rational slope"),
])
def test_check_links_refuses_each_contradiction(rational, link, kind, message):
    verdicts = [types.SimpleNamespace(kind="Inconclusive") for _ in range(3)]
    verdicts[link] = types.SimpleNamespace(kind=kind)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        cli._check_links(rational, *verdicts)


def test_regular_language_for_a_surd_exits_two(capsys, monkeypatch):
    regular = types.SimpleNamespace(kind="Regular")
    monkeypatch.setattr(cli, "decide_regularity", lambda *args, **kwargs: regular)
    code, out, err = run(capsys, "analyze", "--alpha", "sqrt(2)", "--base", "2")
    assert code == 2 and out == ""
    assert "language Regular with irrational slope" in err


# unusable invocations: argv and a fragment of the one-line message,
# naming the flag at fault
_UNUSABLE = {
    "explicit-without-word": (("decide", "--source", "explicit", "--base", "2"), "--word"),
    "tm-blocks-without-block-b": (("decide", "--source", "tm-blocks", "--block-a", "10",
                                   "--base", "2"), "--block-b"),
    "period-negative-digit": (("decide", "--source", "periodic", "--period", "[-1]",
                               "--base", "2"), "--period digits must be nonnegative"),
    "preperiod-negative-digit": (("decide", "--source", "periodic", "--preperiod", "[1,-1]",
                                  "--period", "1", "--base", "2"),
                                 "--preperiod digits must be nonnegative"),
    "period-empty": (("decide", "--source", "periodic", "--period", "", "--base", "2"),
                     "--period must hold at least one digit"),
    "period-empty-list": (("decide", "--source", "periodic", "--period", "[]",
                           "--base", "2"), "--period must hold at least one digit"),
    "word-empty": (("decide", "--source", "explicit", "--word", "", "--base", "2"),
                   "--word must hold at least one digit"),
    "period-empty-digit": (("decide", "--source", "periodic", "--period", "[1,,2]",
                            "--base", "2"), "--period"),
    "seq-from-negative": (("seq", "--alpha", "3/2", "--base", "2", "--from", "-1"),
                          "--from must be at least 0, got -1"),
    "kmax-zero": (("fk", "--alpha", "3/2", "--base", "2", "--kmax", "0"),
                  "--kmax must be at least 1, got 0"),
    "base-one": (("seq", "--alpha", "3/2", "--base", "1"), "--base must be at least 2, got 1"),
    "window-zero": (("decide", "--alpha", "3/2", "--base", "2", "--window", "0"),
                    "--window must be at least 8, got 0"),
    # dfa reads --window before --alpha, as decide does
    "dfa-window-before-alpha": (("dfa", "--alpha", "abc", "--base", "2", "--window", "7"),
                                "--window must be at least 8, got 7"),
}


@pytest.mark.parametrize("case", list(_UNUSABLE))
def test_unusable_invocations_exit_one_with_one_line(capsys, case):
    argv, named = _UNUSABLE[case]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("floorlog: error: ") and err.count("\n") == 1
    assert named in err


# per kind of flag, plain values and a hostile pool; size flags draw only
# small values or values above every cap, so no example does cap-sized work
_HOSTILE = ["-1", "0", "1/0", "abc", "1e3", "", "9" * 200, "7" * 5000]
_FUZZ_VALUES = {
    "number": (["3/2", "7/5", "1/3", "sqrt(2)", "1+sqrt(3)", "-1/2*sqrt(3)", "sqrt(8)"],
               _HOSTILE + ["1+2*sqrt(4)", "sqrt(1000000000039)", "sqrt(2)+sqrt(3)"]),
    "base": (["2", "3", "5", "10", "16"], _HOSTILE + ["1", "4097"]),
    "source": (["rk", "periodic", "explicit", "tm-blocks"], ["bogus"]),
    "word": (["0", "10", "21", "[3,4096]"], _HOSTILE + ["[1,,2]", "[1,-2]", "[]"]),
    "size": (["1", "3", "8", "12"], _HOSTILE + [str(1 << 25)]),
}
_FLAG_KIND = {"--alpha": "number", "--beta": "number", "--base": "base", "--source": "source",
              "--preperiod": "word", "--period": "word", "--word": "word",
              "--block-a": "word", "--block-b": "word"}


def _subcommand_flags():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {name: [flag for action in sub._actions if action.dest != "help"
                   for flag in action.option_strings]
            for name, sub in subs.choices.items()}


_SUBCOMMAND_FLAGS = _subcommand_flags()


@st.composite
def st_invocation(draw):
    """A subcommand and a subset of its flags, at most two of them given
    hostile values and the rest plain ones, and maybe an @ file."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    flags = _SUBCOMMAND_FLAGS[command]
    hostile = draw(st.sets(st.sampled_from(flags), max_size=2))
    argv = [command]
    for flag in flags:
        if flag == "--dot":
            argv += [flag] if draw(st.booleans()) else []
            continue
        plain, bad = _FUZZ_VALUES[_FLAG_KIND.get(flag, "size")]
        value = draw(st.sampled_from(bad if flag in hostile else [None, *plain]))
        if value is not None:  # None leaves the flag out
            argv += [flag, value]
    file = draw(st.sampled_from([None] * 4 + ["nested", "undecodable"]))
    if file:
        argv.insert(draw(st.integers(1, len(argv))), file)
    return argv


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argfiles")
    (root / "nested").write_text(f"--base\n2\n@{root / 'nested'}\n")
    (root / "undecodable").write_bytes(b"--alpha\n\xff\xfe\n")
    return {name: f"@{root / name}" for name in ("nested", "undecodable")}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st_invocation())
def test_hostile_invocations_exit_0_1_or_2_without_traceback(hostile_files, argv):
    argv = [hostile_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    # a lower orbit cap keeps each refused orbit walk short
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        patch.setattr(jumpdigits, "_ORBIT_BUDGET", 1 << 12)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("value", [[3], {}, "abc", "1e3", float("inf"), float("nan"),
                                   2.5, Fraction(5, 2), True, False], ids=repr)
def test_run_analyze_refuses_a_field_that_is_not_an_integer(value):
    with pytest.raises(cli.UsageError, match=r"^--kmax must be an integer, got "):
        run_analyze({"alpha": "3/2", "base": 2, "kmax": value})


@pytest.mark.parametrize("fields", [{"window": 8.9}, {"kmax": 2.5, "window": 8.9}], ids=repr)
def test_run_analyze_refuses_a_number_that_is_not_integral(fields):
    # int() would truncate these to 2 and 8 and run on them
    with pytest.raises(cli.UsageError, match=r"^--(kmax|window) must be an integer, got "):
        run_analyze({"alpha": "3/2", "base": 2, **fields})


def test_run_analyze_reads_an_integral_number_as_its_integer():
    reports = [run_analyze({"alpha": "3/2", "base": 2, "kmax": kmax, "window": 8})
               for kmax in (2, "2", 2.0)]
    for report in reports:
        del report["timings"]
    assert reports[0]["scenario"]["kmax"] == 2
    assert reports[1] == reports[0] == reports[2]


def test_only_main_and_the_flag_readers_catch_value_errors():
    """A library ValueError reaches _main, which maps every one to exit 1,
    so no other function of cli re-wraps one: only _main and the readers
    that add a flag name to a library message catch ValueError, a
    subclass of it or a class above it."""
    def catches_value_errors(handler):
        caught = eval(ast.unparse(handler.type), vars(cli)) if handler.type else BaseException
        return any(issubclass(c, ValueError) or issubclass(ValueError, c)
                   for c in (caught if isinstance(caught, tuple) else (caught,)))

    catching = {func.name for func in ast.walk(ast.parse(inspect.getsource(cli)))
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler) and catches_value_errors(node)}
    assert catching == {"_main", "_integer", "_exact", "_digit_word"}
    assert issubclass(cli.UsageError, ValueError)


def test_only_main_prints_to_stdout():
    """Handlers return what stdout carries and _main prints it once, so
    every other print in cli passes file=sys.stderr and nothing writes
    to sys.stdout directly."""
    tree = ast.parse(inspect.getsource(cli))

    def stdout_prints(node):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "print"
                and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                            for kw in call.keywords)]

    main_ = next(func for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) and func.name == "_main")
    assert len(stdout_prints(main_)) == 1
    assert stdout_prints(tree) == stdout_prints(main_)
    calls = {ast.unparse(call.func) for call in ast.walk(tree) if isinstance(call, ast.Call)}
    assert "sys.stdout.write" not in calls


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------


def test_rk_payload_matches_module(capsys):
    code, out, _ = run(capsys, "rk", "--alpha", "3/2", "--beta", "0",
                       "--base", "2", "--kmax", "10")
    assert code == 0
    records = json.loads(out)
    assert [rec["k"] for rec in records] == list(range(1, 11))
    assert [rec["r"] for rec in records] == [0, 1] * 5
    assert all(set(rec) == {"k", "r", "case", "digit", "pk", "pk1"}
               for rec in records)


def test_digits_of_unit_slope_are_all_zero(capsys):
    code, out, _ = run(capsys, "digits", "--alpha", "1", "--beta", "0",
                       "--base", "2", "--count", "6")
    assert code == 0
    assert json.loads(out)["digits"] == [0] * 6


def test_digits_three_halves(capsys):
    # 1/(3/2) = 2/3 = 0.101010... in binary
    code, out, _ = run(capsys, "digits", "--alpha", "3/2", "--beta", "0",
                       "--base", "2", "--count", "6")
    assert code == 0
    assert json.loads(out)["digits"] == [1, 0, 1, 0, 1, 0]


def test_language_periodic_source(capsys):
    code, out, _ = run(capsys, "language", "--source", "periodic",
                       "--period", "10", "--base", "2", "--nmax", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["words"] == ["1", "10", "101", "1010", "10101", "101010"]
    assert payload["length_stabilization_N"] == 0


def test_language_requires_period_for_periodic_source(capsys):
    code, _, err = run(capsys, "language", "--source", "periodic", "--base", "2")
    assert code == 1
    assert "period" in err


def test_decide_periodic_source_payload(capsys):
    code, out, _ = run(capsys, "decide", "--source", "periodic",
                       "--preperiod", "2", "--period", "10", "--base", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Regular"
    assert payload["dfa_states"] >= 2
    assert payload["patterns"]
    first = payload["patterns"][0]
    assert set(first) == {"v0", "v1", "v2", "period", "residue", "anchor",
                          "constant"}


def test_decide_thue_morse_blocks(capsys):
    code, out, _ = run(capsys, "decide", "--source", "tm-blocks",
                       "--block-a", "10", "--block-b", "02", "--base", "3",
                       "--window", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "NonRegular"
    assert "Thue-Morse" in payload["certificate"]["reason"]


def test_dfa_dot_output(capsys):
    code, out, _ = run(capsys, "dfa", "--alpha", "3/2", "--beta", "0",
                       "--base", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    # start, sink, and the two live states of the (10)+ / 1(01)* shape
    assert out.count("doublecircle") == 2


def test_dfa_dot_degrades_when_nonregular(capsys):
    code, out, err = run(capsys, "dfa", "--alpha", "sqrt(2)", "--beta", "0",
                         "--base", "2", "--dot")
    assert code == 0
    assert json.loads(out)["kind"] == "NonRegular"
    assert "no DFA" in err


def test_dfa_json_includes_table(capsys):
    code, out, _ = run(capsys, "dfa", "--alpha", "3/2", "--beta", "0",
                       "--base", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Regular"
    assert payload["dfa_states"] == 4
    assert len(payload["table"]["transitions"]) == 4


def test_kernel_subcommand(capsys):
    code, out, _ = run(capsys, "kernel", "--alpha", "1", "--beta", "0",
                       "--base", "2", "--depth", "6", "--prefix-len", "32")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"] is True
    assert payload["distinct_by_depth"][-1] == 4


def test_kernel_scope_cap(capsys):
    code, _, err = run(capsys, "kernel", "--alpha", "1", "--beta", "0",
                       "--base", "10", "--depth", "12")
    assert code == 1
    assert "scope" in err
    assert err.endswith("; lower --depth or --prefix-len\n")


def test_analyze_kernel_scope_cap_names_its_own_flags(capsys):
    # at its kernel defaults (depth 4, prefix 32) analyze runs to base 13
    assert run(capsys, "analyze", "--alpha", "3/2", "--base", "13")[0] == 0
    code, out, err = run(capsys, "analyze", "--alpha", "3/2", "--base", "14")
    assert code == 1 and out == ""
    assert err.endswith("; lower --kernel-depth or --kernel-prefix\n")


# each of the first six was still running when `timeout 5` stopped it
_OVER_BUDGET = {
    "analyze-window": ("analyze", "--window", 10**8, cli._WINDOW_CAP),
    "fk-kmax": ("fk", "--kmax", 10**8, cli._KMAX_CAP),
    "rk-kmax": ("rk", "--kmax", 10**8, cli._KMAX_CAP),
    "digits-count": ("digits", "--count", 10**8, cli._COUNT_CAP),
    "language-nmax": ("language", "--nmax", 10**8, cli._NMAX_CAP),
    "seq-to": ("seq", "--to", 10**12, cli._INDEX_CAP),
    "analyze-kmax": ("analyze", "--kmax", 10**8, cli._KMAX_CAP),
    "kernel-depth": ("kernel", "--depth", 10**12, cli._DEPTH_CAP),
    "analyze-kernel-depth": ("analyze", "--kernel-depth", 10**12, cli._DEPTH_CAP),
    # the next two were still running after 5 s as well; analyze was
    # refused only by its kernel scope, with a message that hid the base
    "digits-base": ("digits", "--base", 10**12, cli._BASE_CAP),
    "dfa-base": ("dfa", "--base", 10**12, cli._BASE_CAP),
    "analyze-base": ("analyze", "--base", 10**12, cli._BASE_CAP),
}


@pytest.mark.parametrize("case", sorted(_OVER_BUDGET))
def test_work_budgets_refuse_oversized_values(capsys, case):
    command, flag, value, cap = _OVER_BUDGET[case]
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "--alpha", "3/2", "--base", "2",
                         flag, str(value))
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert f"{flag} must be at most {cap}, got {value}" in err
    assert "Traceback" not in err
    assert cli._positive_int({"n": cap}, "n", cap=cap) == cap  # the cap itself passes


@pytest.mark.parametrize("command", [
    ("analyze", "--window", "200", "--kernel-depth", "2"),
    ("fk",),
    ("dfa",),
    ("decide", "--source", "rk"),
])
def test_orbit_cap_refuses_long_orbits(capsys, command):
    # the order of 16 mod 123456789 is 3,427,503, a cover of about 6.9
    # million terms, past the cap; the orbit walk stops at the cap
    t0 = time.perf_counter()
    code, out, err = run(capsys, *command, "--alpha", "123456789/7",
                         "--beta", "-5", "--base", "16")
    assert time.perf_counter() - t0 < 5
    assert code == 1 and out == ""
    assert "past the orbit cap for base 16" in err
    assert "Traceback" not in err


def test_fk_refuses_counts_past_the_int_to_text_limit(capsys):
    # f_k of 3/2 in base 16 passes 4300 digits near k = 3570
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fk", "--alpha", "3/2", "--base", "16", "--kmax", "4000")
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


def test_fk_prints_base_10_counts_at_the_kmax_cap(capsys):
    code, out, _ = run(capsys, "fk", "--alpha", "3/2", "--base", "10",
                       "--kmax", str(cli._KMAX_CAP))
    assert code == 0
    top, count = json.loads(out)["f"][-1]
    assert top == cli._KMAX_CAP and len(str(count)) == cli._KMAX_CAP + 1


def test_fk_subcommand(capsys):
    code, out, _ = run(capsys, "fk", "--alpha", "3/2", "--beta", "0",
                       "--base", "2", "--kmax", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["f"][0] == [0, 1]
    assert payload["alignment"]["ok"] is True
    assert payload["d_verdict"]["kind"] == "Periodic"
    assert "d" in payload


# ---------------------------------------------------------------------------
# analyze: reports and determinism
# ---------------------------------------------------------------------------


def scrub(report):
    out = dict(report)
    out.pop("timings", None)
    return out


def test_analyze_rational_report(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", "3/2", "--beta", "0",
                       "--base", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == cli.SCHEMA
    verdicts = report["verdicts"]
    assert verdicts["sequence_regularity"]["b_regular"] is True
    assert verdicts["r_periodicity"]["kind"] == "Periodic"
    assert verdicts["r_periodicity"]["mod_cycle"]["modulus"] == 3
    assert verdicts["language_regularity"]["kind"] == "Regular"
    assert verdicts["language_regularity"]["dfa_states"] == 4
    assert verdicts["d_periodicity"]["kind"] == "Periodic"


def test_analyze_irrational_report(capsys):
    code, out, _ = run(capsys, "analyze", "--alpha", "sqrt(2)", "--beta", "0",
                       "--base", "2")
    assert code == 0
    report = json.loads(out)
    verdicts = report["verdicts"]
    assert verdicts["sequence_regularity"]["b_regular"] is False
    assert verdicts["r_periodicity"]["kind"] == "AperiodicByTheorem"
    assert verdicts["language_regularity"]["kind"] == "NonRegular"


def test_analyze_output_is_canonical_json(capsys):
    """The printed report must survive a parse/re-dump round trip unchanged."""
    _, out, _ = run(capsys, "analyze", "--alpha", "3/2", "--beta", "0",
                    "--base", "2")
    text = out.rstrip("\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_analyze_is_deterministic_modulo_timings():
    scenario = {"alpha": "5/3", "beta": "1/3", "base": "3"}
    a = run_analyze(dict(scenario))
    b = run_analyze(dict(scenario))
    assert scrub(a) == scrub(b)
    assert set(a["timings"]) == set(b["timings"])


# sha256 over the 20 battery reports at CLI defaults, in battery order, each
# report in canonical JSON without its timings block
BATTERY_REPORTS_SHA256 = (
    "676c180e9751574dce21a73ec14c66d71f1cd31fc801ed38f6e969e933d737e3"
)


def test_battery_reports_are_pinned():
    digest = hashlib.sha256()
    for inst in BATTERY:
        report = run_analyze(
            {"alpha": inst.alpha_text, "beta": inst.beta_text, "base": inst.base}
        )
        digest.update(cli._canonical(scrub(report)).encode())
    assert digest.hexdigest() == BATTERY_REPORTS_SHA256


# sha256 over run_analyze reports at window 200 (timings scrubbed, canonical
# JSON, in this order) computed while every stage built its own tables.  At
# window 200 and kmax 200 the d stage reads one jump index past the r stage.
# The orbits of base^k mod p have orders 75, 292, 700 and 592, so from the
# second on the cover preperiod + 2*period sets both spans; 5/4 in base 10
# hits an integer at every k, so each certificate must list only the hits
# of its own range.
_WINDOW_200_INPUTS = (
    ("151/107", "1/3", 10), ("293/171", "1/2", 2), ("701/500", "0", 10),
    ("593/400", "1/3", 3), ("5/4", "0", 10),
)
WINDOW_200_REPORTS_SHA256 = (
    "b203a491e4aba7b4d15b868fb82784c34941b1c666df4a760a7be4e75af1d697"
)


def test_window_200_reports_are_pinned():
    digest = hashlib.sha256()
    for alpha, beta, base in _WINDOW_200_INPUTS:
        report = run_analyze(
            {"alpha": alpha, "beta": beta, "base": base, "window": 200}
        )
        digest.update(cli._canonical(scrub(report)).encode())
    assert digest.hexdigest() == WINDOW_200_REPORTS_SHA256


# sha256 of the 1009/1000 base-10 report at CLI defaults (timings scrubbed,
# canonical JSON): 252 patterns with |V1| = 252 and a 254-state machine,
# computed while the pattern NFA held 95,384 states
ORBIT_252_REPORT_SHA256 = (
    "db029d8dfc4c93602d9e9bdcfd7ba076c442b36e0eda37d4466961921427bf4a"
)


def test_orbit_252_report_is_pinned():
    report = run_analyze({"alpha": "1009/1000", "base": 10})
    assert report["verdicts"]["language_regularity"]["dfa_states"] == 254
    digest = hashlib.sha256(cli._canonical(scrub(report)).encode()).hexdigest()
    assert digest == ORBIT_252_REPORT_SHA256


# sha256 over the fk stdout of the 20 battery instances, in battery order,
# computed while align_m0 still searched offsets 0..8
_FK_STDOUT_SHA256 = {
    (): "70cca9fdf30553b037b89be706e40c40b32672b386854131f54ccbe5c834b7f1",
    ("--kmax", "7"): "45c46d4541a53e8243cc37c7e9fa60314ea17c0f2c568ad2a5c5c3f640996785",
}


@pytest.mark.parametrize("extra", sorted(_FK_STDOUT_SHA256))
def test_fk_output_is_pinned(capsys, extra):
    digest = hashlib.sha256()
    for inst in BATTERY:
        code, out, _ = run(capsys, "fk", "--alpha", inst.alpha_text, "--beta",
                           inst.beta_text, "--base", str(inst.base), *extra)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == _FK_STDOUT_SHA256[extra]


def _count_calls(monkeypatch, name, owner=jumpdigits):
    """Count calls of owner.<name> through every module that holds it."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("floorlog") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_proves_r_periodicity_once(monkeypatch):
    # certify_r builds the r certificate, on the instance's one set of tables
    certify = _count_calls(monkeypatch, "certify_r")
    orbit = _count_calls(monkeypatch, "residue_orbit")
    report = run_analyze({"alpha": "7/5", "base": 10})
    assert report["verdicts"]["language_regularity"]["kind"] == "Regular"
    assert report["verdicts"]["d_periodicity"]["certified"]
    assert (len(certify), len(orbit)) == (1, 1)


# (jump tables, level tables, r digit generators, residue generators,
# orbit walks) each subcommand builds at CLI defaults; a surd walks no
# orbit and steps no residues, and analyze counts levels first, so its
# kernel reads a prefix of that jump table
_TABLES_BUILT = {
    ("analyze", "7/5"): (1, 1, 1, 1, 1),
    ("fk", "7/5"): (1, 1, 1, 1, 1),
    ("dfa", "7/5"): (1, 0, 1, 1, 1),
    ("decide", "7/5"): (1, 0, 1, 1, 1),
    ("analyze", "sqrt(2)"): (1, 1, 1, 0, 0),
    ("fk", "sqrt(2)"): (1, 1, 1, 0, 0),
}


@pytest.mark.parametrize("command, alpha", list(_TABLES_BUILT),
                         ids=[c if a == "7/5" else f"{c}-{a}" for c, a in _TABLES_BUILT])
def test_each_exact_table_is_built_once(monkeypatch, capsys, command, alpha):
    jumps = _count_calls(monkeypatch, "jump_positions", sequences)
    levels = _count_calls(monkeypatch, "f_counts", levelcounts)
    digits = _count_calls(monkeypatch, "r_digits")
    residues = _count_calls(monkeypatch, "residue_digits")
    orbit = _count_calls(monkeypatch, "residue_orbit")
    extra = ("--source", "rk") if command == "decide" else ()
    code, _, _ = run(capsys, command, *extra, "--alpha", alpha, "--base", "10")
    assert code == 0
    built = (len(jumps), len(levels), len(digits), len(residues), len(orbit))
    assert built == _TABLES_BUILT[command, alpha]


def test_long_orbits_audit_on_a_fixed_prefix(monkeypatch):
    # 10 has order 742 mod the prime 743, so r and d are certified on a
    # cover of 1484 terms; the big-integer tables audit r_k and d_k for
    # k <= 400 only, which reads c_k to k = 402 and f_k to k = 401
    jumps = _count_calls(monkeypatch, "jump_positions", sequences)
    levels = _count_calls(monkeypatch, "f_counts", levelcounts)
    report = run_analyze({"alpha": "743/742", "base": 10, "window": 200})
    d_cert = report["verdicts"]["d_periodicity"]["mod_cycle"]
    assert (d_cert["modulus"], d_cert["period"]) == (743, 742)
    assert [args[1] for args in jumps] == [jumpdigits._AUDIT_PREFIX + 2]
    assert [args[1] for args in levels] == [jumpdigits._AUDIT_PREFIX + 1]


def test_language_reads_digits_without_walking_the_orbit(monkeypatch, capsys):
    # 123456789/7 in base 16 has an orbit past the cap (see
    # test_orbit_cap_refuses_long_orbits); words need no r verdict
    orbit = _count_calls(monkeypatch, "residue_orbit")
    code, out, err = run(capsys, "language", "--source", "rk", "--alpha",
                         "123456789/7", "--beta", "-5", "--base", "16")
    assert code == 0 and err == ""
    assert len(json.loads(out)["words"]) == 31
    assert orbit == []


def test_downstream_stages_reuse_the_r_verdict(monkeypatch):
    norm = normalize(FloorLogInstance(ExactReal.parse("7/5"), ExactReal(0), 10))
    tables = InstanceTables(norm, 1000, 400)
    assert tables.r_verdict.certified
    certify = _count_calls(monkeypatch, "certify_r")
    orbit = _count_calls(monkeypatch, "residue_orbit")
    _, _, d_verdict = decide_d_periodicity(tables, 60)
    language_verdict = decide_regularity(tables, 10)
    assert d_verdict.certified and language_verdict.kind == "Regular"
    assert certify == [] and orbit == []


def test_analyze_report_has_scenario_echo_and_normalization():
    report = run_analyze({"alpha": "1/3", "beta": "0", "base": "2"})
    assert report["scenario"]["alpha"] == "1/3"
    assert report["normalization"]["alpha"] != "1/3"  # scaled into [1, base)
    assert report["version"]


def test_analyze_missing_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--base", "2")
    assert code == 1
    assert "alpha" in err


def test_integral_numbers_and_decimal_strings_still_read():
    assert cli._positive_int({"n": 3.0}, "n") == 3
    assert cli._positive_int({"n": "3"}, "n") == 3


REPO = pathlib.Path(__file__).resolve().parents[1]


def _readme_commands():
    """The floorlog lines of the README's command-line block."""
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("floorlog ")]


def test_readme_command_block_shows_every_subcommand():
    shown = {line.split()[1] for line in _readme_commands()}
    assert shown == {"seq", "rk", "digits", "language", "decide", "kernel", "fk", "dfa",
                     "analyze"}


def _readme_schema_names() -> set[str]:
    """Every name in the README's report schema block."""
    section = (REPO / "README.md").read_text().split("### Report schema", 1)[1]
    return set(re.findall(r"\w+", section.split("```\n", 2)[1]))


@pytest.mark.parametrize("kind, scenario", [
    ("Regular", {"alpha": "3/2", "base": 2}),
    ("NonRegular", {"alpha": "sqrt(2)", "base": 2}),
    ("Inconclusive", {"alpha": "1013/1000", "base": 10, "window": 200}),
])
def test_readme_report_schema_names_every_key(kind, scenario):
    report = run_analyze(scenario)
    verdicts = report["verdicts"]
    assert verdicts["language_regularity"]["kind"] == kind
    keys = set(report) | set(report["scenario"]) | set(report["normalization"])
    keys |= set(verdicts) | set(report["evidence"])
    for verdict in verdicts.values():
        keys |= set(verdict)
    keys |= set(verdicts["language_regularity"].get("evidence", {}))
    assert keys - _readme_schema_names() == set()


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: line.split()[1])
def test_readme_command_examples_run(monkeypatch, capsys, line):
    # paths in the examples are relative to the repository root
    monkeypatch.chdir(REPO)
    command, _, comment = line.partition("#")
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    value = re.match(r"\s*(\d+(?:,\d+)+)", comment)
    if value:
        assert out.strip() == value.group(1)



# ---------------------------------------------------------------------------
# argument files: @file tokens, one per line, read as if typed in place
# ---------------------------------------------------------------------------


EXAMPLE_ARGS = REPO / "scripts" / "example_analyze.args"

# per subcommand, fields that are all flags of that subcommand; beta -1/3
# puts a negative value on the line after its flag
_FIELDS = {
    "seq": {"alpha": "3/2", "beta": "-1/3", "base": 2, "start": 2, "stop": 9},
    "rk": {"alpha": "3/2", "beta": "-1/3", "base": 2, "kmax": 10},
    "digits": {"alpha": "1+sqrt(2)", "base": 10, "count": 12},
    "language": {"source": "periodic", "preperiod": "21", "period": "102",
                 "base": 3, "nmax": 8},
    "decide": {"source": "tm-blocks", "block_a": "10", "block_b": "02",
               "base": 3, "window": 200},
    "kernel": {"alpha": "1", "base": 2, "depth": 5, "prefix_len": 32},
    "fk": {"alpha": "3/2", "beta": "-1/3", "base": 2, "kmax": 30},
    "dfa": {"alpha": "7/5", "base": 10, "window": 500},
}


def _as_flags(fields):
    names = {"start": "--from", "stop": "--to"}
    argv = []
    for key, value in fields.items():
        argv += [names.get(key, "--" + key.replace("_", "-")), str(value)]
    return argv


@pytest.fixture
def frozen_clock(monkeypatch):
    # analyze's timings are the only clock readings in any stdout
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))


@pytest.mark.parametrize("command", sorted([*_FIELDS, "analyze"]))
def test_flags_and_argument_file_print_the_same_bytes(tmp_path, capsys,
                                                      frozen_clock, command):
    # analyze reads the example file the README points to
    path = EXAMPLE_ARGS
    if command in _FIELDS:
        path = tmp_path / "args"
        path.write_text("\n".join(_as_flags(_FIELDS[command])) + "\n")
    by_flags = run(capsys, command, *path.read_text().splitlines())
    by_file = run(capsys, command, f"@{path}")
    assert by_flags[0] == 0 and by_flags[1]
    assert by_flags == by_file


def test_argument_file_supplies_fields(tmp_path, capsys):
    path = tmp_path / "args"
    path.write_text("--alpha\n3/2\n--beta\n0\n--base\n2\n")
    code, out, _ = run(capsys, "analyze", f"@{path}")
    assert code == 0
    assert json.loads(out)["scenario"]["alpha"] == "3/2"


def test_argument_file_works_for_subcommands_too(tmp_path, capsys):
    path = tmp_path / "args"
    path.write_text("--alpha\n1\n--beta\n0\n--base\n2\n")
    code, out, _ = run(capsys, "seq", f"@{path}", "--from", "1", "--to", "4")
    assert code == 0
    assert out.strip() == "0,1,1,2"


def test_a_later_flag_wins_over_an_argument_file(tmp_path, capsys):
    path = tmp_path / "args"
    path.write_text("--alpha\n3/2\n--base\n2\n")
    code, out, _ = run(capsys, "analyze", f"@{path}", "--alpha", "sqrt(2)")
    assert code == 0
    report = json.loads(out)
    assert report["scenario"]["alpha"] == "sqrt(2)"
    assert report["verdicts"]["sequence_regularity"]["b_regular"] is False
    code, out, _ = run(capsys, "analyze", "--alpha", "sqrt(2)", f"@{path}")
    assert code == 0 and json.loads(out)["scenario"]["alpha"] == "3/2"


def test_null_beta_counts_as_unset(capsys, frozen_clock):
    # an omitted flag reaches its handler as None, as run_analyze's null does
    omitted = run(capsys, "analyze", "--alpha", "3/2", "--base", "2")
    assert omitted[0] == 0
    assert json.loads(omitted[1])["scenario"]["beta"] == "0"
    assert omitted == run(capsys, "analyze", "--alpha", "3/2", "--beta", "0", "--base", "2")
    assert run_analyze({"alpha": "3/2", "beta": None, "base": 2})["scenario"]["beta"] == "0"


@pytest.mark.parametrize("command", ["decide", "dfa", "analyze"])
def test_null_window_takes_the_default(capsys, frozen_clock, command):
    omitted = run(capsys, command, "--alpha", "3/2", "--base", "2")
    assert omitted[0] == 0
    assert omitted == run(capsys, command, "--alpha", "3/2", "--base", "2",
                          "--window", str(cli.DEFAULT_WINDOW))
