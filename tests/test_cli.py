"""Command-line behaviour: exit codes, payload shapes, determinism."""

import hashlib
import json
import pathlib
import sys
import time
import types

import pytest

from floorlog import cli, jumpdigits
from floorlog.battery import BATTERY
from floorlog.cli import main, run_analyze
from floorlog.exact import ExactReal
from floorlog.jumpdigits import PeriodicityVerdict, detect_period
from floorlog.language import RkDigitSource, decide_regularity
from floorlog.levelcounts import decide_d_periodicity
from floorlog.sequences import FloorLogInstance, normalize


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
    ["analyze"], ["rk"], ["fk"], ["kernel"], ["dfa"], ["digits"],
    ["decide", "--source", "rk"], ["language", "--source", "rk"],
], ids=lambda argv: " ".join(argv))
def test_mixed_radicands_are_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, *_MIXED_RADICANDS)
    assert code == 1 and out == ""
    assert err == (
        "floorlog: error: alpha and beta must share one radicand, "
        "got sqrt(2) and sqrt(3)\n"
    )


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


@pytest.mark.parametrize("command, source", sorted(_STREAM_STDOUT_SHA256))
def test_stream_command_output_is_pinned(capsys, command, source):
    code, out, _ = run(capsys, command, "--source", source, *_SOURCE_FLAGS[source])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _STREAM_STDOUT_SHA256[command, source]


_DFA_FLAGS = {
    "3/2": ["--alpha", "3/2", "--base", "2"],
    "7/5+1/3": ["--alpha", "7/5", "--beta", "1/3", "--base", "10"],
}
_DFA_STDOUT_SHA256 = {
    ("3/2", ()): "fe0bed0c7dffec02d6f9e5c1011e177885fe8328830a5ef7174e2c30e0d40c8a",
    ("3/2", ("--dot",)): "585c55dc775818d399a29bdd13c3fcb6f7cf5d357bcd9fbdd40b70d962473deb",
    ("7/5+1/3", ()): "81fa1c5fdcc31e4f9e2350f3452f4c40745c2092aa4ece3739163585a6102831",
    ("7/5+1/3", ("--dot",)): "11c592b6404c540e656794642231452279398c3eacf34cb5faf0b69835f969b3",
}


@pytest.mark.parametrize("instance, extra", sorted(_DFA_STDOUT_SHA256))
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


def test_bad_flag_value_exits_one(capsys):
    # argparse's own failures must come back as 1, not its default 2
    with pytest.raises(SystemExit) as exc:
        main(["rk", "--alpha", "1", "--base", "2", "--kmax", "ten"])
    assert exc.value.code == 1


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
    poisoned = PeriodicityVerdict.periodic(0, 2, None)
    monkeypatch.setattr(cli, "detect_period", lambda norm, window: poisoned)
    code, _, err = run(capsys, "analyze", "--alpha", "sqrt(2)",
                       "--beta", "0", "--base", "2")
    assert code == 2
    assert "consistency" in err


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
# analyze: reports, determinism, scenario files
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


def _count_calls(monkeypatch, name):
    """Count calls of jumpdigits.<name> through every module that holds it."""
    real = getattr(jumpdigits, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("floorlog") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_proves_r_periodicity_once(monkeypatch):
    detect = _count_calls(monkeypatch, "detect_period")
    orbit = _count_calls(monkeypatch, "residue_orbit")
    report = run_analyze({"alpha": "7/5", "base": 10})
    assert report["verdicts"]["language_regularity"]["kind"] == "Regular"
    assert report["verdicts"]["d_periodicity"]["certified"]
    assert (len(detect), len(orbit)) == (1, 1)


def test_downstream_stages_reuse_the_r_verdict(monkeypatch):
    norm = normalize(FloorLogInstance(ExactReal.parse("7/5"), ExactReal(0), 10))
    r_verdict = detect_period(norm, 1000)
    detect = _count_calls(monkeypatch, "detect_period")
    orbit = _count_calls(monkeypatch, "residue_orbit")
    d_verdict = decide_d_periodicity(norm, 400, r_verdict)
    language_verdict = decide_regularity(RkDigitSource(norm, r_verdict), 10)
    assert d_verdict.certified and language_verdict.kind == "Regular"
    assert detect == [] and orbit == []


def test_analyze_report_has_scenario_echo_and_normalization():
    report = run_analyze({"alpha": "1/3", "beta": "0", "base": "2"})
    assert report["scenario"]["alpha"] == "1/3"
    assert report["normalization"]["alpha"] != "1/3"  # scaled into [1, base)
    assert report["version"]


def test_analyze_missing_alpha_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--base", "2")
    assert code == 1
    assert "alpha" in err


def test_scenario_file_supplies_fields(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"alpha": "3/2", "beta": "0", "base": 2}))
    code, out, _ = run(capsys, "analyze", "--scenario", str(path))
    assert code == 0
    assert json.loads(out)["scenario"]["alpha"] == "3/2"


def test_flags_beat_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"alpha": "3/2", "beta": "0", "base": 2}))
    code, out, _ = run(capsys, "analyze", "--scenario", str(path),
                       "--alpha", "sqrt(2)")
    assert code == 0
    report = json.loads(out)
    assert report["scenario"]["alpha"] == "sqrt(2)"
    assert report["verdicts"]["sequence_regularity"]["b_regular"] is False


def test_scenario_file_works_for_subcommands_too(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"alpha": "1", "beta": "0", "base": 2}))
    code, out, _ = run(capsys, "seq", "--scenario", str(path),
                       "--from", "1", "--to", "4")
    assert code == 0
    assert out.strip() == "0,1,1,2"


def test_scenario_file_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "analyze", "--scenario", str(path))
    assert code == 1
    assert "object" in err


def test_batch_runs_all_scenarios(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([
        {"alpha": "3/2", "beta": "0", "base": 2},
        {"alpha": "sqrt(2)", "beta": "0", "base": 2},
    ]))
    code, out, _ = run(capsys, "analyze", "--batch", str(path))
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    assert reports[0]["verdicts"]["sequence_regularity"]["b_regular"] is True
    assert reports[1]["verdicts"]["sequence_regularity"]["b_regular"] is False


def test_batch_file_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"alpha": "3/2"}))
    code, _, err = run(capsys, "analyze", "--batch", str(path))
    assert code == 1
    assert "array" in err



# ---------------------------------------------------------------------------
# one scenario path: flags, scenario files and batch entries resolve alike
# ---------------------------------------------------------------------------


EXAMPLE_SCENARIO = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "example_scenario.json"
)
_EXAMPLE = json.loads(EXAMPLE_SCENARIO.read_text())

# per subcommand, fields that are all flags of that subcommand; fk and
# analyze read theirs from the example file the README points to
_FIELDS = {
    "seq": {"alpha": "1", "beta": "0", "base": 2, "start": 2, "stop": 9},
    "rk": {"alpha": "3/2", "base": 2, "kmax": 10},
    "digits": {"alpha": "1+sqrt(2)", "base": 10, "count": 12},
    "language": {"source": "periodic", "preperiod": "21", "period": "102",
                 "base": 3, "nmax": 8},
    "decide": {"source": "tm-blocks", "block_a": "10", "block_b": "02",
               "base": 3, "window": 200},
    "kernel": {"alpha": "1", "base": 2, "depth": 5, "prefix_len": 32},
    "fk": {key: _EXAMPLE[key] for key in ("alpha", "beta", "base", "kmax")},
    "dfa": {"alpha": "7/5", "base": 10, "window": 500},
    "analyze": _EXAMPLE,
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


@pytest.mark.parametrize("command", sorted(_FIELDS))
def test_flags_and_scenario_file_print_the_same_bytes(tmp_path, capsys,
                                                      frozen_clock, command):
    fields = _FIELDS[command]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(fields))
    if command in ("fk", "analyze"):
        path = EXAMPLE_SCENARIO
    by_flags = run(capsys, command, *_as_flags(fields))
    by_file = run(capsys, command, "--scenario", str(path))
    assert by_flags[0] == 0 and by_flags[1]
    assert by_flags == by_file


def test_flags_win_over_batch_entries(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([
        {"alpha": "3/2", "base": 2, "window": 300},
        {"alpha": "sqrt(2)", "base": 2, "kmax": 40},
    ]))
    code, out, _ = run(capsys, "analyze", "--batch", str(path),
                       "--window", "50", "--kmax", "7", "--alpha", "5/3")
    assert code == 0
    echoes = [report["scenario"] for report in json.loads(out)]
    assert [(e["alpha"], e["window"], e["kmax"]) for e in echoes] == [
        ("5/3", 50, 7), ("5/3", 50, 7)
    ]


def test_batch_entries_take_the_scenario_file_place(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"beta": "1/3", "base": 3, "kmax": 30}))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([
        {"alpha": "3/2"},
        {"alpha": "5/3", "beta": "0", "base": None},
    ]))
    code, out, _ = run(capsys, "analyze", "--scenario", str(scenario),
                       "--batch", str(batch), "--kmax", "20")
    assert code == 0
    echoes = [report["scenario"] for report in json.loads(out)]
    assert [(e["alpha"], e["beta"], e["base"], e["kmax"]) for e in echoes] == [
        ("3/2", "1/3", 3, 20), ("5/3", "0", 3, 20)
    ]


def test_null_beta_counts_as_unset(tmp_path, capsys, frozen_clock):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"alpha": "3/2", "base": 2, "beta": None}))
    with_null = run(capsys, "analyze", "--scenario", str(path))
    assert with_null[0] == 0
    assert json.loads(with_null[1])["scenario"]["beta"] == "0"
    assert with_null == run(capsys, "analyze", "--alpha", "3/2", "--base", "2")


@pytest.mark.parametrize("command", ["decide", "dfa", "analyze"])
def test_null_window_takes_the_default(tmp_path, capsys, frozen_clock, command):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"alpha": "3/2", "base": 2, "window": None}))
    with_null = run(capsys, command, "--scenario", str(path))
    assert with_null[0] == 0
    assert with_null == run(capsys, command, "--alpha", "3/2", "--base", "2",
                            "--window", str(cli.DEFAULT_WINDOW))
