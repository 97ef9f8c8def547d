"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import json
import pathlib
import re
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_process(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_script(name, *args):
    return run_process(name, *args).stdout


def test_run_battery_prints_one_line_per_instance():
    lines = run_script("run_battery.py").splitlines()
    assert len(lines) == 20
    assert [line.split()[0] for line in lines] == [f"i{i:02d}" for i in range(1, 21)]


def test_headline_demo_shows_both_sides_of_the_dichotomy():
    verdicts = [
        line.split()[1]
        for line in run_script("headline_demo.py").splitlines()
        if line.startswith("language ")
    ]
    assert verdicts == ["Regular:", "NonRegular:"]


def test_run_battery_sums_stage_timings_on_stderr():
    (line,) = run_process("run_battery.py").stderr.splitlines()
    assert line.startswith("timings summed over 20 reports: ")
    for stage in ("normalize", "r_periodicity", "language", "kernel", "level_counts", "total"):
        assert f" {stage} " in line


def test_rational_probes_print_one_line_per_slope():
    lines = run_script("rational_probes.py").splitlines()
    assert [line.split()[0] for line in lines] == [
        "7/5", "1009/1000", "10007/10000", "100003/100000"]
    verdicts = [word for line in lines for word in line.split() if word.startswith("language=")]
    assert verdicts == ["language=Regular", "language=Regular", "language=Inconclusive",
                        "language=Inconclusive"]
    assert "dfa_states=254" in lines[1].split()
    peaks = [float(line.split("peak_rss ")[1].removesuffix(" MB")) for line in lines]
    assert 0 < peaks[0] <= peaks[1] <= peaks[2] <= peaks[3]


# SHA-256 of the census slice below, taken before the rational
# certificates moved onto residues: the byte-identity corpus for the
# rational tables, next to the battery and rational-orbit report pins
_CENSUS_SLICE_SHA256 = "3979343cb91e4b4d9d392fd15b062bdd347b2fef10290a1dd056cbc44513c1b2"


def test_rational_census_slice_is_regular_and_pinned():
    lines = run_script("rational_census.py", "--qmax", "8", "--pmax", "20",
                       "--bases", "2,3", "--betas", "0,1/2").splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert len(records) == 420
    assert all(record["kinds"][1] == "Regular" for record in records)
    assert lines[-1] == f"sha256 {_CENSUS_SLICE_SHA256}"


def test_surd_probes_time_three_tables_per_depth():
    lines = run_script("surd_probes.py", "20", "100").splitlines()
    assert len(lines) == 10
    assert [line.split()[:2] for line in lines[::2]] == [
        ["sqrt(2)", "b2"], ["sqrt(2)", "b10"], ["1+sqrt(3)", "b3"], ["1/2+1/2*sqrt(5)", "b10"],
        ["sqrt(2)", "b4096"]]
    for line in lines:
        assert "r_stream" in line and "jump_positions" in line and "classify_range" in line
        assert re.search(r"jump_positions \d+\.\d{3} s \d+\.\d MB", line)
        assert line.endswith("routes agree")
    depths = [next(word for word in line.split() if word.startswith("k=")) for line in lines]
    assert depths == ["k=20", "k=100"] * 5


def test_bench_pairs_runs_one_pair_of_one_checkout():
    root = str(SCRIPTS.parent)
    lines = run_script("bench_pairs.py", root, root, "--workload", "battery",
                       "--seed", "1", "--pairs", "1", "--seconds", "0.2").splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [
        ["pair", "1", "parent"], ["pair", "1", "change"]]
    assert any(line.startswith("ops_per_s (1/s)  parent ") for line in lines)
    assert re.fullmatch(r"ops_per_s: the change won [01] of 1 pairs \([01] tied\)", lines[-1])


def test_bench_pairs_refuses_differing_benchmarks(tmp_path):
    for side, text in (("parent", "print(1)\n"), ("change", "print(2)\n")):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(text)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_pairs.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "battery", "--seed", "1",
         "--pairs", "1", "--seconds", "0.2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "perfbench/ trees differ" in proc.stderr


_FAKE_RUN = """\
import importlib.util, json, pathlib, sys
source = pathlib.Path(__file__).resolve().parent.parent / "src" / "pkg" / "mod.py"
if not pathlib.Path(importlib.util.cache_from_source(source)).is_file():
    sys.exit("src/pkg/mod.py has no bytecode")
print(json.dumps({"failed": 0, "attempted": 1,
                  "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}))
"""


def test_bench_pairs_compiles_both_sources_before_the_first_run(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
    lines = run_script("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "battery", "--seed", "1", "--pairs", "1",
                       "--seconds", "0.2").splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [
        ["pair", "1", "parent"], ["pair", "1", "change"]]
    assert lines[-1] == "ops_per_s: the change won 0 of 1 pairs (1 tied)"


_FAKE_RATES = """\
import json, pathlib
root = pathlib.Path(__file__).resolve().parent.parent
rate, latency, tail, share = json.loads((root / "values.json").read_text())
print(json.dumps({"failed": 0, "attempted": 1, "metrics": {
    "ops_per_s": {"value": rate, "unit": "1/s"},
    "latency_p50_s": {"value": latency, "unit": "s"},
    "latency_tail_s": {"value": tail, "unit": "s"},
    "decided_share": {"value": share, "unit": "share"},
    "unbounded": {"value": 5.0, "unit": "1"}}}))
"""


def test_bench_pairs_flags_metrics_past_their_bounds(tmp_path):
    """ops_per_s falls 30 % and latency_tail_s rises 30 % (bounds 25 %), and
    both are flagged; latency_p50_s falls 10 %, which is better;
    decided_share falls 1 % (bound 2 %); a metric that BENCHMARK.json does
    not list gets its ratio and no flag."""
    bench = {"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "latency_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "decided_share", "unit": "share", "better": "higher", "bound": 0.02}]}
    for side, values in (("parent", [100.0, 1.0, 1.0, 1.0]),
                         ("change", [70.0, 0.9, 1.3, 0.99])):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(_FAKE_RATES)
        (tmp_path / side / "values.json").write_text(json.dumps(values))
        (tmp_path / side / "src").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    lines = run_script("bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "battery", "--seed", "1", "--pairs", "1",
                       "--seconds", "0.2").splitlines()
    summary = {line.split()[0]: line for line in lines[3:-1]}
    assert summary["ops_per_s"].endswith("ratio 0.700  WORSE past its 0.25 bound")
    assert summary["latency_p50_s"].endswith("ratio 0.900")
    assert summary["latency_tail_s"].endswith("ratio 1.300  WORSE past its 0.25 bound")
    assert summary["decided_share"].endswith("ratio 0.990")
    assert summary["unbounded"].endswith("ratio 1.000")
    assert lines[-1] == "ops_per_s: the change won 0 of 1 pairs (0 tied)"
