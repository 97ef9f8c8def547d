"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, CheckFailure, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def fl():
    return run.fresh_import()


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {n for n, _ in run.END_TO_END}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_named_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _inputs(workload, seed, fl):
    return [(op.pass_index, op.stratum, op.args) for op in workload.generate(seed, fl)]


@pytest.mark.parametrize("workload", list(WORKLOADS.values()), ids=list(WORKLOADS))
def test_seed_fixes_the_inputs(workload, fl):
    assert _inputs(workload, 11, fl) == _inputs(workload, 11, fl)
    assert _inputs(workload, 11, fl) != _inputs(workload, 12, fl)


def test_battery_seed_only_shuffles(fl):
    rows = {(i.alpha_text, i.beta_text, i.base) for i in fl.battery.BATTERY}
    first_pass = [op for op in WORKLOADS["battery"].generate(5, fl) if op.pass_index == 0]
    assert sorted((op.args["alpha"], op.args["beta"], op.args["base"]) for op in first_pass) == sorted(rows)


def test_checker_flags_a_flipped_verdict(fl):
    battery = WORKLOADS["battery"]
    op = Op(0, "rational", {"alpha": "3/2", "beta": "0", "base": 2, "rational": True,
                            "spot_ks": [1, 5, 64, 100]})
    report = battery.run(op, fl)
    assert battery.check(op, report, fl).decision == "Regular"
    report["verdicts"]["sequence_regularity"]["b_regular"] = False
    with pytest.raises(CheckFailure, match="b_regular"):
        battery.check(op, report, fl)


def test_checker_flags_a_route_mismatch(fl):
    surd = WORKLOADS["surd-deep"]
    op = Op(0, "rung0", {"alpha": "sqrt(2)", "beta": "1/3", "base": 2, "k": 300,
                         "spot_ks": [1, 2, 77, 300]})
    out = surd.run(op, fl)
    assert surd.check(op, out, fl).digits == 300
    out["table"] = out["table"][:150] + [1 - out["table"][150]] + out["table"][151:]
    with pytest.raises(CheckFailure, match="first at k=151"):
        surd.check(op, out, fl)


def test_checker_flags_a_wrong_r_head(fl):
    battery = WORKLOADS["battery"]
    op = Op(0, "surd", {"alpha": "sqrt(2)", "beta": "0", "base": 2, "rational": False,
                        "spot_ks": [3, 40]})
    report = battery.run(op, fl)
    battery.check(op, report, fl)
    report["evidence"]["r_head"][39] ^= 1
    with pytest.raises(CheckFailure, match="r_direct"):
        battery.check(op, report, fl)


def test_failed_operations_count_and_the_run_goes_on(fl):
    synthetic = WORKLOADS["synthetic-streams"]
    ops = synthetic.generate(1, fl)[:3]
    ops = [dataclasses.replace(ops[0], args={**ops[0].args, "kind": "bogus"})] + ops[1:]
    samples = run.measure(synthetic, ops, fl, 0.5)
    assert len(samples) >= 2
    assert samples[0].error is not None
    assert samples[1].error is None and samples[1].decision is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout
