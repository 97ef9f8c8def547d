#!/usr/bin/env python3
"""The floorlog benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

A single process and a single thread drive a closed loop: one client
issues the next operation only after the previous one returned, and
checks each output against an independent route outside the timed
region.  Inputs come from the seed alone (see workloads.py).

--trace 0 measures the end-to-end metrics.  --trace 1 spends the first
half of the time untraced and the second half on the same inputs with
spans around the library's public functions (see tracer.py), prints the
per-layer metrics and the tracing overhead, and writes the spans to
.perfbench/trace-<workload>-<seed>.jsonl.

Times are reported in reference seconds.  A shared 2-CPU x86 box was
seen switching between a fast and a slow mode every few seconds, 1.6x
apart, which moved raw wall-clock figures by 10-12% between runs.  So each operation is bracketed by a fixed calibration
kernel, and its wall time is scaled by REFERENCE_S over the kernel's
mean time around it: the figure the operation would show at the speed
where the kernel takes REFERENCE_S.  The floorlog code under test never
runs inside the kernel, so a change to it moves the scaled figures as it
moves the raw ones.  Raw wall-clock figures are printed alongside.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import PER_LAYER, Tracer
from workloads import DECIDED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("exact", "numeration", "sequences", "jumpdigits", "levelcounts",
           "language", "automata", "battery", "cli")
SETUP_REPEATS = 7
CAL_STEPS = 500  # 7-11 ms of the calibration kernel on a 2-CPU x86 box
REFERENCE_S = 0.008
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("decided_share", "share"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Sample:
    latency: float  # reference seconds
    wall: float
    error: str | None = None
    decision: str | None = None
    digits: int = 0


def calibration() -> float:
    """Wall time of a fixed kernel of big-integer and interpreter work.

    Half of it is allocation-heavy big-integer arithmetic, half is
    rendering integers into digit tuples; of the kernels tried (small-int
    loops, one big division, Fraction chains) this mix tracked floorlog's
    own slowdowns best.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    kept = []
    for _ in range(CAL_STEPS):
        a, b = rng.getrandbits(1500), rng.getrandbits(700) | 1
        kept.append((*divmod(a, b), a * b))
    kept.sort()
    words, value = [], 0
    for i in range(CAL_STEPS):
        value = value * 3 + i % 5
        word, m = [], value
        while m and len(word) < 40:
            m, d = divmod(m, 3)
            word.append(d)
        words.append(tuple(word))
    words.sort()
    return time.perf_counter() - t0


def fresh_import() -> SimpleNamespace:
    """Import floorlog from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "floorlog" or n.startswith("floorlog.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"floorlog.{m}") for m in MODULES})


def set_up(workload, seed: int):
    """Median time of importing floorlog and generating the inputs."""
    times = []
    before = calibration()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fl = fresh_import()
        ops = workload.generate(seed, fl)
        wall = time.perf_counter() - t0
        after = calibration()
        times.append(wall * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(times), fl, ops


def measure(workload, ops, fl, seconds: float, tracer: Tracer | None = None) -> list[Sample]:
    """Run operations back to back until the time is up (at least one)."""
    samples = []
    deadline = time.perf_counter() + seconds
    before = calibration()
    i = 0
    while True:
        op = ops[i % len(ops)]
        scope = tracer.operation(i) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = workload.run(op, fl)
            error = None
        except Exception as exc:  # a failed operation is counted, and the run goes on
            error = exc
        wall = time.perf_counter() - t0
        after = calibration()
        sample = Sample(wall * 2 * REFERENCE_S / (before + after), wall)
        before = after
        if error is None:
            try:
                outcome = workload.check(op, out, fl)
                sample.decision, sample.digits = outcome.decision, outcome.digits
            except Exception as exc:  # so is one whose output fails its check
                error = exc
        if error is not None:
            sample.error = f"{type(error).__name__}: {error}"
            print(f"FAILED op {i} ({op.stratum} {op.args}): {sample.error}", file=sys.stderr)
            traceback.print_exception(error, limit=3, file=sys.stderr)
        samples.append(sample)
        i += 1
        if time.perf_counter() >= deadline:
            return samples


def end_to_end(samples: list[Sample], setup_s: float, size: int) -> tuple[dict, dict]:
    """The gated metrics, and the extra figures printed for people.

    Shares count whole passes only (all samples when not even one pass
    is whole), so they do not move with where the clock cut the run.
    """
    lat = sorted(s.latency for s in samples)
    n = len(lat)
    tail_at = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    busy = sum(lat)
    whole = samples[: n // size * size] or samples
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / busy,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[tail_at],
        "decided_share": sum(s.decision in DECIDED for s in whole) / len(whole),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    digits = sum(s.digits for s in samples)
    extra = {
        "latency_tail_percentile": 100 * (tail_at + 1) / n,
        "samples": n,
        "failed_share": sum(s.error is not None for s in samples) / n,
        "undecided_share": sum(s.decision == "Inconclusive" for s in whole) / len(whole),
        "digits_per_s": digits / busy if digits else None,
        "wall_ops_per_s": n / sum(s.wall for s in samples),
        "wall_latency_p50_s": statistics.median(s.wall for s in samples),
    }
    return metrics, extra


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401  (exact.py switches integer backend on it)
        gmpy2_ok = True
    except ImportError:
        gmpy2_ok = False
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "gmpy2": gmpy2_ok}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "floorlog" / "__init__.py").is_file():
        print(f"perfbench: no floorlog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    setup_s, fl, ops = set_up(workload, args.seed)
    size = sum(op.pass_index == 0 for op in ops)

    if args.trace == 0:
        samples = measure(workload, ops, fl, args.seconds)
        values, extra = end_to_end(samples, setup_s, size)
        units = dict(END_TO_END)
        print(f"tail percentile p{extra['latency_tail_percentile']:.1f} "
              f"of {extra['samples']} samples")
        print(f"wall-clock ops_per_s {extra['wall_ops_per_s']:.4f} 1/s, "
              f"latency_p50_s {extra['wall_latency_p50_s']:.4f} s (not scaled)")
        print(f"failed_share {extra['failed_share']:.4f} share")
        print(f"undecided_share {extra['undecided_share']:.4f} share")
        if extra["digits_per_s"] is not None:
            print(f"digits_per_s {extra['digits_per_s']:.1f} 1/s")
    else:
        half = args.seconds / 2
        plain = measure(workload, ops, fl, half)
        tracer = Tracer()
        tracer.install(fl)
        try:
            traced = measure(workload, ops, fl, half, tracer)
        finally:
            tracer.uninstall()
        samples = plain + traced
        values = tracer.layer_metrics([s.latency / s.wall for s in traced])
        untraced_rate = len(plain) / sum(s.latency for s in plain)
        traced_rate = len(traced) / sum(s.latency for s in traced)
        values["trace.ops_per_s"] = traced_rate
        values["trace.untraced_ops_per_s"] = untraced_rate
        values["trace.slowdown"] = untraced_rate / traced_rate
        units = {name: unit for name, unit, _ in PER_LAYER}
        path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env,
                            "ops": len(traced)})
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        print(f"tracing overhead: {traced_rate:.3f} ops/s traced against "
              f"{untraced_rate:.3f} untraced")

    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    failed = sum(s.error is not None for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
