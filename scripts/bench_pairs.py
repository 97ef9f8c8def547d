#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload battery \\
        --seed 4242 --pairs 10 --seconds 30

Each checkout runs its own perfbench/run.py (--trace 0) in a fresh
interpreter, so each side measures its own src/.  Both sides must carry
byte-identical perfbench/ trees, or the comparison would measure the
benchmark's own change; the script refuses to run otherwise.  Pair i
runs the parent first when i is odd and the change first when i is
even, so a drift of host speed over the session does not favour one
side.  Before the first pair both checkouts' src/ trees are byte-compiled
with the standard library's compileall, so no run's setup_s includes
compiling floorlog, whatever __pycache__ state each tree starts in.

Prints one line per run with its end-to-end metrics, then per metric
each side's median and quartiles and the ratio of the change's median to
the parent's, and how many pairs the change won on ops_per_s (ties count
for neither side).  A metric that BENCHMARK.json (read from the change's
checkout, else the parent's) lists under end_to_end is flagged when its
ratio moved past the listed bound in the worse direction: above 1 + bound
for a metric that is better lower, below 1 - bound for one better higher.
"""

import argparse
import compileall
import json
import pathlib
import statistics
import subprocess
import sys


def tree_bytes(root: pathlib.Path) -> dict[str, bytes]:
    """Every file under root/perfbench by relative path, bytecode caches left out."""
    bench = root / "perfbench"
    if not (bench / "run.py").is_file():
        raise SystemExit(f"bench_pairs: no perfbench/run.py under {root}")
    return {
        str(path.relative_to(bench)): path.read_bytes()
        for path in sorted(bench.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def precompile(root: pathlib.Path) -> None:
    """Byte-compile root/src in place, quietly, for the interpreter the runs use."""
    if not compileall.compile_dir(root / "src", quiet=1):
        raise SystemExit(f"bench_pairs: could not byte-compile {root / 'src'}")


def run_once(root: pathlib.Path, args) -> dict:
    """One run of root's perfbench/run.py; the JSON object of its last line."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run in {root} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_bounds(sides: dict[str, pathlib.Path]) -> dict[str, dict]:
    """BENCHMARK.json's end_to_end entries by name, from the change's or the parent's checkout."""
    for side in ("change", "parent"):
        path = sides[side] / "BENCHMARK.json"
        if path.is_file():
            return {entry["name"]: entry for entry in json.loads(path.read_text())["end_to_end"]}
    return {}


def judge(parent: float, change: float, entry: dict | None) -> str:
    """The ratio change/parent, flagged when it moved past entry's bound the worse way."""
    if parent == 0:
        return "ratio n/a"
    ratio = change / parent
    text = f"ratio {ratio:.3f}"
    if entry is not None:
        bound = entry["bound"]
        worse = ratio > 1 + bound if entry["better"] == "lower" else ratio < 1 - bound
        if worse:
            text += f"  WORSE past its {bound:g} bound"
    return text


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if tree_bytes(sides["parent"]) != tree_bytes(sides["change"]):
        print("bench_pairs: the two perfbench/ trees differ; refusing to compare",
              file=sys.stderr)
        return 2
    for root in sides.values():
        precompile(root)

    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            runs[side].append(result)
            metrics = "  ".join(f"{name} {m['value']:.6g}"
                                for name, m in result["metrics"].items())
            print(f"pair {pair} {side:<6}  failed {result['failed']}/{result['attempted']}"
                  f"  {metrics}", flush=True)

    bounds = load_bounds(sides)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs: "
          "median [q1, q3], change/parent median")
    for name, metric in runs["parent"][0]["metrics"].items():
        cells, medians = [], []
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles([run["metrics"][name]["value"] for run in runs[side]])
            cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
            medians.append(q2)
        cells.append(judge(*medians, bounds.get(name)))
        print(f"{name} ({metric['unit']})  " + "  ".join(cells))
    pairs = list(zip(runs["parent"], runs["change"]))
    rates = [(p["metrics"]["ops_per_s"]["value"], c["metrics"]["ops_per_s"]["value"])
             for p, c in pairs]
    wins = sum(c > p for p, c in rates)
    ties = sum(c == p for p, c in rates)
    print(f"ops_per_s: the change won {wins} of {len(rates)} pairs ({ties} tied)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
