#!/usr/bin/env python3
"""Run the whole pipeline on every rational slope of a grid.

For every alpha = p/q in lowest terms with 1 <= p <= --pmax and
1 <= q <= --qmax, every base in --bases and every beta in --betas, runs
run_analyze at CLI defaults, except kernel depth 1 and kernel prefix 1,
and prints one JSON line per instance: the slope, the certified stream
preperiod and period, the DFA states, the exception count, the d period
and the kinds of the r, language and d verdicts.  The last line is
"sha256 <hex>", the digest of all the instance lines with their
newlines, so two runs of the same grid can be compared for byte
identity.  stderr gets the spread of dfa_states - (preperiod + period),
which no law fixes yet, as a count per value.

The defaults are the census of 14,896 analyses that the ROADMAP quotes:
q <= 25, p <= 59, bases 2, 3, 5 and 10, beta in {0, 1/2, -1/3, 7/5}.
"""

import argparse
import hashlib
import json
import math
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floorlog.cli import run_analyze


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def census_line(alpha: str, beta: str, base: int) -> dict:
    """The census record of one instance, read off its run_analyze report."""
    report = run_analyze(
        {"alpha": alpha, "beta": beta, "base": base, "kernel_depth": 1, "kernel_prefix": 1}
    )
    verdicts = report["verdicts"]
    lang = verdicts["language_regularity"]
    stream = lang["certificate"] or {}
    return {
        "alpha": alpha,
        "beta": beta,
        "base": base,
        "stream_preperiod": stream.get("preperiod"),
        "stream_period": stream.get("period"),
        "dfa_states": lang["dfa_states"],
        "exceptions": len(lang["exceptions"]),
        "d_period": verdicts["d_periodicity"].get("period"),
        "kinds": [
            verdicts["r_periodicity"]["kind"],
            lang["kind"],
            verdicts["d_periodicity"]["kind"],
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmax", type=int, default=25)
    ap.add_argument("--pmax", type=int, default=59)
    ap.add_argument("--bases", type=_ints, default=[2, 3, 5, 10],
                    help="comma-separated bases, default 2,3,5,10")
    ap.add_argument("--betas", type=lambda text: text.split(","),
                    default=["0", "1/2", "-1/3", "7/5"],
                    help="comma-separated offsets, default 0,1/2,-1/3,7/5")
    args = ap.parse_args()

    digest = hashlib.sha256()
    spread = Counter()
    for q in range(1, args.qmax + 1):
        for p in range(1, args.pmax + 1):
            if math.gcd(p, q) != 1:
                continue
            for base in args.bases:
                for beta in args.betas:
                    line = census_line(f"{p}/{q}", beta, base)
                    text = json.dumps(line, sort_keys=True) + "\n"
                    sys.stdout.write(text)
                    digest.update(text.encode())
                    if line["dfa_states"] is not None:
                        cycle = line["stream_preperiod"] + line["stream_period"]
                        spread[line["dfa_states"] - cycle] += 1
    print(f"sha256 {digest.hexdigest()}")
    excess = "  ".join(f"{k}: {n}" for k, n in sorted(spread.items()))
    print(f"dfa_states - (preperiod + period), count per value: {excess}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
