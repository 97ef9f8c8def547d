#!/usr/bin/env python3
"""Time the full pipeline on rational slopes with longer and longer orbits.

Runs run_analyze at CLI defaults (window 1000, kmax 200, beta 0, base 10)
on 7/5, 1009/1000, 10007/10000 and 100003/100000, whose orbits of 10 mod
the numerator have periods 6, 252, 10006 and 50001, and prints one line
per slope: the wall time of the call, each stage's timings, the language
verdict, the number of DFA states (None unless Regular) and the peak
resident set size of the process so far, ru_maxrss from
resource.getrusage (Linux counts it in KiB), so the last line shows the
memory the largest cover needed.
"""

import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floorlog.cli import run_analyze

PROBES = ("7/5", "1009/1000", "10007/10000", "100003/100000")


def main() -> int:
    width = max(len(alpha) for alpha in PROBES)
    for alpha in PROBES:
        t0 = time.perf_counter()
        report = run_analyze({"alpha": alpha, "base": 10})
        wall = time.perf_counter() - t0
        stages = "  ".join(f"{stage} {s:.3f}" for stage, s in report["timings"].items())
        lang = report["verdicts"]["language_regularity"]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{alpha:<{width}}  wall {wall:.3f} s  ({stages})  "
            f"language={lang['kind']}  dfa_states={lang['dfa_states']}  "
            f"peak_rss {peak:.1f} MB"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
