#!/usr/bin/env python3
"""Time the three exact surd tables along the surd-depth axis.

For sqrt(2) in bases 2 and 10, 1+sqrt(3) in base 3, the golden ratio
1/2+1/2*sqrt(5) in base 10 with offset 2/7*sqrt(5), and sqrt(2) in
base 4096, the largest base the CLI accepts, and for each depth
k (default 1000 and 10000; pass others as arguments), prints one line
with the wall time of r_stream(norm, k), jump_positions(norm, k + 1) and
classify_range(norm, k), and the tracemalloc peak of jump_positions,
taken from a second call that is not timed.  The first two give the
same r_1..r_k by independent routes, and the line says so.

    python3 scripts/surd_probes.py [k ...]
"""

import pathlib
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floorlog.exact import ExactReal
from floorlog.jumpdigits import classify_range, r_from_jumps, r_stream
from floorlog.sequences import FloorLogInstance, jump_positions, normalize

PROBES = (
    ("sqrt(2)", "0", 2),
    ("sqrt(2)", "0", 10),
    ("1+sqrt(3)", "0", 3),
    ("1/2+1/2*sqrt(5)", "2/7*sqrt(5)", 10),
    ("sqrt(2)", "0", 4096),
)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _peak_mb(fn, *args) -> float:
    """The tracemalloc peak of one call of fn, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 10**6
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    depths = [int(arg) for arg in argv] or [10**3, 10**4]
    labels = [f"{alpha} b{base}" + ("" if beta == "0" else f" beta {beta}")
              for alpha, beta, base in PROBES]
    width = max(len(label) for label in labels)
    for (alpha, beta, base), label in zip(PROBES, labels):
        norm = normalize(FloorLogInstance(ExactReal.parse(alpha), ExactReal.parse(beta), base))
        for k in depths:
            stream, t_stream = _timed(r_stream, norm, k)
            jumps, t_jumps = _timed(jump_positions, norm, k + 1)
            peak = _peak_mb(jump_positions, norm, k + 1)
            _, t_classify = _timed(classify_range, norm, k)
            agree = "agree" if r_from_jumps(jumps, base) == stream else "DISAGREE"
            print(
                f"{label:<{width}}  k={k:<6}  r_stream {t_stream:.3f} s  "
                f"jump_positions {t_jumps:.3f} s {peak:.1f} MB  "
                f"classify_range {t_classify:.3f} s  routes {agree}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
