#!/usr/bin/env python3
"""Walk the two headline instances side by side.

alpha = 3/2 lands on the rational side of the dichotomy: the jump digits
cycle with period 2, certified modulo 3, and the word language collapses
to a 4-state machine.  alpha = sqrt(2) lands on the other side: the
digits reproduce the expansion of 1/sqrt(2) shifted one place, which
never becomes periodic, and the language cannot be regular.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floorlog.exact import ExactReal
from floorlog.jumpdigits import InstanceTables, r_stream
from floorlog.language import decide_regularity, words
from floorlog.numeration import digit_stream
from floorlog.sequences import FloorLogInstance, normalize, u_seq


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def show(alpha_text: str) -> None:
    norm = normalize(
        FloorLogInstance(ExactReal.parse(alpha_text), ExactReal(0), 2)
    )
    banner(f"alpha = {alpha_text}, beta = 0, base = 2")

    u = u_seq(norm, 16)
    print(f"u_1..u_16      {' '.join(str(v) for v in u.values)}")
    print(f"jump digits    {' '.join(str(r) for r in r_stream(norm, 24))} ...")

    inverse = ExactReal(1) / norm.alpha
    frac = inverse - inverse.__floor__()
    print(f"1/alpha digits {' '.join(str(d) for d in digit_stream(frac, 2, 24))} ...")

    tables = InstanceTables(norm, 1000)
    verdict = tables.r_verdict
    if verdict.kind == "Periodic":
        cert = verdict.certificate
        print(
            f"periodicity    Periodic({verdict.preperiod},{verdict.period}), "
            f"cycle {list(cert.cycle)} certified modulo {cert.modulus}"
        )
    else:
        print(f"periodicity    {verdict.kind}: {verdict.reason}")

    lang = decide_regularity(tables, 2)
    lw = words(tables, 2, 8, allow_zero_start=True)
    print(f"first words    {' '.join(lw.word_strs())}")
    if lang.kind == "Regular":
        shapes = ", ".join(p.describe() for p in lang.patterns)
        print(f"language       Regular: {shapes}")
        print(f"machine        {lang.dfa.num_states} states")
        print()
        print(lang.dfa.to_dot())
    else:
        print(f"language       {lang.kind}: {lang.certificate.reason}")


def main() -> int:
    show("3/2")
    show("sqrt(2)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
