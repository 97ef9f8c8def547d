#!/usr/bin/env python3
"""Run the full analysis pipeline over every battery instance.

Prints one summary line per instance, then one line on stderr with each
stage's timings summed over the battery; --json DIR additionally writes
the complete report of each run to DIR/<name>.json.  --kmax trims or extends
the digit range fed to each stage; it and --window default as in the CLI.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from floorlog.battery import BATTERY
from floorlog.cli import DEFAULT_KMAX, DEFAULT_WINDOW, run_analyze


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=DEFAULT_KMAX)
    ap.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    ap.add_argument("--json", metavar="DIR", help="also dump one report per instance")
    args = ap.parse_args()

    out_dir = None
    if args.json:
        out_dir = pathlib.Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)

    width = max(len(inst.label()) for inst in BATTERY)
    stages = ("normalize", "r_periodicity", "language", "kernel", "level_counts")
    spent = dict.fromkeys(stages, 0.0)
    for inst in BATTERY:
        report = run_analyze(
            {
                "alpha": inst.alpha_text,
                "beta": inst.beta_text,
                "base": inst.base,
                "kmax": args.kmax,
                "window": args.window,
            }
        )
        for stage in stages:
            spent[stage] += report["timings"][stage]
        verdicts = report["verdicts"]
        r_v = verdicts["r_periodicity"]
        lang = verdicts["language_regularity"]
        if r_v["kind"] == "Periodic":
            r_text = f"Periodic({r_v['preperiod']},{r_v['period']})"
        else:
            r_text = r_v["kind"]
        regular = verdicts["sequence_regularity"]["b_regular"]
        dfa = f" dfa={lang['dfa_states']}" if lang.get("dfa_states") else ""
        print(
            f"{inst.name}  {inst.label():<{width}}  "
            f"regular={str(regular):<5}  r={r_text:<22} L={lang['kind']}{dfa}"
        )
        if out_dir is not None:
            path = out_dir / f"{inst.name}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    totals = ", ".join(f"{stage} {spent[stage]:.4f} s" for stage in stages)
    print(
        f"timings summed over {len(BATTERY)} reports: {totals}, "
        f"total {sum(spent.values()):.4f} s",
        file=sys.stderr,
    )
    if out_dir is not None:
        print(f"reports written to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
