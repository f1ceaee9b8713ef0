#!/usr/bin/env python3
"""Check that the workload seed changes only the order of the work.

Runs the benchmark once per seed (one pass each) and compares what the
searches produced: every search's result row (configurations tested,
replaced static and dynamic share, final verdict) and the run's quality
metrics must be identical across seeds, so that a claim made on one
seed can be re-checked on an unseen one.  Exits 1 on any difference.

Usage, from the repository root::

    python3 perfbench/seedcheck.py --workload suite-serial --seeds 1 2
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUALITY = ("replaced_static_pct", "replaced_dynamic_pct", "final_pass_frac")


def summary(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    with open(ROOT / ".perfbench" / f"summary-{workload}-{seed}.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    first, *others = (summary(args.workload, s) for s in args.seeds)
    same = True
    for other in others:
        if other["fingerprint"] != first["fingerprint"]:
            print(f"seed {other['seed']}: search rows differ from seed "
                  f"{first['seed']}")
            same = False
        for metric in QUALITY:
            a, b = first["end_to_end"][metric], other["end_to_end"][metric]
            if a != b:
                print(f"seed {other['seed']}: {metric} {b} != {a}")
                same = False
    verdict = "identical" if same else "DIFFERENT"
    print(f"{args.workload}: seeds {args.seeds}: config counts and quality "
          f"{verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
