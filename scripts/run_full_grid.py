#!/usr/bin/env python3
"""Run the full verification grid and print a per-suite summary, the run's
wall time and its peak resident memory.

Usage:
    python3 scripts/run_full_grid.py [--out report.json] [--jobs N]

The wall time covers ``bosonhopf run`` in this process, not the
interpreter's start-up.  The peak RSS is this process's; unless ``--jobs``
is 1, the largest worker's is printed beside it.
"""

import argparse
import collections
import json
import pathlib
import resource
import sys
import time

from bosonhopf.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="report.json")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--config", default=str(HERE / "full_grid.ini"))
    args = ap.parse_args()

    argv = ["run", "--config", args.config, "--out", args.out]
    if args.jobs:
        argv += ["--jobs", str(args.jobs)]
    start = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - start
    # read before the report is loaded below; ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    note = ""
    if args.jobs != 1:
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        note = f" (largest worker {workers:.1f} MB)"

    doc = json.loads(pathlib.Path(args.out).read_text())
    table = collections.Counter()
    for row in doc["reports"]:
        status = ("skip" if row["skipped"]
                  else "pass" if row["passed"] else "FAIL")
        table[(row["suite"], status)] += 1
    suites = sorted({suite for suite, _ in table})
    print(f"{'suite':<12} {'pass':>6} {'FAIL':>6} {'skip':>6}")
    for suite in suites:
        print(f"{suite:<12} {table[(suite, 'pass')]:>6} "
              f"{table[(suite, 'FAIL')]:>6} {table[(suite, 'skip')]:>6}")
    print(f"wall time {wall:.2f} s, peak RSS {peak:.1f} MB{note}")
    return code


if __name__ == "__main__":
    sys.exit(main())
