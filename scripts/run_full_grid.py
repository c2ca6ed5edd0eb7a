#!/usr/bin/env python3
"""Run the full verification grid and print a per-suite summary, the run's
wall time and its peak resident memory.

Usage:
    python3 scripts/run_full_grid.py [--out report.json] [--jobs N] [--config FILE]

The grid runs in a child ``bosonhopf run`` process (``python -m
bosonhopf.cli``, with this checkout's ``src`` first on its path), so what
this script does cannot move the figures.  The wall time covers that
process from start to exit, the interpreter's start-up included.  The peak
RSS is the largest of that process and its workers (``RUSAGE_CHILDREN``).
"""

import argparse
import collections
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="report.json")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--config", default=str(HERE / "full_grid.ini"))
    args = ap.parse_args()

    argv = ["run", "--config", args.config, "--out", args.out]
    if args.jobs:
        argv += ["--jobs", str(args.jobs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "bosonhopf.cli", *argv], env=env).returncode
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux: the largest child or worker this far
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if code not in (0, 1):   # 1: the run finished with failed rows
        return code

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
    print(f"wall time {wall:.2f} s, peak RSS {peak:.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main())
