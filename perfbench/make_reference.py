#!/usr/bin/env python3
"""Write reference/<workload>.json: the fingerprint of every admissible point.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's full pools (every point any seed can draw) through
``bosonhopf run --jobs 1`` with the benchmark's environment, refuses to write
a reference if any check fails or is skipped, and stores the check rows by
job together with the default seed's fingerprint hash.  Rerun it only when a
change is meant to alter verdicts or residuals, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run
import workloads


def make(name: str) -> dict:
    work = run.WORK / f"reference-{name}"
    work.mkdir(parents=True, exist_ok=True)
    pools = workloads.pool_scenarios(name)
    config = work / "config.ini"
    config.write_text(workloads.to_ini(pools))
    report_path = work / "report.json"
    code, wall, _ = run.run_process(
        [sys.executable, "-m", "bosonhopf.cli", "run", "--config", str(config),
         "--jobs", "1", "--out", str(report_path)],
        time.monotonic() + 3600.0, work / "stderr.txt")
    report = json.loads(report_path.read_text())
    bad = [r for r in report["reports"] if r["skipped"] or not r["passed"]]
    if code != 0 or bad:
        for r in bad[:20]:
            print(f"{name}: {r['scenario']} {r['params']} {r['identity']} "
                  f"residual={r['residual']}", file=sys.stderr)
        raise SystemExit(f"{name}: pool has failing or skipped checks; "
                         "not writing a reference")
    fp = gate.fingerprint(report, pools)
    default = workloads.generate(name, workloads.DEFAULT_SEED)
    keys = {gate.job_key(sc.family, p, sc.dim, s)
            for sc in default for p, s in sc.jobs()}
    print(f"{name}: {len(report['reports'])} checks over "
          f"{sum(len(sc.points()) for sc in pools)} points in {wall:.1f} s",
          file=sys.stderr)
    return {"workload": name,
            "default_seed": workloads.DEFAULT_SEED,
            "default_seed_hash": gate.fingerprint_hash(
                {k: v for k, v in fp.items() if k in keys}),
            **gate.to_json(fp)}


def main(names: list) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        doc = make(name)
        out = run.HERE / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        head = {k: v for k, v in doc.items() if k != "jobs"}
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in doc["jobs"].items())
        out.write_text(json.dumps(head)[:-1] + ', "jobs": {\n' + body + "}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
