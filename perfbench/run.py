#!/usr/bin/env python3
"""The bosonhopf benchmark: seeded grid slices through ``bosonhopf run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates an INI config (see
``workloads.py``); the program receives only that config and runs it with
``--jobs 1`` and one BLAS thread.

With ``--trace 0`` the benchmark times fresh-interpreter set-up
SETUP_REPEATS times, then repeats whole ``bosonhopf run`` processes for
about ``--seconds`` and reports the medians of the end-to-end metrics.  With
``--trace 1`` it runs the config once untraced and once traced in-process
(``layers.py``) and reports the per-layer metrics.

Every report is checked row by row against ``reference/<workload>.json``
(``gate.py``).  The last line of standard output is the JSON result; the
lines before it give each metric by name and unit, the fingerprint hash and
the environment.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time

import gate
import layers
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
BLAS_THREADS = 1
SETUP_REPEATS = 7
DEADLINE_S = 170.0

SETUP_PROBE = (
    "import sys\n"
    "from bosonhopf.cli import grid_expand, parse_config\n"
    "config = parse_config(sys.argv[1])\n"
    "print(sum(len(grid_expand(s)) for s in config.scenarios))\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv: list, deadline: float, stderr_path: pathlib.Path):
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before starting a run")
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if code < 0:
        raise BenchError(f"{argv[1:3]} killed after {wall:.1f} s (signal {-code})")
    return code, wall, usage.ru_maxrss / 1024.0


def time_setup(config: pathlib.Path, n_points: int, deadline: float) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        timeout = deadline - time.monotonic()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0 or done.stdout.split() != [str(n_points)]:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return samples


class Checker:
    """Checks each report against the reference and tallies the checks."""

    def __init__(self, name: str, scenarios: list):
        doc = json.loads((HERE / "reference" / f"{name}.json").read_text())
        self.reference = gate.from_json(doc)
        self.default_hash = doc["default_seed_hash"]
        self.scenarios = scenarios
        self.jobs = [gate.job_key(sc.family, point, sc.dim, suite)
                     for sc in scenarios for point, suite in sc.jobs()]
        self.attempted = self.failed = 0
        self.hashes = set()
        self.problems = []

    def check(self, code: int, report_path: pathlib.Path) -> int:
        """Tally one run and delete its report; returns its non-skipped check count."""
        report = json.loads(report_path.read_text())
        report_path.unlink()
        rows = report["reports"]
        fp = gate.fingerprint(report, self.scenarios)
        # The reference holds only passing checks, so a failed or errored
        # check is also a mismatch.
        bad = gate.compare(fp, self.reference, self.jobs)
        checks = sum(1 for r in rows if not r["skipped"])
        self.attempted += checks
        self.failed += len(bad)
        self.problems += bad[:20]
        if code != 0:
            self.problems.append(f"bosonhopf run exited with {code}")
        self.hashes.add(gate.fingerprint_hash(fp))
        return checks

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and len(self.hashes) == 1


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        revision = got.stdout.strip() or None
    return {"git_revision": revision, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "numpy": numpy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def measure(args, scenarios: list, checker: Checker, deadline: float) -> dict:
    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.ini"
    config.write_text(workloads.to_ini(scenarios))
    report = work / "report.json"
    run_argv = ["run", "--config", str(config), "--jobs", "1", "--out", str(report)]
    untraced = [sys.executable, "-m", "bosonhopf.cli", *run_argv]
    n_points = sum(len(sc.points()) for sc in scenarios)

    if args.trace:
        code, run_s, _ = run_process(untraced, deadline, work / "stderr.txt")
        checker.check(code, report)
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        code, traced_s, _ = run_process(
            [sys.executable, str(HERE / "layers.py"), str(spans_path), *run_argv],
            deadline, work / "stderr-traced.txt")
        checker.check(code, report)
        trace = json.loads(spans_path.read_text())
        values = layers.layer_metrics(trace["spans"], trace["main_wall_s"],
                                      traced_s, run_s)
        return {name: (values[name], unit) for name, unit, _ in layers.metric_specs()}

    setup = time_setup(config, n_points, deadline)
    walls, rss, checks = [], [], []
    start = time.perf_counter()
    while True:
        code, wall, peak = run_process(untraced, deadline, work / "stderr.txt")
        checks.append(checker.check(code, report))
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds:
            break
    run_s = statistics.median(walls)
    print(f"untraced runs: {len(walls)}, wall times {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    return {
        "run_s": (run_s, "s"),
        "checks_per_s": (statistics.median(checks) / run_s, "checks/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bosonhopf" / "cli.py").is_file():
        print(f"error: no bosonhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scenarios = workloads.generate(args.workload, args.seed)
    checker = Checker(args.workload, scenarios)
    try:
        metrics = measure(args, scenarios, checker, deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for problem in checker.problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {checker.attempted} checks, "
          f"{checker.failed} failed or mismatched")
    hashes = sorted(checker.hashes)
    note = ""
    if args.seed == workloads.DEFAULT_SEED:
        same = hashes == [checker.default_hash]
        note = f" ({'equals' if same else 'differs from'} the stored default-seed hash)"
    print(f"fingerprint {' '.join(hashes)}{note}")
    print(json.dumps({"environment": environment()}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
