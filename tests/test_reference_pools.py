"""Every admissible point of the benchmark's pools still matches its reference.

`perfbench/reference/<workload>.json` holds the fingerprint (check id,
verdict, residual) of every point any seed of the workload can draw.  This
test runs each workload's full pools through `bosonhopf run --jobs 1`, with
one BLAS thread as the benchmark runs it, and compares the report with
`perfbench/gate.py`, the benchmark's own gate: a changed verdict, a
residual off by more than 1e-12, or a missing or extra check fails it.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("gate"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["hopf-3site", "rmatrix-3site", "wide-2site"])
def test_pool_matches_the_reference(tmp_path, bench, name):
    gate, workloads = bench
    pools = workloads.pool_scenarios(name)
    config = tmp_path / "pools.ini"
    config.write_text(workloads.to_ini(pools))
    out = tmp_path / "report.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "bosonhopf.cli", "run", "--config",
                           str(config), "--jobs", "1", "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    reference = gate.from_json(json.loads((BENCH / "reference" / f"{name}.json").read_text()))
    jobs = [gate.job_key(sc.family, point, sc.dim, suite)
            for sc in pools for point, suite in sc.jobs()]
    fingerprint = gate.fingerprint(json.loads(out.read_text()), pools)
    assert gate.compare(fingerprint, reference, jobs) == []
