"""The correctness gate on a real report, and its negative controls."""

import copy
import json

import pytest

import gate
import run
import workloads
from bosonhopf import cli


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A real report of the first wide-2site family slice, seed 3."""
    scenarios = workloads.generate("wide-2site", 3)[:1]
    tmp = tmp_path_factory.mktemp("gate")
    (tmp / "config.ini").write_text(workloads.to_ini(scenarios))
    out = tmp / "report.json"
    code = cli.main(["run", "--config", str(tmp / "config.ini"), "--jobs", "1",
                     "--out", str(out)])
    assert code == 0
    reference = gate.from_json(json.loads(
        (run.HERE / "reference" / "wide-2site.json").read_text()))
    jobs = [gate.job_key(sc.family, p, sc.dim, s)
            for sc in scenarios for p, s in sc.jobs()]
    return json.loads(out.read_text()), scenarios, reference, jobs


def _mismatches(report, case):
    _, scenarios, reference, jobs = case
    return gate.compare(gate.fingerprint(report, scenarios), reference, jobs)


def test_real_report_matches_reference(case):
    assert _mismatches(case[0], case) == []


def _passing_row(report):
    return next(i for i, r in enumerate(report["reports"]) if r["residual"] > 0)


def test_flipped_verdict_is_caught(case):
    report = copy.deepcopy(case[0])
    report["reports"][_passing_row(report)]["passed"] = False
    bad = _mismatches(report, case)
    assert len(bad) == 1 and "verdict fail != pass" in bad[0]


def test_residual_perturbed_by_1e9_is_caught(case):
    report = copy.deepcopy(case[0])
    report["reports"][_passing_row(report)]["residual"] += 1e-9
    bad = _mismatches(report, case)
    assert len(bad) == 1 and "residual" in bad[0]


def test_rounding_noise_below_tolerance_passes(case):
    report = copy.deepcopy(case[0])
    report["reports"][_passing_row(report)]["residual"] += 1e-14
    assert _mismatches(report, case) == []


def test_missing_and_extra_checks_are_caught(case):
    report = copy.deepcopy(case[0])
    dropped = report["reports"].pop(0)
    assert len(_mismatches(report, case)) == 1
    report["reports"].append(dict(dropped, identity="relations.invented"))
    assert len(_mismatches(report, case)) == 2


def test_hash_sees_verdicts_and_residuals(case):
    report, scenarios, _, _ = case
    base = gate.fingerprint_hash(gate.fingerprint(report, scenarios))
    flipped = copy.deepcopy(report)
    flipped["reports"][0]["passed"] = not flipped["reports"][0]["passed"]
    perturbed = copy.deepcopy(report)
    perturbed["reports"][0]["residual"] += 1e-9
    hashes = {gate.fingerprint_hash(gate.fingerprint(r, scenarios))
              for r in (flipped, perturbed)}
    assert base not in hashes and len(hashes) == 2


def test_reference_json_round_trip(case):
    report, scenarios, _, _ = case
    fp = gate.fingerprint(report, scenarios)
    assert gate.compare(gate.from_json(json.loads(json.dumps(gate.to_json(fp)))),
                        fp, list(fp)) == []
