"""Correctness gate: the report fingerprint and its comparison with a reference.

The fingerprint of a report is every check id with its verdict and
residual.  A check id is the job that produced it (family, point, config
dimension, suite) plus the row's identity, family tag and dimension; the
scenario name is left out, so a point has the same id in every config that
runs it.  Residuals are already normalised, so they are compared to an
absolute 1e-12.
"""

from __future__ import annotations

import hashlib
import json
import math

RESIDUAL_TOL = 1e-12


def job_key(family: str, point: dict, dim: int, suite: str) -> str:
    return f"{family}|{json.dumps(point, sort_keys=True)}|{dim}|{suite}"


def verdict(row: dict) -> str:
    if row["skipped"]:
        return "skip"
    return "pass" if row["passed"] else "fail"


def fingerprint(report: dict, scenarios: list) -> dict:
    """job key -> {(identity, row family, row dim): [verdict, residual]}."""
    by_name = {sc.name: sc for sc in scenarios}
    out = {}
    for row in report["reports"]:
        sc = by_name[row["scenario"]]
        key = job_key(sc.family, row["params"], sc.dim, row["suite"])
        check = (row["identity"], row["family"], row["dim"])
        out.setdefault(key, {})[check] = [verdict(row), float(row["residual"])]
    return out


def fingerprint_hash(fp: dict) -> str:
    """sha256 over sorted ids, verdicts and residuals on a 1e-12 grid."""
    def grid(x):
        return round(x / RESIDUAL_TOL) if math.isfinite(x) else repr(x)

    rows = sorted([key, *check, v, grid(r)]
                  for key, checks in fp.items() for check, (v, r) in checks.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _same_residual(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RESIDUAL_TOL


def compare(fp: dict, reference: dict, jobs: list) -> list:
    """Mismatched check ids of a fingerprint against the reference.

    ``jobs`` are the job keys the config schedules; a reference check missing
    from the run, a run check missing from the reference, a changed verdict
    or a residual off by more than RESIDUAL_TOL each count once.
    """
    bad = []
    for key in sorted(set(jobs) | set(fp)):
        got = fp.get(key, {})
        want = reference.get(key)
        if want is None:
            bad.extend(f"{key} {check}: not in reference" for check in got)
            if not got:
                bad.append(f"{key}: not in reference")
            continue
        for check in sorted(set(got) | set(want)):
            if check not in got:
                bad.append(f"{key} {check}: missing from run")
            elif check not in want:
                bad.append(f"{key} {check}: not in reference")
            elif got[check][0] != want[check][0]:
                bad.append(f"{key} {check}: verdict {got[check][0]} != "
                           f"{want[check][0]}")
            elif not _same_residual(got[check][1], want[check][1]):
                bad.append(f"{key} {check}: residual {got[check][1]!r} != "
                           f"{want[check][1]!r}")
    return bad


_VERDICT_CODE = {"pass": "p", "fail": "f", "skip": "s"}
_VERDICT = {c: v for v, c in _VERDICT_CODE.items()}


def to_json(fp: dict) -> dict:
    """Compact JSON form of a fingerprint.

    Jobs of one family and suite emit the same checks, so each distinct
    check list is stored once under "checks"; a job stores the index of its
    list, one verdict letter per check and the residuals to 8 significant
    digits (well inside RESIDUAL_TOL for residuals that pass a 1e-8 bound).
    """
    lists, index, jobs = [], {}, {}
    for key, checks in sorted(fp.items()):
        ids = sorted(checks)
        pos = index.setdefault(tuple(ids), len(lists))
        if pos == len(lists):
            lists.append([list(c) for c in ids])
        jobs[key] = [pos, "".join(_VERDICT_CODE[checks[c][0]] for c in ids),
                     [float(f"{checks[c][1]:.8g}") for c in ids]]
    return {"checks": lists, "jobs": jobs}


def from_json(doc: dict) -> dict:
    lists = doc["checks"]
    return {key: {tuple(c): [_VERDICT[v], float(r)]
                  for c, v, r in zip(lists[pos], verdicts, residuals)}
            for key, (pos, verdicts, residuals) in doc["jobs"].items()}
