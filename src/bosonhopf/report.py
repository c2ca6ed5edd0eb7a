"""Structured check results.

Every numerical verification in the package produces a CheckReport; the CLI
serializes them to JSON.  A report is self-contained: family, parameters,
dimension and window degree are enough to re-run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass
class CheckReport:
    identity: str                 # catalog id, e.g. "relations.B.ladder"
    reference: str                # the identity being checked, human-readable
    family: str
    params: dict
    dim: int
    window_degree: int
    residual: float
    tol: float
    passed: bool
    skipped: bool = False
    skip_reason: str = ""
    branch_note: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        extra = f" ({self.skip_reason})" if self.skipped else f" residual={self.residual:.3e} tol={self.tol:.1e}"
        return f"[{status}] {self.identity} {self.family}{tuple(self.params.values())} D={self.dim}{extra}"


def check_report(spec, dim: int, identity: str, reference: str,
                 residual: float, tol: float, degree: int = 0,
                 **fields) -> CheckReport:
    """The report of one check on ``spec``: it passes when residual < tol.

    ``fields`` sets the optional CheckReport fields; a ``family`` entry
    overrides the spec's family tag (the parity R-matrix reports as B_r0).
    """
    fields.setdefault("family", spec.family)
    return CheckReport(identity=identity, reference=reference,
                       params=spec.param_dict, dim=dim, window_degree=degree,
                       residual=residual, tol=tol, passed=bool(residual < tol),
                       **fields)


def skipped_report(identity: str, reference: str, family: str, params: dict,
                   dim: int, reason: str) -> CheckReport:
    return CheckReport(identity=identity, reference=reference, family=family,
                       params=params, dim=dim, window_degree=0, residual=float("nan"),
                       tol=float("nan"), passed=False, skipped=True, skip_reason=reason)
