"""Structured check results.

Every numerical verification in the package produces a CheckReport; the CLI
serializes them to JSON.  A report is self-contained: family, parameters,
dimension and window degree are enough to re-run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .tensor import level_sectors, spectral_norm


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
        """The report as a dict equal to ``dataclasses.asdict(self)``.

        ``params`` and ``branch_note`` are copied one level deep, so the
        caller may change the row's own dicts; values nested deeper are
        shared with the report.
        """
        row = {name: getattr(self, name) for name in _FIELD_NAMES}
        row["params"] = dict(self.params)
        row["branch_note"] = dict(self.branch_note)
        return row

    def summary(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        extra = f" ({self.skip_reason})" if self.skipped else f" residual={self.residual:.3e} tol={self.tol:.1e}"
        return f"[{status}] {self.identity} {self.family}{tuple(self.params.values())} D={self.dim}{extra}"


_FIELD_NAMES = tuple(f.name for f in fields(CheckReport))


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


def windowed_row(spec, dim: int, identity: str, reference: str, residual,
                 tol: float, degree: int = 0, scale=1.0, **fields) -> CheckReport:
    """The report of a residual normed on the validity window of raise degree
    ``degree`` (total level up to ``dim - 1 - degree``), over max(1, scale).

    ``residual`` is a sector operator or a one-site matrix, a tuple of them
    and of numbers taken as they stand (the row reads the largest), or a
    function of the window's top level that builds one.  ``scale`` is a
    number or an operator normed on the window.  The row's window_degree is
    ``degree``.  An empty window (degree >= dim) skips the row unbuilt.
    """
    top = dim - 1 - degree
    if top < 0:
        return check_report(spec, dim, identity, reference, float("nan"), tol, degree,
                            skipped=True, skip_reason=f"the validity window of raise "
                            f"degree {degree} is empty at dim {dim}", **fields)
    sectors = level_sectors(dim, 1)
    parts = residual(top) if callable(residual) else residual
    scale = max(1.0, scale if np.isscalar(scale) else spectral_norm(scale, sectors, top))
    value = max(part if np.isscalar(part) else spectral_norm(part, sectors, top) / scale
                for part in (parts if isinstance(parts, tuple) else (parts,)))
    return check_report(spec, dim, identity, reference, value, tol, degree, **fields)


def skipped_report(identity: str, reference: str, family: str, params: dict,
                   dim: int, reason: str) -> CheckReport:
    return CheckReport(identity=identity, reference=reference, family=family,
                       params=params, dim=dim, window_degree=0, residual=float("nan"),
                       tol=float("nan"), passed=False, skipped=True, skip_reason=reason)
