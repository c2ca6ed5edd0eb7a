"""Structured check results.

Every numerical verification in the package produces a CheckReport; the CLI
serializes them to JSON.  A report is self-contained: family, parameters,
dimension and window degree are enough to re-run it.  A line run at several
grid points at once (on the direct sums of their images) gives one report
per point, each normed on its own point's window (:func:`windowed_values`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np


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

    ``residual`` is a sector operator (:class:`tensor.SectorOperator`), a
    tuple of them and of numbers taken as they stand (the row reads the
    largest), or a function of the window's top level that builds one.
    ``scale`` is a number or a sector operator normed on the window.  The
    row's window_degree is ``degree``.  An empty window (degree >= dim)
    skips the row unbuilt.
    """
    top = dim - 1 - degree
    if top < 0:
        return check_report(spec, dim, identity, reference, float("nan"), tol, degree,
                            skipped=True, skip_reason=f"the validity window of raise "
                            f"degree {degree} is empty at dim {dim}", **fields)
    parts = residual(top) if callable(residual) else residual
    scale = max(1.0, scale if np.isscalar(scale) else scale.norm(top))
    value = max(part if np.isscalar(part) else part.norm(top) / scale
                for part in (parts if isinstance(parts, tuple) else (parts,)))
    return check_report(spec, dim, identity, reference, value, tol, degree, **fields)


def windowed_values(count: int, dim: int, residual, degree: int = 0, scale=1.0) -> list:
    """The value :func:`windowed_row` reads at each of ``count`` points of
    one dim, for a residual run at all of them at once: pass it as that
    point's residual.

    ``residual`` and ``scale`` are direct sums over the points
    (:meth:`tensor.SectorOperator.direct_sum`), each summand normed on its
    own window, or lists of one number per point taken as they stand; a
    residual may be a tuple of them, and a scale a number.  Each value is
    the one windowed_row gives its point alone; None where the window is
    empty, as windowed_row then skips the row unread.
    """
    top = dim - 1 - degree
    if top < 0:
        return [None] * count
    scales = ([scale] * count if np.isscalar(scale)
              else scale if isinstance(scale, list) else scale.summand_norms(top))
    parts = [(part, True) if isinstance(part, list) else (part.summand_norms(top), False)
             for part in (residual if isinstance(residual, tuple) else (residual,))]
    values = []
    for p in range(count):
        point_scale = max(1.0, scales[p])
        values.append(max(norms[p] if as_is else norms[p] / point_scale for norms, as_is in parts))
    return values


class WindowedLine(NamedTuple):
    """A line run at one or several points at once, as its values
    (:func:`windowed_values`): ``line(p)`` builds point p's row by
    :func:`windowed_row` only when asked for, so a batch holds no report of
    a point not yet reached.  ``notes`` gives each point's branch_note."""

    specs: list
    dim: int
    identity: str
    reference: str
    values: list
    tol: float
    degree: int = 0
    notes: list | None = None

    def __call__(self, p: int) -> list:
        extra = {} if self.notes is None else {"branch_note": self.notes[p]}
        return [windowed_row(self.specs[p], self.dim, self.identity, self.reference,
                             self.values[p], self.tol, self.degree, **extra)]


class PointCalls:
    """A line run at each point alone (a two-site line): one function per
    point that returns the point's rows.  ``line(p)`` calls point p's
    function once and drops it, and with it what it holds."""

    __slots__ = ("calls",)

    def __init__(self, calls: list):
        self.calls = calls

    def __call__(self, p: int) -> list:
        call, self.calls[p] = self.calls[p], None
        return call()


def rows_at(lines: list, p: int) -> list:
    """Point p's rows of a batch's lines in order: each line is a
    :class:`WindowedLine` or :class:`PointCalls`."""
    return [rp for line in lines for rp in line(p)]


def skipped_report(identity: str, reference: str, family: str, params: dict,
                   dim: int, reason: str) -> CheckReport:
    return CheckReport(identity=identity, reference=reference, family=family,
                       params=params, dim=dim, window_degree=0, residual=float("nan"),
                       tol=float("nan"), passed=False, skipped=True, skip_reason=reason)
