"""Batch runner and report emitter.

Subcommands:
  run              execute check suites over parameter grids from a config
  eval             evaluate one expression on one representation
  list-identities  print every report id ``run`` can emit, and the provisos

The check registry ``SUITES`` says what each suite runs on each family,
which families it skips and why, and which report ids it emits; config
validation, ``run_suite``, skip rows and ``list-identities`` all read it.

Config files are INI: one ``[scenario NAME]`` section per scenario with a
``family`` key, comma-separated parameter value lists (grids expand as the
Cartesian product), ``dim``, ``suites`` and optional per-suite tolerance
overrides (``tol.rmatrix = 1e-8``).  Skips are reported with their reason,
never as failures; numerical residual breaches are failures.  Exit codes:
0 all passed or skipped, 1 at least one failed check, 2 usage or config
error.

A run's job is one scenario's grid points, or at ``--jobs N`` one of at
most N contiguous chunks of them, each on one worker.  Its points run in
grid order, each point's suites in config order.  Every suite runs once for
all of the job's points that it does not skip, as one batch (a point run
alone is a batch of one): its one-site corpus lines run on the direct sum
of the points' Fock spaces (:meth:`tensor.SectorOperator.direct_sum`), and
each point gets its own rows at its turn; the lines that read two-site
values, and the ``hopf``, ``rmatrix`` and ``ybe`` checks, run at their
point's turn.  A row's ``wall_time`` is the time its point spent on its
suite's rows, and its share of the batch's, over its row count.

This module imports the standard library and :mod:`spec` alone.  Parsing
and checking a config, expanding its grids, ``list-identities``, ``--help``
and every usage error load no numpy; the numerical modules load where they
compute: a run at its first job (or, every module its suites use, before
it starts a ``--jobs N`` pool, whose forked workers inherit them),
``eval`` once its arguments are checked.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import math
import os
import sys
import time
from collections import UserDict
from dataclasses import dataclass, field
from functools import cached_property, partial

from . import GRAMMAR_VERSION, __version__
from .spec import FAMILIES, NONINTEGER_GRADE_SHIFT, PARAM_NAMES, AlgebraSpec, SpecError

REPORT_SCHEMA_VERSION = "1.1"


# -- the check registry -------------------------------------------------------

# A grid point at which a family's parameter is zero is skipped by every
# suite: family -> ((parameter, reason), ...).
FAMILY_PROVISOS = {
    "B": (("alpha", "provided that alpha != 0"),),
    "Bq": (("alpha", "provided that alpha != 0"),),
    "Bbar": (("sigma", "provided that sigma != 0"),),
    "Bbarq": (("sigma", "provided that sigma != 0"),),
    "H": (("delta", "such an element does not exist if delta = 0"),
          ("nu", "the reflection operator normalization requires nu != 0")),
}

# The graded R-matrices carry the parity head R0, which needs the grade
# element to square to I.
PARITY_HEAD_FAMILIES = ("B", "Bq")


@dataclass(frozen=True)
class Suite:
    """One check suite: a runner per family and the report ids it emits.

    A runner maps a list of grid points (:class:`Point`) of one family and
    dim and a tolerance to the lines of their batch, which give each
    point's rows (:func:`report.rows_at`); a point run alone is a batch of
    one.  It imports the check functions from their module when it runs,
    so a run loads only the modules its suites use, the ``modules`` of the
    package it names.  Families without a runner are skipped with
    ``skip_reason``.  With ``parity_head``, the graded families are skipped
    where beta/alpha is not an integer
    (:attr:`AlgebraSpec.integer_grade_shift`).  ``ids`` maps each report id
    prefix to the identity it names; the structure, casimir and iso suites
    read theirs from the identity corpus (:class:`_CorpusIds`).
    """

    name: str
    ids: dict
    runners: dict
    skip_reason: str = ""
    parity_head: bool = False
    modules: tuple = ()

    def reason_to_skip(self, spec: AlgebraSpec) -> str:
        if spec.family not in self.runners:
            return self.skip_reason
        if self.parity_head and spec.family in PARITY_HEAD_FAMILIES:
            if not spec.integer_grade_shift:
                return NONINTEGER_GRADE_SHIFT
        return ""

    def skipped(self, family: str, params: dict, dim: int, reason: str) -> list:
        from .report import skipped_report
        return [skipped_report(identity=f"{self.name}.skipped",
                               reference=self.ids.get(self.name, self.name),
                               family=family, params=params, dim=dim,
                               reason=reason)]


@dataclass
class Point:
    """One grid point: its spec and dim, and the Fock rep and Hopf tables
    its suites share (and the batches of its chunk read), each built on
    first use.  A build that raises is not kept, so the next suite to read
    it builds it again."""

    spec: AlgebraSpec
    dim: int

    @cached_property
    def rep(self):
        from .fock import build_rep
        return build_rep(self.spec, self.dim)

    @cached_property
    def tables(self):
        from .hopf import build_tables
        return build_tables(self.rep)

    def release(self) -> None:
        """Free the tables (and their two-site images) now: they are not read again."""
        if "tables" in self.__dict__:
            self.tables.release()

    def rep_up_to(self, dim: int):
        """The point's rep if it has at most ``dim`` levels, else one of ``dim``."""
        if self.dim <= dim:
            return self.rep
        from .fock import build_rep
        return build_rep(self.spec, dim)


def _per_point(run):
    """The runner of a list of points whose one line (a
    :class:`report.PointCalls`) gives each point the reports of
    ``run(point, tol)``, called at the point's turn."""
    def runner(pts, tol):
        from .report import PointCalls
        return [PointCalls([partial(run, pt, tol) for pt in pts])]
    return runner


@_per_point
def _run_hopf(pt, tol):
    return pt.tables.run_axiom_checks(tol)


@_per_point
def _run_r_series(pt, tol):
    from .rmatrix import YBE_DIM, run_r_checks
    return run_r_checks(pt.rep, pt.tables, pt.rep_up_to(YBE_DIM), tol)


@_per_point
def _run_r0_axioms(pt, tol):
    from .rmatrix import build_r0, check_r_axioms
    return check_r_axioms(build_r0(pt.rep), pt.tables, tol)


@_per_point
def _run_trivial_r(pt, tol):
    from .rmatrix import check_trivial_r
    return [check_trivial_r(pt.tables, tol)]


@_per_point
def _run_ybe_series(pt, tol):
    from .rmatrix import YBE_DIM, build_r, check_ybe
    return [check_ybe(build_r(pt.rep_up_to(YBE_DIM)), tol)]


@_per_point
def _run_r0_ybe(pt, tol):
    from .rmatrix import build_r0, check_ybe
    return [check_ybe(build_r0(pt.rep_up_to(4)), tol)]


def _run_relations(pts, tol):
    from .fock import check_defining_relations_batch
    return check_defining_relations_batch([pt.rep for pt in pts], tol)


def _run_delta_hom(pts, tol):
    from .hopf import check_delta_homomorphism_batch
    return check_delta_homomorphism_batch([pt.tables for pt in pts], tol)


def _run_casimir(pts, tol):
    from .structure import casimir_spectrum_batch
    return casimir_spectrum_batch([pt.rep for pt in pts], tol)


def _run_structure(pts, tol):
    from .structure import run_structure_checks_batch
    tables = [pt.tables for pt in pts] if pts[0].spec.family == "B" else None
    return run_structure_checks_batch([pt.rep for pt in pts], tables, tol)


# The partner algebra of the generator maps: beta = 1 for B, nu = 1 and
# rho = 0 for H.
def _run_iso_phi(pts, tol):
    from .structure import iso_batch
    return iso_batch([AlgebraSpec("B", (2.0 * pt.spec.delta, 1.0)) for pt in pts],
                     [pt.rep for pt in pts], tol)


def _run_iso_phi_prime(pts, tol):
    from .structure import iso_batch
    return iso_batch([AlgebraSpec("H", (pt.spec.alpha / 2.0, 1.0, 0.0)) for pt in pts],
                     [pt.rep for pt in pts], tol)


class _CorpusIds(UserDict):
    """The id of each corpus row and map that starts with ``prefix``, with
    its text (a row's reference, or the references of the maps an id names),
    read on first use: the registry is built without reading the corpus."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    @cached_property
    def data(self) -> dict:
        from .corpus import statements
        ids = {}
        for st in statements():
            if st.kind in ("row", "map") and st.ident.startswith(self.prefix):
                ids[st.ident] = "; ".join(filter(None, (ids.get(st.ident), st.reference)))
        return ids


_YBE_IDS = {"rmatrix.ybe": "R12 R13 R23 = R23 R13 R12"}

SUITES = {suite.name: suite for suite in (
    Suite("relations",
          {"relations": "defining relations of the family, including grade-element relations"},
          dict.fromkeys(FAMILIES, _run_relations), modules=("fock", "expr")),
    Suite("hopf",
          {"hopf.coassoc": "(Delta x id) Delta(g) = (id x Delta) Delta(g)",
           "hopf.counit": "(eps x id) Delta(g) = g = (id x eps) Delta(g)",
           "hopf.antipode": "m (S x id) Delta(g) = eps(g) I = m (id x S) Delta(g)",
           "hopf.antipode-inverse": "m (S^-1 x id) Delta^T(g) = eps(g) I = m (id x S^-1) Delta^T(g)"},
          dict.fromkeys(FAMILIES, _run_hopf), modules=("hopf",)),
    Suite("delta-hom",
          {"hopf.delta-hom": "defining relations survive g -> Delta(g) on the two-site space",
           "hopf.s-antihom": "defining relations survive reversal + antipode images"},
          dict.fromkeys(FAMILIES, _run_delta_hom), modules=("hopf", "expr")),
    Suite("rmatrix",
          {"rmatrix.quasitriangular": "Delta^T(g) R = R Delta(g) per generator",
           "rmatrix.fusion-left": "(Delta x id) R = R13 R23",
           "rmatrix.fusion-right": "(id x Delta) R = R13 R12",
           "rmatrix.inverse": "((S x id) R) R = I x I",
           **_YBE_IDS,
           "rmatrix.trivial": "R = I x I intertwines the primitive coproducts (undeformed Bbar)"},
          {"Bq": _run_r_series, "Bbarq": _run_r_series, "B": _run_r0_axioms,
           "Bbar": _run_trivial_r},
          "no universal R-matrix for this family", parity_head=True, modules=("rmatrix",)),
    Suite("ybe", _YBE_IDS,
          {"Bq": _run_ybe_series, "Bbarq": _run_ybe_series, "B": _run_r0_ybe},
          "no Yang-Baxter content for this family", parity_head=True, modules=("rmatrix",)),
    Suite("casimir", _CorpusIds("structure.casimir"), {"B": _run_casimir},
          "closed-form Casimir spectra are stated for the undeformed graded "
          "family", modules=("structure",)),
    Suite("structure", _CorpusIds("structure."), dict.fromkeys(FAMILIES, _run_structure),
          modules=("structure",)),
    Suite("iso", _CorpusIds("iso."), {"H": _run_iso_phi, "B": _run_iso_phi_prime},
          "the generator maps relate the graded and reflection families only",
          modules=("structure",)),
)}


class ConfigError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    family: str
    param_grid: dict                  # name -> list of floats
    dim: int = 8
    suites: tuple = tuple(SUITES)
    tol: float = 1e-10
    suite_tols: dict = field(default_factory=dict)

    def tol_for(self, suite: str) -> float:
        return self.suite_tols.get(suite, self.tol)


@dataclass
class ScenarioConfig:
    scenarios: list
    out: str = ""


_SCENARIO_SCALARS = {"dim": int, "tol": float}
# every family's parameter names: a config key that names one is a parameter
# grid, ignored with a warning in a scenario of another family
_PARAMETERS = frozenset(itertools.chain.from_iterable(PARAM_NAMES.values()))


def _number(convert, text: str, where: str):
    """``convert(text)``, or a ConfigError naming ``where`` when text is no such number."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{where} = {text!r} is not a valid {convert.__name__}") from None


def _check_dim(dim: int, where: str) -> None:
    if dim < 2:
        raise ConfigError(f"{where} must be at least 2 (a Fock space needs two levels), got {dim}")


def _check_tol(tol: float, where: str) -> None:
    # inf passes every finite residual; 0, a negative or nan fails every row
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"{where} must be a finite positive tolerance, got {tol}")


def _check_distinct(values, where: str) -> None:
    # a repeated suite or axis value would emit its rows once per repeat
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{where} repeats {', '.join(map(str, repeated))}")


def parse_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)   # a "%" in a value is literal
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    scenarios = []
    out = ""
    for section in cp.sections():
        if section == "run":
            unknown = sorted(set(cp["run"]) - {"out"})
            if unknown:
                raise ConfigError(f"[run] has unknown key {unknown[0]!r}")
            out = cp.get("run", "out", fallback="")
            continue
        if not section.startswith("scenario"):
            raise ConfigError(f"unknown section [{section}]; expected "
                              "[run] or [scenario NAME]")
        name = section[len("scenario"):].strip() or section
        items = dict(cp.items(section))
        family = items.pop("family", None)
        if family is None:
            raise ConfigError(f"[{section}] is missing the family key")
        if family not in PARAM_NAMES:
            raise ConfigError(f"[{section}] has unknown family {family!r}; "
                              f"expected one of {sorted(PARAM_NAMES)}")
        scen = Scenario(name=name, family=family, param_grid={})
        if "suites" in items:
            suites = tuple(s.strip() for s in items.pop("suites").split(","))
            unknown = [s for s in suites if s not in SUITES]
            if unknown:
                raise ConfigError(f"[{section}] has unknown suites "
                                  f"{unknown}; expected subset of "
                                  f"{tuple(SUITES)}")
            _check_distinct(suites, f"[{section}] suites")
            scen.suites = suites
        for key, value in items.items():
            if key in _SCENARIO_SCALARS:
                setattr(scen, key, _number(_SCENARIO_SCALARS[key], value,
                                           f"[{section}] {key}"))
            elif key.startswith("tol."):
                suite = key[4:]
                if suite not in SUITES:
                    raise ConfigError(f"[{section}]: tolerance override for "
                                      f"unknown suite {suite!r}")
                scen.suite_tols[suite] = _number(float, value, f"[{section}] {key}")
                _check_tol(scen.suite_tols[suite], f"[{section}] {key}")
            elif key in _PARAMETERS:
                values = [_number(float, v.strip(), f"[{section}] {key}")
                          for v in value.split(",")]
                if key not in PARAM_NAMES[family]:
                    print(f"warning: [{section}] parameter {key!r} is not "
                          f"used by family {family}; ignored", file=sys.stderr)
                    continue
                _check_distinct(values, f"[{section}] {key}")
                scen.param_grid[key] = values
            else:
                raise ConfigError(f"[{section}] has unknown key {key!r}")
        _check_dim(scen.dim, f"[{section}] dim")
        _check_tol(scen.tol, f"[{section}] tol")
        missing = [p for p in PARAM_NAMES[family] if p not in scen.param_grid]
        if missing:
            raise ConfigError(f"[{section}] is missing values for {missing}")
        scenarios.append(scen)
    if not scenarios:
        raise ConfigError(f"config {path!r} defines no scenarios")
    return ScenarioConfig(scenarios=scenarios, out=out)


def grid_expand(scenario: Scenario) -> list:
    """Cartesian expansion into (params dict, spec or None, skip reason)."""
    names = PARAM_NAMES[scenario.family]
    out = []
    for combo in itertools.product(*(scenario.param_grid[n] for n in names)):
        params = dict(zip(names, combo))
        reason = ""
        for pname, text in FAMILY_PROVISOS[scenario.family]:
            if params.get(pname) == 0:
                reason = text
                break
        spec = None
        if not reason:
            try:
                spec = AlgebraSpec(scenario.family, combo)
            except SpecError as exc:
                reason = str(exc)
        out.append((params, spec, reason))
    return out


# -- suite execution ----------------------------------------------------------

def run_suite(scenario: Scenario, points: list, suite: str) -> list:
    """The lines (:func:`report.rows_at`) of ``suite`` at ``points``, grid
    points of the scenario that the suite does not skip."""
    entry = SUITES.get(suite)
    if entry is None:
        raise ConfigError(f"unknown suite {suite!r}")
    return entry.runners[scenario.family](points, scenario.tol_for(suite))


class _Batch:
    """A suite run at once at the points of a job that it does not skip:
    its lines (:func:`run_suite`), or None when they raised, the index of
    each such point's rows in them, and the batch's time over those points,
    each point's ``share``."""

    def __init__(self, scenario: Scenario, suite: str, points: list):
        entry = SUITES[suite]
        live = [i for i, pt in enumerate(points)
                if pt is not None and not entry.reason_to_skip(pt.spec)]
        self.index = {i: k for k, i in enumerate(live)}
        start = time.perf_counter()
        try:
            self.lines = run_suite(scenario, [points[i] for i in live], suite) if live else []
        except Exception:   # each point runs the suite as a batch of one
            self.lines = None
        self.share = (time.perf_counter() - start) / max(1, len(live))


def _suite_records(scenario: Scenario, suite: str, batch: _Batch, index: int, params: dict,
                   point, skip_reason: str) -> list:
    """The records (:func:`_records`) of ``suite`` at point ``index`` of a
    job: its skip rows where the grid or the suite skips the point, else its
    rows of the job's ``batch``, or where the batch raised, of the suite run
    at the point as a batch of one.  An exception (building the rep or
    tables included), or a row the report encoder cannot write, becomes
    the suite's one failed ``<suite>.error`` row."""
    from .report import check_report, rows_at
    entry, start, shared = SUITES[suite], time.perf_counter(), 0.0
    try:
        reason = skip_reason or entry.reason_to_skip(point.spec)
        if reason:
            reports = entry.skipped(scenario.family, params, scenario.dim, reason)
        elif batch.lines is None:
            reports = rows_at(run_suite(scenario, [point], suite), 0)
        else:
            reports, shared = rows_at(batch.lines, batch.index[index]), batch.share
        return _records(scenario, suite, time.perf_counter() - start + shared, reports)
    except Exception as exc:   # per-check errors must not abort the run
        return _records(scenario, suite, time.perf_counter() - start, [check_report(
            point.spec, scenario.dim, f"{suite}.error", str(exc), float("inf"),
            scenario.tol_for(suite), branch_note={"error": f"{type(exc).__name__}: {exc}"})])


def _run_job(job) -> list:
    """One chunk of a scenario's grid points (a list of :func:`grid_expand`
    entries), as the records (:func:`_records`) of each point's suites in
    config order, point after point (:func:`_job_points`)."""
    return [record for records in _job_points(job) for record in records]


def _job_points(job):
    """The records of each point of a job (:func:`_run_job`) in turn, one
    list per point, each yielded once the point's suites are done.

    Each suite runs once at every point of the job that it does not skip,
    as one batch built when the first point reaches it (:class:`_Batch`),
    and each point takes its rows at its turn (:func:`_suite_records`).  A
    point's suites share its rep and Hopf tables, which are dropped,
    two-site images and all, once its suites are done.  An exception in a
    suite, or a row the encoder cannot write, becomes that suite's one
    failed ``<suite>.error`` row at that point and the later suites still
    run: a batch that raises runs its suite at each point as a batch of
    one, so only the points at fault get error rows.
    """
    scenario, entries = job
    points = [spec and Point(spec, scenario.dim) for _, spec, _ in entries]
    batches = {}
    for i, (params, _, skip_reason) in enumerate(entries):
        records = []
        for suite in scenario.suites:
            if not skip_reason and suite not in batches:
                batches[suite] = _Batch(scenario, suite, points)
            records += _suite_records(scenario, suite, batches.get(suite), i, params,
                                      points[i], skip_reason)
        if points[i] is not None:
            points[i].release()
            points[i] = None
        yield records


def _records(scenario: Scenario, suite: str, seconds: float, reports: list) -> list:
    """Each report of a suite at one point that took ``seconds`` as
    ``(passed, skipped, line)``, the line the row encoded by the report
    encoder, so no row outlives its job.  Each row carries that time over
    the row count (:func:`_suite_records` times it)."""
    wall_time = seconds / max(1, len(reports))
    records = []
    for rp in reports:
        row = rp.to_dict()
        row["scenario"] = scenario.name
        row["suite"] = suite
        row["wall_time"] = wall_time
        records.append((row["passed"], row["skipped"], _encode(row)))
    return records


def _jobs(config: ScenarioConfig, jobs: int):
    """Each scenario's grid points in :func:`grid_expand` order, cut into at
    most ``jobs`` contiguous chunks of near-equal size: the jobs of a run."""
    for scenario in config.scenarios:
        entries = grid_expand(scenario)
        count = min(jobs, len(entries))
        for k in range(count):
            yield scenario, entries[k * len(entries) // count:(k + 1) * len(entries) // count]


def run_config(config: ScenarioConfig, out_path: str, jobs: int) -> int:
    """Run each scenario of ``config`` as one job per chunk of its grid
    points (:func:`_jobs`, :func:`_run_job`): one chunk at ``jobs`` 1, at
    most ``jobs`` chunks, each on one worker, at ``jobs > 1``.  Write the
    report to ``out_path`` (or stdout) in run order: scenarios in config
    order, each scenario's points in :func:`grid_expand` order, each
    point's suites in config order.  Each point's rows are written as soon
    as its suites are done at ``jobs`` 1, each job's as soon as it ends at
    ``jobs > 1``.  Only the counts outlive a job."""
    metadata = {
        "artifact_version": __version__,
        "grammar_version": GRAMMAR_VERSION,
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": "bosonhopf run",
    }
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        if jobs > 1:
            # imported here: multiprocessing costs every --jobs 1 run its import time
            from concurrent.futures import ProcessPoolExecutor

            # the modules the config's suites use, loaded once here (by the
            # import statement's path, which -X importtime reports): each
            # forked worker inherits them instead of importing them again
            for module in sorted({"fock", "report", *(m for sc in config.scenarios
                                                      for suite in sc.suites
                                                      for m in SUITES[suite].modules)}):
                __import__(f"{__package__}.{module}")
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                counts = write_report(metadata, pool.map(_run_job, _jobs(config, jobs)), fh)
        else:
            counts = write_report(metadata, itertools.chain.from_iterable(
                map(_job_points, _jobs(config, 1))), fh)
    print(f"{counts['passed']} passed, {counts['failed']} failed, "
          f"{counts['skipped']} skipped", file=sys.stderr)
    return 1 if counts["failed"] else 0


def write_report(metadata: dict, job_records, fh) -> dict:
    """Write the report document as JSON and return its counts: the
    ``"metadata"``, then the ``"reports"`` list, one encoded row per line,
    each list of records (:func:`_records`) as ``job_records`` yields them,
    then the ``"counts"`` of passed, failed and skipped rows.

    No string of the whole document is built, and no row is kept.
    """
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    fh.write('{"metadata": ' + _encode(metadata) + ', "reports": [')
    sep = "\n"
    for records in job_records:
        for passed, skipped, _ in records:
            counts["skipped" if skipped else "passed" if passed else "failed"] += 1
        if records:   # one write per list: no string per row beyond its line
            fh.write(sep + ",\n".join(line for *_, line in records))
            sep = ",\n"
    fh.write('\n], "counts": ' + _encode(counts) + "}\n")
    return counts


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    import numpy as np   # a row holds a numpy scalar only once numpy is loaded
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# The report encoder: the C encoder, keys sorted (an indented one takes the
# pure-Python path).
_encode = json.JSONEncoder(sort_keys=True, default=_json_default).encode


# -- subcommand plumbing ------------------------------------------------------

def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.dim is not None:
        _check_dim(args.dim, "--dim")
    if args.tol is not None:
        _check_tol(args.tol, "--tol")
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be at least 0 (0: available parallelism), "
                          f"got {args.jobs}")
    for scenario in config.scenarios:
        if args.dim is not None:
            scenario.dim = args.dim
        if args.tol is not None:
            scenario.tol = args.tol
    out = args.out or config.out
    return run_config(config, out, args.jobs or _available_cpus())


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one), not the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_eval(args) -> int:
    _check_dim(args.dim, "--dim")
    try:
        params = tuple(float(v) for v in args.params.split(","))
    except ValueError:
        print(f"error: cannot parse parameters {args.params!r}",
              file=sys.stderr)
        return 2
    try:
        spec = AlgebraSpec(args.family, params)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.degree < args.dim:
        print(f"error: --degree must lie in [0, {args.dim}) for --dim {args.dim}, "
              f"got {args.degree}", file=sys.stderr)
        return 2
    import numpy as np

    from .expr import EvalContext, EvalError, ParseError, evaluate, parse
    from .fock import build_rep
    from .tensor import level_sectors, spectral_norm
    rep = build_rep(spec, args.dim)
    ctx = EvalContext(rep)
    try:
        mat = evaluate(parse(args.expression), ctx)
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sites = round(np.log(mat.shape[0]) / np.log(rep.dim)) if rep.dim > 1 else 1
    win = spectral_norm(mat, level_sectors(rep.dim, sites), rep.dim - 1 - args.degree)
    full = spectral_norm(mat)
    print(f"windowed norm (degree {args.degree}): {win:.6e}")
    print(f"unwindowed norm: {full:.6e}")
    if args.dump_matrix:
        dump = {"shape": list(mat.shape),
                "real": np.real(mat).tolist(),
                "imag": np.imag(mat).tolist()}
        print(json.dumps(dump))
    return 0


def _cmd_list_identities(args) -> int:
    catalog = {}
    for suite in SUITES.values():
        catalog.update(suite.ids)
        notes = []
        others = [f for f in FAMILIES if f not in suite.runners]
        if others:
            notes.append(f"{', '.join(others)}: {suite.skip_reason}")
        if suite.parity_head:
            notes.append(f"{', '.join(PARITY_HEAD_FAMILIES)}: {NONINTEGER_GRADE_SHIFT}")
        notes.append("any family: a point that violates a family proviso")
        catalog[f"{suite.name}.skipped"] = "; ".join(notes)
    width = max(len(k) for k in catalog)
    for key in sorted(catalog):
        print(f"{key:<{width}}  {catalog[key]}")
    print("\nfamily provisos (every suite skips a point that violates one):")
    for family, provisos in FAMILY_PROVISOS.items():
        for param, reason in provisos:
            print(f"  {family:<5}  {param} = 0: {reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bosonhopf",
        description="Numerical verification lab for generalized boson and "
                    "Heisenberg Hopf algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run check suites from a config file")
    runp.add_argument("--config", required=True, help="INI scenario config")
    runp.add_argument("--out", default="", help="JSON report path (default stdout)")
    runp.add_argument("--dim", type=int, default=None,
                      help="override every scenario dimension")
    runp.add_argument("--tol", type=float, default=None,
                      help="override every scenario base tolerance")
    runp.add_argument("--jobs", type=int, default=0,
                      help="worker processes (default 0: available parallelism)")
    runp.set_defaults(func=_cmd_run)

    evalp = sub.add_parser("eval", help="evaluate one expression")
    evalp.add_argument("--family", required=True,
                       choices=sorted(PARAM_NAMES))
    evalp.add_argument("--params", required=True,
                       help="comma-separated parameter values in family order")
    evalp.add_argument("--dim", type=int, default=8)
    evalp.add_argument("--degree", type=int, default=0,
                       help="validity-window raise degree k: the windowed norm "
                            "keeps the states of total level <= dim-1-k")
    evalp.add_argument("--dump-matrix", action="store_true",
                       help="print the full matrix as JSON")
    evalp.add_argument("expression")
    evalp.set_defaults(func=_cmd_eval)

    listp = sub.add_parser("list-identities",
                           help="print every report id run can emit")
    listp.set_defaults(func=_cmd_list_identities)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
