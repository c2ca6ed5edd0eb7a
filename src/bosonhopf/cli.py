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
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import GRAMMAR_VERSION, __version__
from .fock import (FAMILIES, PARAM_NAMES, AlgebraSpec, SpecError, build_rep,
                   check_defining_relations)
from .report import check_report, skipped_report
from .tensor import level_sectors, spectral_norm

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
PARITY_HEAD_SKIP = ("(-1)^(2*Ntilde) = I requires beta/alpha to be an "
                    "integer")


@dataclass(frozen=True)
class Suite:
    """One check suite: a runner per family and the report ids it emits.

    A runner maps a grid point (:class:`Point`) and a tolerance to a list of
    reports; it imports the check functions from their module when it runs,
    so a run loads only the modules its suites use.  Families without a runner are skipped with
    ``skip_reason``.  With ``parity_head``, the graded families
    are skipped where beta/alpha is not an integer.  ``ids`` maps each
    report id prefix to the identity it names.
    """

    name: str
    ids: dict
    runners: dict
    skip_reason: str = ""
    parity_head: bool = False

    def reason_to_skip(self, spec: AlgebraSpec) -> str:
        if spec.family not in self.runners:
            return self.skip_reason
        if self.parity_head and spec.family in PARITY_HEAD_FAMILIES:
            if not float(spec.grade_shift).is_integer():
                return PARITY_HEAD_SKIP
        return ""

    def skipped(self, family: str, params: dict, dim: int, reason: str) -> list:
        return [skipped_report(identity=f"{self.name}.skipped",
                               reference=self.ids.get(self.name, self.name),
                               family=family, params=params, dim=dim,
                               reason=reason)]


@dataclass
class Point:
    """One grid point: its spec and dim, and the Fock rep and Hopf tables
    its suites share, each built on first use.  A build that raises is not
    kept, so the next suite to read it builds it again."""

    spec: AlgebraSpec
    dim: int

    @cached_property
    def rep(self):
        return build_rep(self.spec, self.dim)

    @cached_property
    def tables(self):
        from .hopf import build_tables
        return build_tables(self.rep)

    def rep_up_to(self, dim: int):
        """The point's rep if it has at most ``dim`` levels, else one of ``dim``."""
        return self.rep if self.dim <= dim else build_rep(self.spec, dim)


def _run_relations(pt, tol):
    return check_defining_relations(pt.rep, tol)


def _run_hopf(pt, tol):
    return pt.tables.run_axiom_checks(tol)


def _run_delta_hom(pt, tol):
    return pt.tables.check_delta_homomorphism(tol)


def _run_r_series(pt, tol):
    from .rmatrix import YBE_DIM, run_r_checks
    return run_r_checks(pt.rep, pt.tables, pt.rep_up_to(YBE_DIM), tol)


def _run_r0_axioms(pt, tol):
    from .rmatrix import build_r0, check_r_axioms
    return check_r_axioms(build_r0(pt.rep), pt.tables, tol)


def _run_trivial_r(pt, tol):
    from .rmatrix import check_trivial_r
    return [check_trivial_r(pt.tables, tol)]


def _run_ybe_series(pt, tol):
    from .rmatrix import YBE_DIM, build_r, check_ybe
    return [check_ybe(build_r(pt.rep_up_to(YBE_DIM)), tol)]


def _run_r0_ybe(pt, tol):
    from .rmatrix import build_r0, check_ybe
    return [check_ybe(build_r0(pt.rep_up_to(4)), tol)]


def _run_casimir(pt, tol):
    from .structure import build_realization, casimir_spectrum
    return [casimir_spectrum(build_realization(pt.rep, target), pt.rep, which, tol)
            for target, which in (("osp12", "osp_i2"), ("sl2", "sl2_c2"))]


def _run_structure(pt, tol):
    from .structure import run_structure_checks
    tables = pt.tables if pt.spec.family == "B" else None
    return run_structure_checks(pt.rep, tables, tol)


# The partner algebra of the generator maps: beta = 1 for B, nu = 1 and
# rho = 0 for H.
def _run_iso_phi(pt, tol):
    from .structure import iso_phi
    b_spec = AlgebraSpec("B", (2.0 * pt.spec.delta, 1.0))
    return iso_phi(b_spec, pt.rep, tol)


def _run_iso_phi_prime(pt, tol):
    from .structure import iso_phi_prime
    h_spec = AlgebraSpec("H", (pt.spec.alpha / 2.0, 1.0, 0.0))
    return iso_phi_prime(h_spec, pt.rep, tol=tol)


_YBE_IDS = {"rmatrix.ybe": "R12 R13 R23 = R23 R13 R12"}
_CASIMIR_IDS = {
    "structure.casimir-osp": "osp quadratic Casimir is the constant beta^2/(4 alpha^2) - beta/(4 alpha)",
    "structure.casimir-sl2": "sl2 Casimir is constant on each parity sector, matching the closed form",
}

SUITES = {suite.name: suite for suite in (
    Suite("relations",
          {"relations": "defining relations of the family, including grade-element relations"},
          dict.fromkeys(FAMILIES, _run_relations)),
    Suite("hopf",
          {"hopf.coassoc": "(Delta x id) Delta(g) = (id x Delta) Delta(g)",
           "hopf.counit": "(eps x id) Delta(g) = g = (id x eps) Delta(g)",
           "hopf.antipode": "m (S x id) Delta(g) = eps(g) I = m (id x S) Delta(g)",
           "hopf.antipode-inverse": "m (id x S^-1) Delta^T(g) = eps(g) I (opposite-algebra antipode)"},
          dict.fromkeys(FAMILIES, _run_hopf)),
    Suite("delta-hom",
          {"hopf.delta-hom": "defining relations survive g -> Delta(g) on the two-site space",
           "hopf.s-antihom": "defining relations survive reversal + antipode images"},
          dict.fromkeys(FAMILIES, _run_delta_hom)),
    Suite("rmatrix",
          {"rmatrix.quasitriangular": "Delta^T(g) R = R Delta(g) per generator",
           "rmatrix.fusion-left": "(Delta x id) R = R13 R23",
           "rmatrix.fusion-right": "(id x Delta) R = R13 R12",
           "rmatrix.inverse": "((S x id) R) R = I x I",
           **_YBE_IDS,
           "rmatrix.trivial": "R = I x I intertwines the primitive coproducts (undeformed Bbar)"},
          {"Bq": _run_r_series, "Bbarq": _run_r_series, "B": _run_r0_axioms,
           "Bbar": _run_trivial_r},
          "no universal R-matrix for this family", parity_head=True),
    Suite("ybe", _YBE_IDS,
          {"Bq": _run_ybe_series, "Bbarq": _run_ybe_series, "B": _run_r0_ybe},
          "no Yang-Baxter content for this family", parity_head=True),
    Suite("casimir", _CASIMIR_IDS, {"B": _run_casimir},
          "closed-form Casimir spectra are stated for the undeformed graded "
          "family"),
    Suite("structure",
          {"structure.anticommute": "{L, a} = {L, ad} = 0 (grade-odd structure element)",
           "structure.delta-closed-form": "homomorphic Delta(L+) matches its closed form",
           "structure.antipode-fixed": "S(L+) = L+ and eps(L+) = lambda1*alpha/4 + lambda4",
           "structure.characteristic": "C(C + (alpha/2 - beta)) + (alpha/4 - beta/2)^2 = eta/lambda1^2, C = ad*a - alpha*N/2",
           "structure.bh-form": "[a, ad] = -(2/lambda1) L + alpha/2",
           "structure.m-element": "[M, b] = -b and [M, bd] = bd for M = bd*b/delta + nu*K/(2 delta) + rho",
           "structure.com": "{b, bd} = 2*delta*M + delta*(1 - 2*rho)",
           "structure.realization": "target (super)algebra relations hold for the embedded generators",
           **_CASIMIR_IDS},
          dict.fromkeys(FAMILIES, _run_structure)),
    Suite("iso",
          {"iso.phi": "phi(a)=b, phi(ad)=bd, phi(N)=2/alpha bd b + nu/alpha K + (delta-beta)/alpha preserves the B relations iff alpha = 2 delta",
           "iso.phi-prime": "phi'(b)=a, phi'(bd)=ad, phi'(K)=-2/nu ad a + alpha/nu N + (beta-delta)/nu preserves the H relations iff alpha = 2 delta",
           "iso.roundtrip": "phi' after phi is the identity on generators",
           "iso.phi-L": "phi(L) = -(lambda1 nu / 2) K",
           "iso.phi-prime-M": "phi'(M) = N + (beta - delta)/(2 delta) + rho"},
          {"H": _run_iso_phi, "B": _run_iso_phi_prime},
          "the generator maps relate the graded and reflection families only"),
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
    if not (np.isfinite(tol) and tol > 0):
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

def run_suite(scenario: Scenario, point: Point, suite: str) -> list:
    """The reports of ``suite`` at ``point``, or its one skip row."""
    entry = SUITES.get(suite)
    if entry is None:
        raise ConfigError(f"unknown suite {suite!r}")
    spec = point.spec
    reason = entry.reason_to_skip(spec)
    if reason:
        return entry.skipped(spec.family, spec.param_dict, point.dim, reason)
    return entry.runners[spec.family](point, scenario.tol_for(suite))


def _run_job(job) -> list:
    """One grid point, as the records (:func:`_records`) of its scenario's
    suites in config order, which share the point's rep and Hopf tables
    until the job ends.  An exception in a suite (building the rep or tables
    included), or a row the report encoder cannot write, becomes that
    suite's one failed ``<suite>.error`` row; the later suites still run."""
    scenario, params, spec, skip_reason = job
    point, records = Point(spec, scenario.dim), []
    for suite in scenario.suites:
        start = time.perf_counter()
        try:
            reports = (SUITES[suite].skipped(scenario.family, params, scenario.dim, skip_reason)
                       if skip_reason else run_suite(scenario, point, suite))
            records += _records(scenario, suite, start, reports)
        except Exception as exc:   # per-check errors must not abort the run
            records += _records(scenario, suite, start, [check_report(
                spec, scenario.dim, f"{suite}.error", str(exc), float("inf"),
                scenario.tol_for(suite),
                branch_note={"error": f"{type(exc).__name__}: {exc}"})])
    return records


def _records(scenario: Scenario, suite: str, start: float, reports: list) -> list:
    """Each report of a suite that began at ``start`` as ``(passed, skipped,
    line)``, the line the row encoded by the report encoder, so no row
    outlives its job.  Each row carries the suite's time over its row count."""
    wall_time = (time.perf_counter() - start) / max(1, len(reports))
    records = []
    for rp in reports:
        row = rp.to_dict()
        row["scenario"] = scenario.name
        row["suite"] = suite
        row["wall_time"] = wall_time
        records.append((row["passed"], row["skipped"], _encode(row)))
    return records


def run_config(config: ScenarioConfig, out_path: str, jobs: int) -> int:
    """Run each grid point of ``config`` as one job (:func:`_run_job`, on
    one worker at ``jobs > 1``) and write the report to ``out_path`` (or
    stdout), each job's rows as soon as that job ends: scenarios in config
    order, each scenario's points in :func:`grid_expand` order, each point's
    suites in config order.  Only the counts outlive a job."""
    points = ((scenario, params, spec, skip_reason)
              for scenario in config.scenarios
              for params, spec, skip_reason in grid_expand(scenario))
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
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                counts = write_report(metadata, pool.map(_run_job, points), fh)
        else:
            counts = write_report(metadata, map(_run_job, points), fh)
    print(f"{counts['passed']} passed, {counts['failed']} failed, "
          f"{counts['skipped']} skipped", file=sys.stderr)
    return 1 if counts["failed"] else 0


def write_report(metadata: dict, job_records, fh) -> dict:
    """Write the report document as JSON and return its counts: the
    ``"metadata"``, then the ``"reports"`` list, one encoded row per line,
    each job's records (:func:`_records`) as ``job_records`` yields them,
    then the ``"counts"`` of passed, failed and skipped rows.

    No string of the whole document is built, and no row is kept.
    """
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    fh.write('{"metadata": ' + _encode(metadata) + ', "reports": [')
    sep = "\n"
    for records in job_records:
        for passed, skipped, _ in records:
            counts["skipped" if skipped else "passed" if passed else "failed"] += 1
        if records:   # one write per job: no string per row beyond its line
            fh.write(sep + ",\n".join(line for *_, line in records))
            sep = ",\n"
    fh.write('\n], "counts": ' + _encode(counts) + "}\n")
    return counts


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
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
    jobs = args.jobs or os.cpu_count() or 1
    return run_config(config, out, jobs)


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
    from .expr import EvalContext, EvalError, ParseError, evaluate, parse
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
            notes.append(f"{', '.join(PARITY_HEAD_FAMILIES)}: "
                         f"{PARITY_HEAD_SKIP}")
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
