import io
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

import bosonhopf
from bosonhopf import cli
from bosonhopf.cli import (ConfigError, Scenario, grid_expand, main,
                           parse_config, run_suite)
from bosonhopf.fock import build_rep
from bosonhopf.report import CheckReport, check_report
from bosonhopf.spec import PARAM_NAMES, AlgebraSpec
from bosonhopf.tensor import kron, total_window_projector, windowed_norm

PASS_SKIP_FAIL_CONFIG = """
[scenario basics]
family = B
alpha = 2, 0
beta = 1
dim = 8
suites = relations, structure

[scenario forced-failure]
family = Bbar
sigma = 1
tau = 2
dim = 8
suites = relations
tol.relations = 1e-30

[scenario graded-r]
family = Bq
alpha = 2
beta = 2, 3
q = 1.3
dim = 6
suites = rmatrix
"""


@pytest.fixture
def mixed_config(tmp_path):
    path = tmp_path / "mixed.ini"
    path.write_text(PASS_SKIP_FAIL_CONFIG)
    return path


# -- config parsing -----------------------------------------------------------

def test_parse_config(mixed_config):
    config = parse_config(str(mixed_config))
    names = [s.name for s in config.scenarios]
    assert names == ["basics", "forced-failure", "graded-r"]
    basics = config.scenarios[0]
    assert basics.family == "B"
    assert basics.param_grid == {"alpha": [2.0, 0.0], "beta": [1.0]}
    assert config.scenarios[1].tol_for("relations") == 1e-30
    assert config.scenarios[1].tol_for("hopf") == 1e-10


def test_parse_config_errors(tmp_path):
    cases = {
        "nofam.ini": "[scenario x]\nalpha = 2\nbeta = 1\n",
        "badfam.ini": "[scenario x]\nfamily = Z\n",
        "badsuite.ini": "[scenario x]\nfamily = B\nalpha = 2\nbeta = 1\n"
                        "suites = nonsense\n",
        "badkey.ini": "[scenario x]\nfamily = B\nalpha = 2\nbeta = 1\n"
                      "color = red\n",
        "missing.ini": "[scenario x]\nfamily = B\nalpha = 2\n",
        "empty.ini": "",
        "runkey.ini": "[run]\nouput = r.json\n[scenario x]\nfamily = B\nalpha = 2\n"
                      "beta = 1\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(str(path))
    with pytest.raises(ConfigError, match="\\[run\\] has unknown key 'ouput'"):
        parse_config(str(tmp_path / "runkey.ini"))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "does-not-exist.ini"))


def test_unused_parameter_warns(tmp_path, capsys):
    """A key naming any family's parameter is a parameter: in a scenario of
    another family it is warned about and ignored; any other key is an
    error, exit code 2."""
    every = {name for names in PARAM_NAMES.values() for name in names}
    for family, own in PARAM_NAMES.items():
        foreign = sorted(every - set(own))
        lines = ["[scenario x]", f"family = {family}", "dim = 4"]
        lines += [f"{name} = {1.3 if name == 'q' else 1}" for name in (*own, *foreign)]
        path = tmp_path / f"{family}.ini"
        path.write_text("\n".join(lines) + "\n")
        assert set(parse_config(str(path)).scenarios[0].param_grid) == set(own)
        err = capsys.readouterr().err
        assert all(f"parameter {name!r} is not used by family {family}; ignored" in err
                   for name in foreign)
        path.write_text("\n".join(lines) + "\ncolour = red\n")
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            parse_config(str(path))
        assert main(["run", "--config", str(path)]) == 2


# -- grid expansion -----------------------------------------------------------

def test_grid_expand_cartesian():
    scen = Scenario(name="g", family="B",
                    param_grid={"alpha": [2.0, 4.0], "beta": [1.0, 2.0]})
    points = grid_expand(scen)
    assert len(points) == 4
    assert all(spec is not None and not reason for _, spec, reason in points)


def test_grid_expand_tags_proviso_violations():
    scen = Scenario(name="g", family="H",
                    param_grid={"delta": [1.0, 0.0], "nu": [0.5],
                                "rho": [0.0]})
    points = grid_expand(scen)
    reasons = {params["delta"]: reason for params, _, reason in points}
    assert reasons[1.0] == ""
    assert "delta = 0" in reasons[0.0]


def test_run_suite_unknown_raises():
    scen = Scenario(name="g", family="B", param_grid={})
    with pytest.raises(ConfigError):
        run_suite(scen, [cli.Point(AlgebraSpec("B", (2, 1)), 8)], "bogus")


# -- end-to-end runs ----------------------------------------------------------

def _run(config_path, out_path, extra=()):
    return main(["run", "--config", str(config_path), "--out", str(out_path),
                 "--jobs", "1", *extra])


def test_full_grid_rows(tmp_path):
    """The end-to-end measure's grid: every row passes or is skipped with
    its reason, and the row set keeps its size."""
    grid = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "full_grid.ini"
    out = tmp_path / "report.json"
    assert _run(grid, out) == 0
    rows = json.loads(out.read_text())["reports"]
    assert len(rows) == 2689
    assert not [row for row in rows if not row["passed"] and not row["skipped"]]
    assert all(row["skip_reason"] for row in rows if row["skipped"])


def test_run_mixed_config_exit_code_and_counts(mixed_config, tmp_path):
    out = tmp_path / "report.json"
    code = _run(mixed_config, out)
    assert code == 1                      # the forced failure scenario
    doc = json.loads(out.read_text())
    assert doc["counts"]["failed"] > 0
    assert doc["counts"]["passed"] > 0
    assert doc["counts"]["skipped"] > 0
    assert doc["metadata"]["grammar_version"]
    assert list(doc) == ["metadata", "reports", "counts"]
    # rows come in run order: scenarios in config order, each scenario's
    # points in grid_expand order, each point's suites in config order
    rows = doc["reports"]
    config = parse_config(str(mixed_config))
    jobs = [(sc.name, params, suite) for sc in config.scenarios
            for params, _, _ in grid_expand(sc) for suite in sc.suites]
    run = [(r["scenario"], r["params"], r["suite"]) for r in rows]
    assert [key for i, key in enumerate(run) if not i or key != run[i - 1]] == jobs
    # skipped rmatrix point carries the proviso citation
    skips = [r for r in rows if r["skipped"] and r["suite"] == "rmatrix"]
    assert skips and "beta/alpha" in skips[0]["skip_reason"]


ONE_POINT_CONFIG = """
[scenario one-point]
family = B
alpha = 2
beta = 2
dim = 4
suites = relations, hopf, delta-hom, rmatrix, structure
"""


def test_a_point_shares_one_set_of_tables_and_a_run_builds_its_own(tmp_path, monkeypatch):
    """The suites of one grid point share one rep and one set of Hopf
    tables, and nothing is kept from one run to the next: after a run whose
    build_tables gave tables with a wrong counit of N (its counit rows
    fail), the next run builds fresh tables and passes."""
    from bosonhopf import fock, hopf
    real, built, reps = hopf.build_tables, [], []

    def wrong(rep):
        tables = real(rep)
        tables.atom("N").eps += 1.0
        built.append(tables)
        return tables

    def counted_rep(*args):
        reps.append(build_rep(*args))
        return reps[-1]

    monkeypatch.setattr(hopf, "build_tables", wrong)
    monkeypatch.setattr(fock, "build_rep", counted_rep)
    path, out = tmp_path / "one.ini", tmp_path / "one.json"
    path.write_text(ONE_POINT_CONFIG)
    assert _run(path, out) == 1
    failed = {r["identity"] for r in json.loads(out.read_text())["reports"] if not r["passed"]}
    assert "hopf.counit.N" in failed
    assert len(built) == 1 and len(reps) == 1     # five suites, four use the tables
    monkeypatch.setattr(hopf, "build_tables", real)
    assert _run(path, out) == 0
    assert len(built) == 1 and len(reps) == 2


def test_run_determinism(mixed_config, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    _run(mixed_config, out1)
    _run(mixed_config, out2)
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    for doc in (d1, d2):
        for row in doc["reports"]:
            row.pop("wall_time")
    assert d1 == d2


def test_report_to_dict_equals_asdict():
    """to_dict gives asdict's value with new top-level dicts, without a deep
    copy, on a report whose branch_note nests a dict and a list."""
    rp = check_report(AlgebraSpec("Bq", (2, 4, 1.3)), 6, "rmatrix.ybe", "R12 R13 R23",
                      2e-9, 1e-8, 0, branch_note={"gaps": {"q": [0.7, 1.3]},
                                                  "diagnosis": "table"})
    row = rp.to_dict()
    assert row == asdict(rp)
    assert row["params"] is not rp.params and row["branch_note"] is not rp.branch_note


def test_report_json_is_unchanged_by_to_dict(mixed_config, tmp_path, monkeypatch):
    """The report file written with to_dict is byte-identical to the one
    written with dataclasses.asdict (job times pinned to 0)."""
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    fast, slow = tmp_path / "to_dict.json", tmp_path / "asdict.json"
    _run(mixed_config, fast)
    monkeypatch.setattr(CheckReport, "to_dict", asdict)
    _run(mixed_config, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert any(r["branch_note"] for r in json.loads(fast.read_text())["reports"])



def test_report_file_matches_the_printed_report(mixed_config, tmp_path, monkeypatch, capsys):
    """The report streamed to --out has the bytes of the report printed
    without it (job times pinned to 0)."""
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "report.json"
    _run(mixed_config, out)
    capsys.readouterr()
    main(["run", "--config", str(mixed_config), "--jobs", "1"])
    assert out.read_text() == capsys.readouterr().out

def test_report_file_parses_to_the_report_document(mixed_config, tmp_path, monkeypatch):
    """The row-per-line report parses to the metadata, then, in run order,
    each job's reports as to_dict() rows plus scenario, suite and wall_time
    (job times pinned to 0), then the counts of those rows, as the same
    document dumped in one piece does."""
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    jobs = []
    records = cli._records

    def keep_reports(scenario, suite, start, reports):
        jobs.append((scenario.name, suite, reports))
        return records(scenario, suite, start, reports)

    monkeypatch.setattr(cli, "_records", keep_reports)
    out = tmp_path / "report.json"
    _run(mixed_config, out)
    rows = [{**rp.to_dict(), "scenario": scenario, "suite": suite, "wall_time": 0.0}
            for scenario, suite, reports in jobs for rp in reports]
    counts = {"passed": sum(r["passed"] and not r["skipped"] for r in rows),
              "failed": sum(not r["passed"] and not r["skipped"] for r in rows),
              "skipped": sum(r["skipped"] for r in rows)}
    assert rows and counts["skipped"] and counts["failed"]
    doc = json.loads(out.read_text())
    assert list(doc) == ["metadata", "reports", "counts"]
    assert doc["metadata"] == {"artifact_version": bosonhopf.__version__,
                               "generator": "bosonhopf run",
                               "grammar_version": bosonhopf.GRAMMAR_VERSION,
                               "schema_version": cli.REPORT_SCHEMA_VERSION}
    assert doc == json.loads(json.dumps(
        {"metadata": doc["metadata"], "reports": rows, "counts": counts},
        default=cli._json_default))
    empty = io.StringIO()
    assert cli.write_report({"v": 1.5 + 2j}, [], empty) == {
        "passed": 0, "failed": 0, "skipped": 0}
    assert json.loads(empty.getvalue()) == {
        "metadata": {"v": {"re": 1.5, "im": 2.0}}, "reports": [],
        "counts": {"passed": 0, "failed": 0, "skipped": 0}}


def test_each_points_rows_are_written_before_the_next_point_runs(mixed_config, monkeypatch):
    """At --jobs 1 a run is one job per scenario, and the report streams
    point by point: when a job hands over a point's rows, the output holds
    the rows of every earlier point and no more; each point's rows are its
    own, its suites in config order; and the counts follow the last row."""
    output = io.StringIO()
    monkeypatch.setattr(sys, "stdout", output)
    job_points, started, written, returned = cli._job_points, [], [], []

    def job(args):
        scenario, entries = args
        started.append((scenario.name, [params for params, _, _ in entries]))
        for records in job_points(args):
            written.append(output.getvalue().count("\n{"))   # one row per line
            returned.append((scenario.name, len(records)))
            yield records

    monkeypatch.setattr(cli, "_job_points", job)
    assert main(["run", "--config", str(mixed_config), "--jobs", "1"]) == 1
    config = parse_config(str(mixed_config))
    assert started == [(sc.name, [params for params, _, _ in grid_expand(sc)])
                       for sc in config.scenarios]
    counts = [n for _, n in returned]
    assert len(written) > 2 and all(counts)
    assert written == [sum(counts[:k]) for k in range(len(counts))]
    rows = json.loads(output.getvalue())["reports"]
    points = [(sc.name, params) for sc in config.scenarios for params, _, _ in grid_expand(sc)]
    suites = {sc.name: list(sc.suites) for sc in config.scenarios}
    for k, (name, params) in enumerate(points):
        mine = rows[written[k]:written[k] + counts[k]]
        assert all((r["scenario"], r["params"]) == (name, params) for r in mine)
        assert list(dict.fromkeys(r["suite"] for r in mine)) == suites[name]
    text = output.getvalue()
    assert text.count("\n{") == sum(counts)
    assert text.rindex('"counts"') > text.rindex("\n{")


def test_jobs_cut_each_scenario_into_contiguous_chunks(mixed_config):
    """--jobs N cuts each scenario's points, in grid order, into at most N
    contiguous chunks of near-equal size; --jobs 1 runs each scenario as one."""
    config = parse_config(str(mixed_config))
    config.scenarios[0].param_grid["beta"] = [1.0, 2.0, 3.0]   # six points: alpha 2, 0
    for jobs in (1, 2, 4, 9):
        chunks = list(cli._jobs(config, jobs))
        for sc in config.scenarios:
            mine = [entries for scenario, entries in chunks if scenario is sc]
            assert [e for chunk in mine for e in chunk] == grid_expand(sc)
            assert len(mine) == min(jobs, len(grid_expand(sc)))
            assert max(map(len, mine)) - min(map(len, mine)) <= 1


UNENCODABLE_CONFIG = """
[scenario notes]
family = B
alpha = 2
beta = 1, 2
dim = 4
suites = relations, hopf
"""


def test_a_row_the_encoder_cannot_write_becomes_its_jobs_error_row(tmp_path, monkeypatch):
    """A runner whose row carries a note no JSON encoder writes fails only
    its own suite at its point, as a relations.error row; the run completes
    and exits 1.
    A numpy bool in a note is written as a JSON bool."""
    def runner(point, tol):
        note = object() if point.spec.beta == 2 else np.bool_(True)
        return [check_report(point.spec, point.dim, "relations.noted", "a noted row", 0.0,
                             tol, branch_note={"note": note})]

    monkeypatch.setitem(cli.SUITES["relations"].runners, "B", cli._per_point(runner))
    path, out = tmp_path / "notes.ini", tmp_path / "notes.json"
    path.write_text(UNENCODABLE_CONFIG)
    assert _run(path, out) == 1
    doc = json.loads(out.read_text())
    rows = {(r["identity"], r["params"]["beta"]): r for r in doc["reports"]
            if r["suite"] == "relations"}
    assert set(rows) == {("relations.noted", 1.0), ("relations.error", 2.0)}
    assert rows["relations.noted", 1.0]["branch_note"] == {"note": True}
    error = rows["relations.error", 2.0]
    assert not error["passed"] and "not JSON-serializable: object" in error["branch_note"]["error"]
    assert doc["counts"]["failed"] == 1
    assert any(r["suite"] == "hopf" and r["params"]["beta"] == 2.0 and r["passed"]
               for r in doc["reports"])


def test_a_failed_tables_build_is_its_suites_error_row_and_is_not_kept(tmp_path, monkeypatch):
    """When building a point's Hopf tables raises, the suite that asked for
    them reports one hopf.error row, the point's later suites still run, and
    the next one to read the tables builds them again."""
    from bosonhopf import hopf
    real, calls = hopf.build_tables, []

    def fails_once(rep):
        calls.append(rep.dim)
        if len(calls) == 1:
            raise RuntimeError("no tables")
        return real(rep)

    monkeypatch.setattr(hopf, "build_tables", fails_once)
    path, out = tmp_path / "once.ini", tmp_path / "once.json"
    path.write_text("[scenario once]\nfamily = B\nalpha = 2\nbeta = 1\n"
                    "dim = 4\nsuites = relations, hopf, delta-hom\n")
    assert _run(path, out) == 1
    rows = json.loads(out.read_text())["reports"]
    failed = [(r["suite"], r["identity"]) for r in rows if not r["passed"]]
    assert failed == [("hopf", "hopf.error")]
    error = next(r for r in rows if r["identity"] == "hopf.error")
    assert error["branch_note"]["error"] == "RuntimeError: no tables"
    assert {r["suite"] for r in rows if r["passed"]} == {"relations", "delta-hom"}
    assert calls == [4, 4]


def test_importing_the_cli_leaves_multiprocessing_out():
    """The process pool is imported only for --jobs > 1."""
    code = ("import sys, bosonhopf.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Runs ``python -m bosonhopf.cli ARGS`` in this process, then prints the
# bosonhopf modules it loaded as the last line of standard output.
_RUN_CLI_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["bosonhopf", *sys.argv[1:]]
try:
    runpy.run_module("bosonhopf.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m.startswith("bosonhopf"))}))
"""


def _fresh_python(code, *args):
    """Run ``python -c code args`` with the package's sources on the path."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


def _cli_in_fresh_process(*args):
    """(exit code, loaded bosonhopf modules, stdout lines) of one CLI process."""
    done = _fresh_python(_RUN_CLI_AND_LIST_MODULES, *args)
    assert done.stdout, done.stderr
    *lines, last = done.stdout.splitlines()
    result = json.loads(last)
    return result["code"], set(result["modules"]), lines


def test_a_run_loads_only_the_modules_its_suites_use(tmp_path):
    """A hopf-only run leaves the expression language, the R-matrices and
    the structure checks unloaded; eval loads the expression language."""
    path = tmp_path / "hopf.ini"
    path.write_text("[scenario h]\nfamily = H\ndelta = 1\nnu = 2\nrho = 0.25\n"
                    "dim = 6\nsuites = hopf\n")
    code, modules, _ = _cli_in_fresh_process("run", "--config", str(path), "--jobs", "1",
                                              "--out", str(tmp_path / "out.json"))
    assert code == 0
    assert "bosonhopf.hopf" in modules
    assert not modules & {"bosonhopf.expr", "bosonhopf.rmatrix", "bosonhopf.structure"}
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["metadata"]["grammar_version"] == bosonhopf.GRAMMAR_VERSION
    code, modules, lines = _cli_in_fresh_process(
        "eval", "--family", "B", "--params", "2,1", "--dim", "6", "acomm(a,ad)")
    assert code == 0 and "bosonhopf.expr" in modules
    assert lines[0].startswith("windowed norm (degree 0): ")
    assert lines[1].startswith("unwindowed norm: ")


def test_every_exported_name_resolves_in_a_fresh_process():
    """The package re-exports its names lazily; each one resolves, and
    ``import *`` binds them all."""
    code = ("import bosonhopf; ns = {}; exec('from bosonhopf import *', ns); "
            "missing = [n for n in bosonhopf.__all__ if n not in ns "
            "or getattr(bosonhopf, n) is not ns[n]]; "
            "assert bosonhopf.__all__ and not missing, missing")
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    with pytest.raises(AttributeError):
        bosonhopf.no_such_name


PARALLEL_CONFIG = """
[scenario graded]
family = B
alpha = 2
beta = 2
dim = 6
suites = rmatrix, ybe, hopf

[scenario graded-deformed]
family = Bq
alpha = 2
beta = 4
q = 1.3
dim = 6
suites = rmatrix, ybe, hopf

[scenario ungraded-deformed]
family = Bbarq
sigma = 1
tau = 1
q = 0.7
dim = 6
suites = rmatrix, ybe, hopf
"""


def test_parallel_run_matches_serial_run(tmp_path):
    """A --jobs 2 report equals the --jobs 1 report except for wall_time."""
    path = tmp_path / "parallel.ini"
    path.write_text(PARALLEL_CONFIG)
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--jobs", jobs]) == 0
        doc = json.loads(out.read_text())
        for row in doc["reports"]:
            row.pop("wall_time")
        docs.append(doc)
    assert docs[0]["counts"]["passed"] > 0
    assert docs[0] == docs[1]


def test_a_parallel_run_loads_each_module_once_before_its_workers_fork(tmp_path):
    """--jobs 2 loads the modules the config's suites use in the parent,
    before the pool forks, so no worker imports one again: under
    ``python -X importtime`` each is imported once."""
    path = tmp_path / "points.ini"
    path.write_text(EACH_POINT_ONCE_CONFIG)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "bosonhopf.cli", "run",
                           "--config", str(path), "--jobs", "2",
                           "--out", str(tmp_path / "out.json")],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    for module in ("numpy", "fock", "report", "expr", "hopf", "rmatrix", "structure"):
        name = module if module == "numpy" else f"bosonhopf.{module}"
        assert imported.count(name) == 1, (name, imported.count(name))


EACH_POINT_ONCE_CONFIG = """
[scenario graded]
family = B
alpha = 2, 4
beta = 1, 2
dim = 4
suites = relations, hopf, delta-hom, rmatrix, ybe, structure
"""


def test_every_point_is_built_once_at_any_jobs(tmp_path, monkeypatch):
    """A grid point's suites run in one job, so --jobs 2 builds as many
    reps as --jobs 1: one per point (its YBE rep is the point's own at
    dim 4).  The counting wrapper is installed before the fork-started
    pool and logs each call to a file."""
    log = tmp_path / "builds.log"

    def logged_build_rep(spec, dim):
        with open(log, "a") as fh:
            fh.write(f"{spec} {dim}\n")
        return build_rep(spec, dim)

    from bosonhopf import fock
    monkeypatch.setattr(fock, "build_rep", logged_build_rep)
    path = tmp_path / "points.ini"
    path.write_text(EACH_POINT_ONCE_CONFIG)
    builds = {}
    for jobs in ("1", "2"):
        log.write_text("")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / f"jobs{jobs}.json"),
                     "--jobs", jobs]) == 0
        builds[jobs] = sorted(log.read_text().splitlines())
    assert len(builds["1"]) == 4
    assert builds["2"] == builds["1"]


def test_run_all_green_exits_zero(tmp_path):
    path = tmp_path / "green.ini"
    path.write_text("[scenario ok]\nfamily = B\nalpha = 2\nbeta = 1\n"
                    "dim = 8\nsuites = relations, hopf\n")
    assert _run(path, tmp_path / "green.json") == 0


def test_config_error_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


GREEN_KEYS = {"family": "B", "alpha": "2", "beta": "1", "dim": "4", "suites": "relations"}


def _scenario_file(tmp_path, changes: dict):
    """A one-scenario config of GREEN_KEYS with ``changes`` applied."""
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario x]\n" + "".join(
        f"{key} = {value}\n" for key, value in {**GREEN_KEYS, **changes}.items()))
    return path


@pytest.mark.parametrize("key, value", [
    ("alpha", "2, abc"), ("dim", "four"), ("dim", "2.5"), ("tol", "small"),
    ("tol.hopf", "tight")])
def test_a_malformed_number_is_a_config_error(tmp_path, capsys, key, value):
    """A value that is not a number exits 2, the usage-error code, with a
    message naming its key: not 1, which means a check failed."""
    path = _scenario_file(tmp_path, {key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(str(path))
    assert _run(path, tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert f"{key} = " in err and "is not a valid" in err
    assert not (tmp_path / "out.json").exists()


def test_a_config_dim_below_two_is_a_config_error(tmp_path, capsys):
    """A Fock space needs two levels: dim = 1 in a config exits 2 before any
    check runs, instead of reporting a failed relations.error row."""
    path = _scenario_file(tmp_path, {"dim": "1"})
    with pytest.raises(ConfigError, match="dim"):
        parse_config(str(path))
    assert _run(path, tmp_path / "out.json") == 2
    assert "dim must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text", [
    "[scenario x]\nfamily = B\nalpha = 2\nbeta = 1\n[scenario x]\nfamily = B\n",
    "[scenario x]\nfamily = B\nalpha = 2\nalpha = 4\nbeta = 1\n",
    "family = B\nalpha = 2\nbeta = 1\n"],
    ids=["duplicate-section", "duplicate-key", "missing-section-header"])
def test_a_malformed_ini_is_a_config_error(tmp_path, capsys, text):
    """An INI file that configparser cannot read exits 2, the usage-error
    code, with the parser's message: not 1 with a traceback."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="cannot parse config file"):
        parse_config(str(path))
    assert _run(path, tmp_path / "out.json") == 2
    assert "cannot parse config file" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_a_percent_sign_in_the_out_path_is_taken_as_written(tmp_path):
    """A "%" in a config value is no interpolation syntax: the report goes
    to the path as written and the run exits 0."""
    out = tmp_path / "100%.json"
    path = tmp_path / "percent.ini"
    path.write_text(f"[run]\nout = {out}\n\n[scenario x]\n" + "".join(
        f"{key} = {value}\n" for key, value in GREEN_KEYS.items()))
    assert main(["run", "--config", str(path), "--jobs", "1"]) == 0
    assert json.loads(out.read_text())["counts"]["passed"] > 0


def test_a_percent_sign_in_a_number_is_a_config_error(tmp_path, capsys):
    """"2%" is a malformed number like any other: exit 2 with a message
    naming its key, not an interpolation traceback."""
    path = _scenario_file(tmp_path, {"alpha": "2%"})
    assert _run(path, tmp_path / "out.json") == 2
    assert "alpha = '2%' is not a valid float" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", ["inf", "0", "-1e-8", "nan"])
@pytest.mark.parametrize("key", ["tol", "tol.hopf"])
def test_a_tolerance_must_be_finite_and_positive(tmp_path, capsys, key, value):
    """inf would pass every finite residual, and 0, a negative tolerance or
    nan would fail every row: a config that sets one exits 2."""
    path = _scenario_file(tmp_path, {key: value})
    with pytest.raises(ConfigError, match=key):
        parse_config(str(path))
    assert _run(path, tmp_path / "out.json") == 2
    assert "must be a finite positive tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", ["inf", "0", "-0.001", "nan"])
def test_a_tol_option_must_be_finite_and_positive(tmp_path, capsys, value):
    """--tol 0 is refused, not ignored as an unset option, and so are
    --tol inf, a negative tolerance and nan."""
    green = _scenario_file(tmp_path, {})
    assert _run(green, tmp_path / "out.json", ("--tol", value)) == 2
    assert "--tol must be a finite positive tolerance" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert _run(green, tmp_path / "out.json", ("--tol", "1e-8")) == 0


@pytest.mark.parametrize("dim", ["1", "-3", "0"])
def test_a_dim_option_below_two_is_a_config_error(tmp_path, capsys, dim):
    """--dim 1 (or 0, or a negative one) over a valid config exits 2 as
    well; --dim 0 is refused, not ignored as an unset option."""
    green = _scenario_file(tmp_path, {})
    assert _run(green, tmp_path / "out.json", ("--dim", dim)) == 2
    assert "--dim must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert _run(green, tmp_path / "out.json", ("--dim", "2")) == 0


@pytest.mark.parametrize("jobs", ["-1", "-3"])
def test_a_negative_jobs_option_is_a_config_error(tmp_path, capsys, jobs):
    """--jobs below 0 exits 2 before any check runs, instead of running
    serially; --jobs 0 still means the available parallelism."""
    green = _scenario_file(tmp_path, {})
    assert _run(green, tmp_path / "out.json", ("--jobs", jobs)) == 2
    assert "--jobs must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
    assert _run(green, tmp_path / "out.json", ("--jobs", "0")) == 0


def test_jobs_zero_counts_the_cpus_this_process_may_run_on(tmp_path, monkeypatch):
    """--jobs 0 runs one job per CPU in the process's affinity mask, not
    per CPU of the machine."""
    jobs = []
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "run_config", lambda config, out, n: jobs.append(n) or 0)
    assert _run(_scenario_file(tmp_path, {}), tmp_path / "out.json", ("--jobs", "0")) == 0
    assert jobs == [1]


@pytest.mark.parametrize("key, value, repeated", [
    ("suites", "relations, hopf, relations", "relations"),
    ("alpha", "2, 4, 2", "2.0"), ("alpha", "2, 2.0", "2.0"),
    ("beta", "1, 3, 3, 1", "1.0, 3.0")])
def test_a_repeated_suite_or_axis_value_is_a_config_error(tmp_path, capsys, key, value,
                                                          repeated):
    """A scenario that names a suite or an axis value twice would emit the
    same rows twice under one key: it exits 2 with a message naming it."""
    path = _scenario_file(tmp_path, {key: value})
    with pytest.raises(ConfigError, match=rf"\[scenario x\] {key} repeats {repeated}$"):
        parse_config(str(path))
    assert _run(path, tmp_path / "out.json") == 2
    assert f"{key} repeats {repeated}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key", ["lambda1", "lambda4", "iso_beta", "iso_nu", "iso_rho"])
def test_the_removed_scenario_options_are_unknown_keys(tmp_path, key):
    """The structure and iso runners fix lambda1 = 1, lambda4 = 0.5 and the
    partner parameters beta = 1, nu = 1, rho = 0: a config that sets one
    exits 2."""
    assert _run(_scenario_file(tmp_path, {key: "2"}), tmp_path / "out.json") == 2


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


def test_eval_command(capsys):
    code = main(["eval", "--family", "B", "--params", "2,1", "--dim", "8",
                 "--degree", "1", "acomm(a,ad)-(2*N+I)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "windowed norm" in out and "unwindowed norm" in out


def test_eval_degree_zero_windows_multi_site_expressions(capsys):
    """--degree 0 keeps the two-site states of total level <= D-1, not all
    D^2 states: ad x ad on D = 4 has norm 3 unwindowed, sqrt(6) windowed."""
    code = main(["eval", "--family", "B", "--params", "2,1", "--dim", "4",
                 "--degree", "0", "tensor(ad,ad)"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rep = build_rep(AlgebraSpec("B", (2, 1)), 4)
    ad = rep.raising.to_dense()
    expect = windowed_norm(kron(ad, ad),
                           total_window_projector(4, 2, 0))
    assert expect == pytest.approx(np.sqrt(6.0))
    assert lines[0] == f"windowed norm (degree 0): {expect:.6e}"
    assert lines[1] == f"unwindowed norm: {3.0:.6e}"


def test_eval_command_dump_matrix(capsys):
    code = main(["eval", "--family", "B", "--params", "2,1", "--dim", "4",
                 "--dump-matrix", "N"])
    assert code == 0
    dump_line = capsys.readouterr().out.strip().splitlines()[-1]
    dump = json.loads(dump_line)
    assert dump["shape"] == [4, 4]
    assert dump["real"][2][2] == pytest.approx(2.0)


def test_eval_command_errors(capsys):
    assert main(["eval", "--family", "B", "--params", "2,1", "a + zz"]) == 2
    assert "unknown identifier" in capsys.readouterr().err
    assert main(["eval", "--family", "B", "--params", "oops", "a"]) == 2
    assert main(["eval", "--family", "B", "--params", "2,1,9", "a"]) == 2
    assert main(["eval", "--family", "B", "--params", "2,1", "--dim", "1", "a"]) == 2
    assert "--dim must be at least 2" in capsys.readouterr().err


def test_eval_of_a_point_without_a_rep_is_a_usage_error(capsys):
    """Bbarq at sigma = 0 has no rep (its weights divide by [sigma/2]_q = 0):
    the spec refuses it and eval exits 2 with an error line, no traceback."""
    assert main(["eval", "--family", "Bbarq", "--params", "0,1,0.7", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "positivity" in captured.err
    assert captured.out == ""
    assert main(["eval", "--family", "Bbar", "--params", "0,1", "a"]) == 0


@pytest.mark.parametrize("degree", ["4", "-1"])
def test_eval_degree_outside_the_levels_is_a_usage_error(capsys, degree):
    """--degree must lie in [0, dim): 4 on dim 4 and -1 exit 2 with a message."""
    code = main(["eval", "--family", "B", "--params", "2,1", "--dim", "4",
                 "--degree", degree, "a"])
    assert code == 2
    captured = capsys.readouterr()
    assert "--degree must lie in [0, 4)" in captured.err
    assert captured.out == ""


def test_list_identities(capsys):
    assert main(["list-identities"]) == 0
    out = capsys.readouterr().out
    assert "rmatrix.ybe" in out and "hopf.coassoc" in out


def test_structure_tolerance_override_reaches_every_row(tmp_path):
    path = tmp_path / "tight.ini"
    path.write_text("[scenario tight]\nfamily = H\ndelta = 1\nnu = 0.5\n"
                    "rho = 0\ndim = 8\nsuites = structure\n"
                    "tol.structure = 1e-30\n")
    out = tmp_path / "tight.json"
    assert _run(path, out) == 1
    rows = json.loads(out.read_text())["reports"]
    assert any(r["identity"].startswith("structure.m-element") for r in rows)
    assert all(not r["passed"] and r["tol"] == 1e-30 for r in rows)


def test_r_suite_builds_ybe_at_the_ybe_suite_dimension(tmp_path):
    """Below YBE_DIM the rmatrix suite's Yang-Baxter row uses the
    scenario's own dimension, as the ybe suite does."""
    path = tmp_path / "small.ini"
    path.write_text("[scenario small]\nfamily = Bbarq\nsigma = 1\ntau = 2\n"
                    "q = 1.3\ndim = 4\nsuites = rmatrix, ybe\n")
    out = tmp_path / "small.json"
    assert _run(path, out) == 0
    rows = [r for r in json.loads(out.read_text())["reports"]
            if r["identity"] == "rmatrix.ybe"]
    assert sorted(r["suite"] for r in rows) == ["rmatrix", "ybe"]
    assert {r["dim"] for r in rows} == {4}


def test_a_grade_shift_that_rounds_to_an_integer_runs_the_parity_head_suites(tmp_path):
    """At B (0.1, 0.3), beta/alpha evaluates to 2.9999999999999996: an
    integer to 1e-12, as build_r0 takes it, so the rmatrix and ybe suites
    run R0's rows rather than skipping the point, and every row passes."""
    assert 0.3 / 0.1 != 3.0
    path = tmp_path / "near.ini"
    path.write_text("[scenario near]\nfamily = B\nalpha = 0.1\nbeta = 0.3\n"
                    "dim = 6\nsuites = rmatrix, ybe\n")
    out = tmp_path / "near.json"
    assert _run(path, out) == 0
    rows = json.loads(out.read_text())["reports"]
    assert sorted((r["suite"], r["identity"]) for r in rows) == [
        ("rmatrix", "rmatrix.fusion-left"), ("rmatrix", "rmatrix.fusion-right"),
        ("rmatrix", "rmatrix.inverse"), ("ybe", "rmatrix.ybe")]
    assert all(r["passed"] and not r["skipped"] for r in rows)


CATALOG_CONFIG = """
[scenario graded]
family = B
alpha = 2, 0
beta = 2

[scenario ungraded]
family = Bbar
sigma = 1
tau = 1

[scenario graded-deformed]
family = Bq
alpha = 2
beta = 2, 3
q = 1.3

[scenario ungraded-deformed]
family = Bbarq
sigma = 1
tau = 1
q = 1.3

[scenario reflection]
family = H
delta = 1
nu = 0.5
rho = 0
"""


@pytest.fixture(scope="module")
def catalog_rows(tmp_path_factory):
    """The rows of a run of CATALOG_CONFIG at dim 4."""
    tmp = tmp_path_factory.mktemp("catalog")
    (tmp / "catalog.ini").write_text(CATALOG_CONFIG)
    _run(tmp / "catalog.ini", tmp / "catalog.json", ("--dim", "4"))
    return json.loads((tmp / "catalog.json").read_text())["reports"]


def _covers(prefix, ident):
    return ident == prefix or ident.startswith(prefix + ".")


def test_list_identities_matches_emitted_ids(catalog_rows, capsys):
    """Every listed id is emitted by a run of every suite on every family,
    and every emitted id is listed.  The config adds a non-integer
    beta/alpha point and an alpha = 0 proviso point to reach the skips."""
    assert main(["list-identities"]) == 0
    table = capsys.readouterr().out.split("\n\n")[0]
    listed = [line.split()[0] for line in table.splitlines()]
    emitted = {r["identity"] for r in catalog_rows}
    assert [p for p in listed if not any(_covers(p, i) for i in emitted)] == []
    assert [i for i in emitted if not i.endswith(".error")
            and not any(_covers(p, i) for p in listed)] == []


def test_each_id_states_the_identity_list_identities_gives(catalog_rows):
    """Where the rows of a registry id share one reference text, that text
    is the registry's, the one ``list-identities`` prints.  The ids whose
    rows state one relation each are named, so the check cannot pass by
    finding no id with one text."""
    registry = {key: text for suite in cli.SUITES.values() for key, text in suite.ids.items()}
    texts = {}
    for row in catalog_rows:
        if not row["identity"].endswith((".skipped", ".error")):
            key = max((k for k in registry if _covers(k, row["identity"])), key=len)
            texts.setdefault(key, set()).add(row["reference"])
    assert texts.keys() == registry.keys()
    assert {k for k, t in texts.items() if len(t) > 1} == {
        "relations", "hopf.delta-hom", "hopf.s-antihom", "iso.phi", "iso.phi-prime",
        "structure.realization"}
    assert {k: t for k, t in texts.items() if len(t) == 1 and t != {registry[k]}} == {}


DIM_TWO_CONFIG = """
[scenario graded]
family = B
alpha = 2
beta = 1
dim = 2

[scenario graded-deformed]
family = Bq
alpha = 2
beta = 2
q = 1.3
dim = 2
"""


def test_an_empty_window_skips_its_row_not_its_suite(tmp_path):
    """At dim = 2 the windows of raise degree 2 hold no state.  Each row on
    such a window (coassociativity of ad, the sl2 rows) is skipped with a
    reason naming the degree and dim; every other row of its suite, such as
    the counit and antipode rows and the delta-hom and s-antihom rows, whose
    relations raise by at most 1, is computed and passes, and no suite ends
    in an error row."""
    path = tmp_path / "dim2.ini"
    path.write_text(DIM_TWO_CONFIG)
    out = tmp_path / "dim2.json"
    assert _run(path, out) == 0
    rows = json.loads(out.read_text())["reports"]
    assert [r["identity"] for r in rows if r["identity"].endswith(".error")] == []
    empty = [r for r in rows if r["skipped"] and not r["identity"].endswith(".skipped")]
    assert {r["identity"] for r in empty} >= {"hopf.coassoc.ad", "structure.casimir-sl2"}
    for r in empty:
        assert r["window_degree"] == 2
        assert r["skip_reason"] == "the validity window of raise degree 2 is empty at dim 2"
    computed = [r for r in rows if not r["skipped"]]
    assert all(r["passed"] and r["window_degree"] < 2 for r in computed)
    assert {(r["scenario"], r["identity"]) for r in computed} >= {
        (sc, f"hopf.{check}.{name}") for sc in ("graded", "graded-deformed")
        for check in ("coassoc", "counit", "antipode", "antipode-inverse")
        for name in ("a", "N")} | {
        ("graded", "hopf.delta-hom.B.ladder"), ("graded-deformed", "hopf.s-antihom.Bq.ladder")}
