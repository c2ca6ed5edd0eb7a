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

from bosonhopf import cli
from bosonhopf.cli import (ConfigError, Scenario, grid_expand, main,
                           parse_config, run_suite)
from bosonhopf.fock import AlgebraSpec, build_rep
from bosonhopf.report import CheckReport, check_report
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
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(str(path))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "does-not-exist.ini"))


def test_unused_parameter_warns(tmp_path, capsys):
    path = tmp_path / "warn.ini"
    path.write_text("[scenario x]\nfamily = Bbar\nsigma = 1\ntau = 2\n"
                    "q = 0.7\n")
    config = parse_config(str(path))
    assert "q" not in config.scenarios[0].param_grid
    assert "ignored" in capsys.readouterr().err


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
        run_suite(scen, AlgebraSpec("B", (2, 1)), "bogus")


# -- end-to-end runs ----------------------------------------------------------

def _run(config_path, out_path, extra=()):
    return main(["run", "--config", str(config_path), "--out", str(out_path),
                 "--jobs", "1", *extra])


def test_run_mixed_config_exit_code_and_counts(mixed_config, tmp_path):
    out = tmp_path / "report.json"
    code = _run(mixed_config, out)
    assert code == 1                      # the forced failure scenario
    doc = json.loads(out.read_text())
    assert doc["counts"]["failed"] > 0
    assert doc["counts"]["passed"] > 0
    assert doc["counts"]["skipped"] > 0
    assert doc["metadata"]["grammar_version"]
    rows = doc["reports"]
    keys = [(r["scenario"], r["suite"], r["identity"]) for r in rows]
    assert keys == sorted(keys)
    # skipped rmatrix point carries the proviso citation
    skips = [r for r in rows if r["skipped"] and r["suite"] == "rmatrix"]
    assert skips and "beta/alpha" in skips[0]["skip_reason"]


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
    """The row-per-line report parses to the document run_config built, as
    the same document dumped in one piece does."""
    docs = []
    write = cli.write_report

    def keep(doc, fh):
        docs.append(doc)
        write(doc, fh)

    monkeypatch.setattr(cli, "write_report", keep)
    out = tmp_path / "report.json"
    _run(mixed_config, out)
    (doc,) = docs
    assert doc["reports"] and doc["counts"]["skipped"] and doc["counts"]["failed"]
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(doc, default=cli._json_default))
    empty = io.StringIO()
    write({"counts": {}, "metadata": {"v": 1.5 + 2j}, "reports": []}, empty)
    assert json.loads(empty.getvalue()) == {
        "counts": {}, "metadata": {"v": {"re": 1.5, "im": 2.0}}, "reports": []}


def test_importing_the_cli_leaves_multiprocessing_out():
    """The process pool is imported only for --jobs > 1."""
    code = ("import sys, bosonhopf.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    expect = windowed_norm(kron(rep.raising, rep.raising),
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


def test_list_identities_matches_emitted_ids(tmp_path, capsys):
    """Every listed id is emitted by a run of every suite on every family,
    and every emitted id is listed.  The config adds a non-integer
    beta/alpha point and an alpha = 0 proviso point to reach the skips."""
    assert main(["list-identities"]) == 0
    table = capsys.readouterr().out.split("\n\n")[0]
    listed = [line.split()[0] for line in table.splitlines()]
    path = tmp_path / "catalog.ini"
    path.write_text(CATALOG_CONFIG)
    out = tmp_path / "catalog.json"
    _run(path, out, ("--dim", "4"))
    emitted = {r["identity"] for r in json.loads(out.read_text())["reports"]}

    def covers(prefix, ident):
        return ident == prefix or ident.startswith(prefix + ".")

    assert [p for p in listed if not any(covers(p, i) for i in emitted)] == []
    assert [i for i in emitted if not i.endswith(".error")
            and not any(covers(p, i) for p in listed)] == []


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
    such a window (coassociativity of ad, delta-hom, s-antihom, the sl2
    rows) is skipped with a reason naming the degree and dim; every other
    row of its suite, such as the counit and antipode rows, is computed and
    passes, and no suite ends in an error row."""
    path = tmp_path / "dim2.ini"
    path.write_text(DIM_TWO_CONFIG)
    out = tmp_path / "dim2.json"
    assert _run(path, out) == 0
    rows = json.loads(out.read_text())["reports"]
    assert [r["identity"] for r in rows if r["identity"].endswith(".error")] == []
    empty = [r for r in rows if r["skipped"] and not r["identity"].endswith(".skipped")]
    assert {r["identity"] for r in empty} >= {
        "hopf.coassoc.ad", "hopf.delta-hom.B.ladder", "hopf.s-antihom.Bq.ladder",
        "structure.casimir-sl2"}
    for r in empty:
        assert r["window_degree"] == 2
        assert r["skip_reason"] == "the validity window of raise degree 2 is empty at dim 2"
    computed = [r for r in rows if not r["skipped"]]
    assert all(r["passed"] and r["window_degree"] < 2 for r in computed)
    assert {(r["scenario"], r["identity"]) for r in computed} >= {
        (sc, f"hopf.{check}.{name}") for sc in ("graded", "graded-deformed")
        for check in ("coassoc", "counit", "antipode", "antipode-inverse")
        for name in ("a", "N")}
