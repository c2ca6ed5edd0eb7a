import json

import pytest

from bosonhopf.cli import (ConfigError, Scenario, grid_expand, main,
                           parse_config, run_suite)
from bosonhopf.fock import AlgebraSpec

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


def test_run_all_green_exits_zero(tmp_path):
    path = tmp_path / "green.ini"
    path.write_text("[scenario ok]\nfamily = B\nalpha = 2\nbeta = 1\n"
                    "dim = 8\nsuites = relations, hopf\n")
    assert _run(path, tmp_path / "green.json") == 0


def test_config_error_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


def test_eval_command(capsys):
    code = main(["eval", "--family", "B", "--params", "2,1", "--dim", "8",
                 "--degree", "1", "acomm(a,ad)-(2*N+I)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "windowed norm" in out and "unwindowed norm" in out


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
