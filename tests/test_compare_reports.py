import copy
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _row(identity, residual, passed=True, suite="hopf"):
    return {"identity": identity, "family": "B", "params": {"alpha": 2.0, "beta": 1.0},
            "dim": 8, "suite": suite, "passed": passed, "skipped": False,
            "residual": residual}


BASE = {"reports": [_row("hopf.coassoc.a", 0.0), _row("hopf.counit.a", 1e-14),
                    _row("rmatrix.ybe", 2e-15, suite="rmatrix"),
                    _row("rmatrix.ybe", 2e-15, suite="ybe"),
                    {**_row("relations.skipped", float("nan"), passed=False),
                     "skipped": True}]}


def _compare(tmp_path, new):
    paths = []
    for name, doc in (("base.json", BASE), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return compare_reports.main(paths)


def test_identical_reports_and_rounding_noise_pass(tmp_path, capsys):
    assert _compare(tmp_path, copy.deepcopy(BASE)) == 0
    new = copy.deepcopy(BASE)
    new["reports"][1]["residual"] += 1e-15
    assert _compare(tmp_path, new) == 0
    assert "rows: base 5, new 5" in capsys.readouterr().out


def test_rows_are_matched_by_key_and_a_row_out_of_place_fails(tmp_path, capsys):
    """Rows are matched by key, not position: the same rows in another order
    match and keep their residuals, but the order is part of the report's
    contract, so the run fails and names the first row out of place."""
    new = copy.deepcopy(BASE)
    new["reports"].reverse()
    assert _compare(tmp_path, new) == 1
    out = capsys.readouterr().out
    assert "rows: base 5, new 5" in out and "largest absolute residual change: 0" in out
    assert "unmatched rows: 0" in out
    assert "row out of place: shared row 0 is ('relations.skipped'" in out
    assert "in new, ('hopf.coassoc.a'" in out


def test_a_row_out_of_place_is_named_among_the_rows_both_hold(tmp_path, capsys):
    """A missing row does not shift the order check: the rows both reports
    hold are compared in order, and the first swapped pair is named."""
    new = copy.deepcopy(BASE)
    rows = new["reports"]
    del rows[0]
    assert _compare(tmp_path, new) == 1
    assert "row order: same" in capsys.readouterr().out
    rows[1], rows[2] = rows[2], rows[1]   # the rmatrix and ybe suites' rows swapped
    assert _compare(tmp_path, new) == 1
    out = capsys.readouterr().out
    assert "row out of place: shared row 1 is ('rmatrix.ybe'" in out and "'ybe') in new" in out


def test_largest_changes_name_their_rows(tmp_path, capsys):
    """The largest absolute and the largest relative change can sit on
    different rows; each is printed with its row key and both residuals."""
    new = copy.deepcopy(BASE)
    new["reports"][1]["residual"] = 1.1e-14   # 1e-15 absolute, 0.1 relative
    new["reports"][2]["residual"] = 2.5e-15   # 5e-16 absolute, 0.25 relative
    assert _compare(tmp_path, new) == 0
    lines = capsys.readouterr().out.splitlines()
    absolute = next(l for l in lines if l.startswith("largest absolute"))
    relative = next(l for l in lines if l.startswith("largest relative"))
    assert "'hopf.counit.a'" in absolute and "(1e-14 -> 1.1e-14)" in absolute
    assert "'rmatrix.ybe'" in relative and "'rmatrix')" in relative
    assert "2.500e-01" in relative and "(2e-15 -> 2.5e-15)" in relative
    assert _compare(tmp_path, copy.deepcopy(BASE)) == 0
    assert "largest relative residual change: 0" in capsys.readouterr().out


@pytest.mark.parametrize("change", ["flip", "missing", "extra", "residual", "inf"])
def test_differences_are_caught(tmp_path, change):
    new = copy.deepcopy(BASE)
    rows = new["reports"]
    if change == "flip":
        rows[0]["passed"] = False
    elif change == "missing":
        del rows[3]
    elif change == "extra":
        rows.append(_row("hopf.coassoc.a", 0.0))
    elif change == "residual":
        rows[2]["residual"] += 1e-9
    else:
        rows[0]["residual"] = float("inf")
    assert _compare(tmp_path, new) == 1
