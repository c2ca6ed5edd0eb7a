import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables
from bosonhopf.fock import SpecError
from bosonhopf.rmatrix import (BBARQ_DEFAULT, BBARQ_PRINTED, BQ_DEFAULT,
                               BranchChoice, branch_lattice, build_r,
                               build_r0, check_classical_limit, check_r_axioms,
                               check_quasitriangularity, check_trivial_r,
                               check_ybe, diagnose_branches, run_r_checks)
from grids import BBARQ_GRID, BBAR_GRID, BQ_INTEGER_GRID


def _setup(family, params, dim=8):
    rep = build_rep(AlgebraSpec(family, params), dim)
    return rep, build_tables(rep)


# -- the graded series --------------------------------------------------------

def test_bq_full_suite_on_integer_grid():
    for params in BQ_INTEGER_GRID:
        rep, tables = _setup("Bq", params)
        for report in run_r_checks(rep, tables, 1e-8):
            assert report.passed, report.summary()


def test_bq_default_branch_is_literal():
    assert BQ_DEFAULT.bracket_base == "x"
    assert BQ_DEFAULT.note()["dressing_rate"] == "c/2"


def test_bq_rejects_noninteger_grade_shift():
    rep = build_rep(AlgebraSpec("Bq", (2, 1, 1.3)), 6)
    with pytest.raises(SpecError):
        build_r(rep)
    with pytest.raises(SpecError):
        build_r0(rep)


def test_bq_misread_bracket_base_fails():
    """Reading the factorial denominator as (q - 1/q) breaks the intertwiner."""
    rep, tables = _setup("Bq", (2, 2, 1.3))
    bad = BranchChoice(bracket_base="q")
    r = build_r(rep, branch=bad)
    worst = max(rp.residual for rp in check_quasitriangularity(r, tables, 1e-8))
    assert worst > 1e-2


# -- the ungraded series ------------------------------------------------------

def test_bbarq_full_suite_on_grid():
    for params in BBARQ_GRID:
        rep, tables = _setup("Bbarq", params)
        for report in run_r_checks(rep, tables, 1e-8):
            assert report.passed, report.summary()


def test_bbarq_printed_branch_fails_everywhere():
    rep, tables = _setup("Bbarq", (2, 1, 1.3))
    r = build_r(rep, branch=BBARQ_PRINTED)
    worst = max(rp.residual for rp in check_quasitriangularity(r, tables, 1e-8))
    assert worst > 1e-1
    # and the default branch records its deviation from the printed factors
    r_good = build_r(rep)
    assert "printed_factor_deviation" in r_good.branch_note


def test_bbarq_default_branch_is_unique_passer():
    rep, tables = _setup("Bbarq", (1, 2, 0.7), dim=6)
    rows, table = diagnose_branches(rep, tables)
    passing = [b for b, res in rows if res < 1e-8]
    assert BBARQ_DEFAULT in passing
    # any other passing branch is a reparameterization of the same matrix
    reference = build_r(rep).matrix
    for branch in passing:
        assert np.abs(build_r(rep, branch=branch).matrix
                      - reference).max() < 1e-8
    assert "branch diagnosis" in table


def test_diagnosis_table_attached_on_failure():
    rep, tables = _setup("Bbarq", (1, 2, 0.7), dim=6)
    reports = run_r_checks(rep, tables, tol=1e-30)   # force failures
    failed = [rp for rp in reports if not rp.passed]
    assert failed
    assert all("diagnosis" in rp.branch_note for rp in failed)


# -- R0 and the trivial R -----------------------------------------------------

def test_r0_matrix_values():
    rep = build_rep(AlgebraSpec("B", (2, 2)), 4)
    r0 = build_r0(rep).matrix
    # diagonal: -1 on odd x odd level pairs, +1 elsewhere
    signs = np.array([(-1.0) ** (i * j) for i in range(1, 5)
                      for j in range(1, 5)])
    assert np.allclose(np.diag(r0), signs)


def test_r0_axioms_and_ybe():
    rep, tables = _setup("B", (2, 2), dim=4)
    r0 = build_r0(rep)
    for report in check_r_axioms(r0, tables, 1e-12):
        assert report.passed, report.summary()
    ybe = check_ybe(r0, 1e-12)
    assert ybe.passed, ybe.summary()


def test_trivial_r_for_ungraded_family():
    for params in BBAR_GRID:
        if params[0] == 0:
            continue
        rep, tables = _setup("Bbar", params, dim=6)
        report = check_trivial_r(tables)
        assert report.passed, report.summary()


# -- classical limit ----------------------------------------------------------

def test_classical_limit_bq():
    report = check_classical_limit(
        lambda q: build_rep(AlgebraSpec("Bq", (1, 1, q)), 6))
    gaps = report.branch_note["gaps"]
    assert gaps[0] > gaps[1] > gaps[2]
    assert report.passed, report.summary()


def test_classical_limit_detects_non_monotone():
    report = check_classical_limit(
        lambda q: build_rep(AlgebraSpec("Bq", (1, 1, q)), 6),
        q_values=(1.001, 1.01, 1.1))
    assert not report.passed


# -- branch lattice -----------------------------------------------------------

def test_branch_lattice_sizes():
    assert len(branch_lattice("Bq")) == 32
    assert len(branch_lattice("Bbarq")) == 16   # no quarter phase


def test_sweedler_terms_reassemble():
    rep, _ = _setup("Bq", (2, 2, 1.3), dim=5)
    r = build_r(rep)
    total = sum(c * np.kron(left, right)
                for c, left, right in r.sweedler_terms())
    assert np.abs(total - r.matrix).max() < 1e-8 * np.abs(r.matrix).max()
