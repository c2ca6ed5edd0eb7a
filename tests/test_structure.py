import dataclasses

import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables
from bosonhopf import structure
from bosonhopf.fock import SpecError
from bosonhopf.structure import (build_L, build_M, build_realization,
                                 bh_form_check, casimir_spectrum,
                                 characteristic_identity_residual,
                                 check_L_properties, check_realization,
                                 com_check, iso_phi, iso_phi_prime,
                                 phi_images, phi_prime_images,
                                 run_structure_checks,
                                 solve_lambda_constraints)
from grids import (B_GRID, BBARQ_GRID, BBAR_GRID, BQ_GRID, H_GRID)


def _rep(family, params, dim=12):
    return build_rep(AlgebraSpec(family, params), dim)


# -- lambda constraints and the grade-odd element -----------------------------

def test_lambda_constraints():
    lam2, lam3 = solve_lambda_constraints(2.0, 1.0, 1.0)
    assert lam2 == pytest.approx(-1.0)
    assert lam3 == pytest.approx(0.0)
    lam2, lam3 = solve_lambda_constraints(4.0, 1.0, 0.5)
    assert lam2 == pytest.approx(-1.0)
    assert lam3 == pytest.approx(0.25)


def test_build_L_rejects_zero_element():
    rep = _rep("B", (2, 1))
    with pytest.raises(SpecError):
        build_L(rep, 0.0, 0.0)


def test_build_L_diagonal_eigenvalue():
    """L+ acts as (lam1 (alpha/4 - beta/2) + lam4 (-1)^(beta/alpha)) (-1)^n."""
    alpha, beta, lam1, lam4 = 2.0, 2.0, 1.0, 0.5
    rep = _rep("B", (alpha, beta))
    elem = build_L(rep, lam1, lam4)
    scale = lam1 * (alpha / 4 - beta / 2) + lam4 * (-1.0) ** (beta / alpha)
    expect = scale * (-1.0) ** np.arange(rep.dim)
    assert np.allclose(np.diag(elem.matrix), expect, atol=1e-12)
    off = elem.matrix - np.diag(np.diag(elem.matrix))
    assert np.abs(off).max() < 1e-12


def test_L_properties_grid():
    for params in B_GRID:
        rep = _rep("B", params)
        tables = build_tables(rep)
        lam4 = 0.5 if float(params[1] / params[0]).is_integer() else 0.0
        elem = build_L(rep, 1.0, lam4)
        for report in check_L_properties(elem, rep, tables, 1e-10):
            assert report.passed, report.summary()


def test_delta_closed_form_sees_a_perturbed_coproduct():
    """Negative control: the first Sweedler coefficient of Delta(ad) scaled by
    1 + 1e-6 breaches structure.delta-closed-form on B (2, 3) at D = 8
    (1.1e-6 against 1e-10) and leaves the one-site rows passing."""
    rep = _rep("B", (2, 3), dim=8)
    tables = build_tables(rep)
    elem = build_L(rep, 1.0, 0.0)
    assert all(r.passed for r in check_L_properties(elem, rep, tables, 1e-10))
    tables.atom("ad").delta[0].coeff *= 1 + 1e-6
    failed = [r.identity for r in check_L_properties(elem, rep, tables, 1e-10)
              if not r.passed]
    assert failed == ["structure.delta-closed-form"]


def test_characteristic_identity_grid():
    for params in B_GRID:
        rep = _rep("B", params)
        report = characteristic_identity_residual(rep, 1.0, 1e-10)
        assert report.passed, report.summary()
        eta = report.branch_note["eta_over_lam1_sq"]
        assert eta == pytest.approx((params[0] / 4 - params[1] / 2) ** 2)


def test_bh_form_grid():
    for params in B_GRID:
        report = bh_form_check(_rep("B", params), 1.0, 1e-10)
        assert report.passed, report.summary()


# -- the reflection-family number element -------------------------------------

def test_build_M_matches_number_operator():
    for params in H_GRID:
        rep = _rep("H", params)
        elem, reports = build_M(rep)
        assert np.abs(elem.matrix - rep.number).max() < 1e-10
        for report in reports:
            assert report.passed, report.summary()


def test_com_check_grid():
    for params in H_GRID:
        report = com_check(_rep("H", params), 1e-10)
        assert report.passed, report.summary()


def test_com_check_builds_only_its_own_row(monkeypatch):
    """com_check shares M's matrix with build_M, not build_M's ladder rows."""
    built = []
    row = structure.windowed_row
    monkeypatch.setattr(structure, "windowed_row",
                        lambda spec, dim, ident, *args, **kw:
                        built.append(ident) or row(spec, dim, ident, *args, **kw))
    com_check(_rep("H", (1.0, 0.5, 0.0)))
    assert built == ["structure.com"]


# -- realizations and Casimirs ------------------------------------------------

def test_realizations_all_families():
    cases = ([("B", p, ("osp12", "sl2")) for p in B_GRID]
             + [("Bbar", p, ("sl2",)) for p in BBAR_GRID if p[0] != 0]
             + [("H", p, ("osp12", "sl2")) for p in H_GRID]
             + [("Bq", p, ("ospq12",)) for p in BQ_GRID]
             + [("Bbarq", p, ("slq2",)) for p in BBARQ_GRID if p[0] != 0])
    for family, params, targets in cases:
        rep = _rep(family, params)
        for target in targets:
            realization = build_realization(rep, target)
            for report in check_realization(realization, rep, 1e-10):
                assert report.passed, report.summary()


def test_realization_normalization_products():
    rep = _rep("B", (2, 1))
    assert build_realization(rep, "osp12").normalization == pytest.approx(1.0)
    assert build_realization(rep, "sl2").normalization == pytest.approx(-0.25)
    hrep = _rep("H", (1, 0.5, 0.0))
    assert build_realization(hrep, "osp12").normalization == pytest.approx(1.0)


def test_realization_rejects_family_mismatch():
    with pytest.raises(SpecError):
        build_realization(_rep("Bbar", (1, 2)), "osp12")
    with pytest.raises(SpecError):
        build_realization(_rep("B", (2, 1)), "slq2")


def test_casimir_fixed_values():
    # frozen from the closed forms: i2 = b^2/(4a^2) - b/(4a),
    # c_even = -b^2/(4a^2) + b/(2a), c_odd = 1/4 - b^2/(4a^2)
    for params, i2, c_even, c_odd in [((2, 1), -1 / 16, 3 / 16, 3 / 16),
                                      ((4, 1), -3 / 64, 7 / 64, 15 / 64)]:
        rep = _rep("B", params)
        osp = casimir_spectrum(build_realization(rep, "osp12"), rep, "osp_i2",
                               1e-10)
        assert osp.passed, osp.summary()
        assert osp.branch_note["i2"] == pytest.approx(i2, abs=1e-12)
        sl2 = casimir_spectrum(build_realization(rep, "sl2"), rep, "sl2_c2",
                               1e-10)
        assert sl2.passed, sl2.summary()
        assert sl2.branch_note["c_even"] == pytest.approx(c_even, abs=1e-12)
        assert sl2.branch_note["c_odd"] == pytest.approx(c_odd, abs=1e-12)


@pytest.mark.parametrize("params", B_GRID + [(4.0, 3.0)])
def test_casimir_rows_see_a_scaled_generator_image(params):
    """Negative control: each generator image that a Casimir reads (e, f, h
    of the osp12 realization; J0, J+, J- of the sl2 one, whose e, f, h only
    the realization rows read) scaled by 1 + 1e-6 makes its
    structure.casimir-* row breach 1e-10 at D = 12, alpha = 4 included: the
    scaled rows read 2e-5 to 9e-5, the unscaled ones about 1e-14."""
    rep = _rep("B", params)
    for target, which, names in (("osp12", "osp_i2", ("e", "f", "h")),
                                 ("sl2", "sl2_c2", ("J0", "Jplus", "Jminus"))):
        real = build_realization(rep, target)
        assert casimir_spectrum(real, rep, which, 1e-10).passed
        for name in names:
            images = {**real.generator_images,
                      name: (1 + 1e-6) * real.generator_images[name]}
            row = casimir_spectrum(dataclasses.replace(real, generator_images=images),
                                   rep, which, 1e-10)
            assert not row.passed and row.residual > 1e-5, (target, name, row.residual)


# -- the generator maps -------------------------------------------------------

ISO_PAIRS = [((2.0, 1.0), (1.0, 0.5, -0.25)),
             ((2.0, 2.0), (1.0, 2.0, 0.0)),
             ((1.0, 3.0), (0.5, 1.0, 0.25))]


def test_iso_matched_pairs():
    for b_params, h_params in ISO_PAIRS:
        b_spec = AlgebraSpec("B", b_params)
        h_spec = AlgebraSpec("H", h_params)
        assert b_params[0] == pytest.approx(2 * h_params[0])
        for report in iso_phi(b_spec, _rep("H", h_params), tol=1e-10):
            assert report.passed, report.summary()
        for report in iso_phi_prime(h_spec, _rep("B", b_params), tol=1e-10):
            assert report.passed, report.summary()


def test_iso_fails_off_the_locus():
    """alpha != 2 delta leaves a residual comparable to the operands."""
    b_spec = AlgebraSpec("B", (3.0, 1.0))
    reports = iso_phi(b_spec, _rep("H", (1.0, 0.5, -0.25)))
    worst = max(r.residual for r in reports)
    assert worst > 1e-2


def test_phi_images_keys():
    gens = phi_images(AlgebraSpec("B", (2, 1)), _rep("H", (1, 0.5, 0.0)))
    assert set(gens) == {"a", "ad", "N", "I"}
    gens = phi_prime_images(AlgebraSpec("H", (1, 0.5, 0.0)), _rep("B", (2, 1)))
    assert set(gens) == {"b", "bd", "K", "M", "I"}


def test_phi_needs_nonzero_parameters():
    """phi divides by alpha and phi' by nu; the spec refuses a zero of
    either, so neither map is reached with one."""
    with pytest.raises(SpecError, match="positivity"):
        AlgebraSpec("B", (0.0, 1.0))
    with pytest.raises(SpecError, match="positivity"):
        AlgebraSpec("H", (1.0, 0.0, 0.0))


# -- suite driver -------------------------------------------------------------

def test_run_structure_checks_all_pass():
    for family, grid in [("B", B_GRID), ("H", H_GRID), ("Bbar", BBAR_GRID),
                         ("Bq", BQ_GRID), ("Bbarq", BBARQ_GRID)]:
        for params in grid:
            rep = _rep(family, params)
            tables = build_tables(rep) if family == "B" else None
            for report in run_structure_checks(rep, tables):
                assert report.passed, report.summary()
