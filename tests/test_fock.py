import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosonhopf import (AlgebraSpec, build_rep, check_defining_relations,
                       validity_window, weight)
from bosonhopf.fock import (RepresentationError, SpecError, acomm, comm,
                            rep_generator_images, windowed_norm)
from grids import (B_GRID, BBAR_GRID, BBARQ_GRID, BQ_GRID, FULL_GRID,
                      H_GRID)

params_pos = st.floats(min_value=0.25, max_value=4.0)
levels = st.integers(min_value=1, max_value=12)


# -- ladder weights -----------------------------------------------------------

def test_weight_fixed_values():
    # worked out by hand from the closed forms
    assert weight(AlgebraSpec("B", (2, 1)), 5) == pytest.approx(5.0)
    assert weight(AlgebraSpec("B", (4, 1)), 4) == pytest.approx(8.0)
    assert weight(AlgebraSpec("B", (4, 1)), 3) == pytest.approx(5.0)
    assert weight(AlgebraSpec("Bbar", (1, 2)), 4) == pytest.approx(14.0)
    assert weight(AlgebraSpec("H", (1, 0.5, -0.25)), 3) == pytest.approx(3.5)
    assert weight(AlgebraSpec("H", (1, 0.5, -0.25)), 2) == pytest.approx(2.0)


@given(alpha=params_pos, beta=params_pos, n=levels)
def test_weight_telescoping_B(alpha, beta, n):
    """Adjacent graded weights sum to the anticommutator eigenvalue."""
    spec = AlgebraSpec("B", (alpha, beta))
    assert weight(spec, n) + weight(spec, n + 1) == pytest.approx(
        alpha * n + beta, rel=1e-9, abs=1e-9)


@given(sigma=params_pos, tau=params_pos, n=levels)
def test_weight_telescoping_Bbar(sigma, tau, n):
    spec = AlgebraSpec("Bbar", (sigma, tau))
    assert weight(spec, n + 1) - weight(spec, n) == pytest.approx(
        sigma * n + tau, rel=1e-9, abs=1e-9)


@given(alpha=params_pos, beta=params_pos, n=levels,
       q=st.sampled_from([0.7, 1.3]))
def test_weight_telescoping_Bq(alpha, beta, n, q):
    from bosonhopf.scalars import q_bracket
    spec = AlgebraSpec("Bq", (alpha, beta, q))
    assert weight(spec, n) + weight(spec, n + 1) == pytest.approx(
        q_bracket(alpha * n + beta, q), rel=1e-9, abs=1e-9)


@given(sigma=params_pos, tau=params_pos, n=levels,
       q=st.sampled_from([0.7, 1.3]))
def test_weight_telescoping_Bbarq(sigma, tau, n, q):
    from bosonhopf.scalars import q_bracket
    spec = AlgebraSpec("Bbarq", (sigma, tau, q))
    assert weight(spec, n + 1) - weight(spec, n) == pytest.approx(
        q_bracket(sigma * n + tau, q), rel=1e-9, abs=1e-9)


@given(delta=params_pos, nu=params_pos, n=levels)
def test_weight_telescoping_H(delta, nu, n):
    spec = AlgebraSpec("H", (delta, nu, 0.0))
    k_n = ((nu - delta + 1) / nu) * (-1.0) ** n
    assert weight(spec, n + 1) - weight(spec, n) == pytest.approx(
        delta + nu * k_n, rel=1e-9, abs=1e-9)


def test_weight_rejects_vacuum_index():
    # w(n) couples |n> to |n-1>; n = 0 has no partner level
    for family, p in FULL_GRID:
        with pytest.raises(ValueError):
            weight(AlgebraSpec(family, p), 0)


# -- spec validation ----------------------------------------------------------

def test_spec_rejects_unknown_family():
    with pytest.raises(SpecError):
        AlgebraSpec("X", (1.0,))


def test_spec_rejects_wrong_arity():
    with pytest.raises(SpecError):
        AlgebraSpec("B", (1.0, 2.0, 3.0))


def test_spec_rejects_bad_q():
    with pytest.raises((SpecError, ValueError)):
        AlgebraSpec("Bq", (2.0, 1.0, 1.0))


def test_unitary_mode_positivity():
    with pytest.raises(SpecError):
        AlgebraSpec("B", (-2.0, 1.0))
    # non-unitary mode admits the same parameters
    spec = AlgebraSpec("B", (-2.0, 1.0), unitary_mode=False)
    assert spec.alpha == -2.0


def test_param_accessors():
    spec = AlgebraSpec("H", (1.0, 0.5, -0.25))
    assert (spec.delta, spec.nu, spec.rho) == (1.0, 0.5, -0.25)
    with pytest.raises(AttributeError):
        spec.alpha


# -- representations ----------------------------------------------------------

def test_defining_relations_full_grid():
    for family, p in FULL_GRID:
        rep = build_rep(AlgebraSpec(family, p), 16)
        for report in check_defining_relations(rep, 1e-10):
            assert report.passed, report.summary()


def test_number_operator_diagonal():
    rep = build_rep(AlgebraSpec("B", (2, 1)), 8)
    assert np.allclose(np.diag(rep.number), np.arange(8))


def test_h_number_operator_shift():
    rep = build_rep(AlgebraSpec("H", (1, 0.5, -0.25)), 8)
    shift = (0.5 - 1 + 1) / 2 + (-0.25)
    assert np.allclose(np.diag(rep.number), np.arange(8) + shift)


def test_grade_element_squares():
    # integer grade shift: g^2 = I exactly
    rep = build_rep(AlgebraSpec("B", (2, 2)), 8)
    g = rep.require_grade()
    assert np.allclose(g @ g, rep.identity, atol=1e-12)
    # anticommutes with the ladder on the window
    win = validity_window(rep, 1).projector
    assert windowed_norm(acomm(g, rep.raising), win) < 1e-12


def test_k_operator_values():
    rep = build_rep(AlgebraSpec("H", (1, 0.5, -0.25)), 6)
    expected = ((0.5 - 1 + 1) / 0.5) * (-1.0) ** np.arange(6)
    assert np.allclose(np.diag(rep.k_op), expected)


def test_generator_lookup_family_checked():
    rep = build_rep(AlgebraSpec("B", (2, 1)), 4)
    with pytest.raises(KeyError):
        rep.generator("b")
    hrep = build_rep(AlgebraSpec("H", (1, 0.5, 0.0)), 4)
    with pytest.raises(KeyError):
        hrep.generator("a")


def test_bbar_grade_unavailable_at_sigma_zero():
    spec = AlgebraSpec("Bbar", (0.0, 1.0))
    rep = build_rep(spec, 4)
    with pytest.raises(RepresentationError):
        rep.require_grade()


# -- validity windows ---------------------------------------------------------

def test_window_projector_shape():
    rep = build_rep(AlgebraSpec("B", (2, 1)), 8)
    win = validity_window(rep, 2)
    kept = np.diag(win.projector).real
    assert kept[:6].sum() == 6 and kept[6:].sum() == 0


def test_truncation_artifact_outside_window():
    """{a, ad} - (alpha N + beta) is nonzero only on the top level."""
    rep = build_rep(AlgebraSpec("B", (2, 1)), 8)
    gens = rep_generator_images(rep)
    res = acomm(gens["a"], gens["ad"]) - (2 * rep.number + rep.identity)
    assert abs(res[7, 7]) > 1.0                      # the cutoff artifact
    assert windowed_norm(res, validity_window(rep, 1).projector) < 1e-12


def test_relative_residual_scaling():
    """Large q-bracket weights stay under tolerance via relative residuals."""
    rep = build_rep(AlgebraSpec("Bq", (4, 1, 1.3)), 16)
    for report in check_defining_relations(rep, 1e-10):
        assert report.passed, report.summary()
