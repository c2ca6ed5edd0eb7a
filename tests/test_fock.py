import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosonhopf import AlgebraSpec, build_rep, check_defining_relations, weight
from bosonhopf import expr as ex
from bosonhopf.fock import (RepresentationError, SpecError, acomm, comm,
                            diag_function, rep_generator_images, windowed_norm)
from bosonhopf.tensor import total_window_projector
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
    win = total_window_projector(rep.dim, 1, 1)
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
    kept = np.diag(total_window_projector(8, 1, 2)).real
    assert kept[:6].sum() == 6 and kept[6:].sum() == 0


def test_truncation_artifact_outside_window():
    """{a, ad} - (alpha N + beta) is nonzero only on the top level."""
    rep = build_rep(AlgebraSpec("B", (2, 1)), 8)
    gens = rep_generator_images(rep)
    res = acomm(gens["a"], gens["ad"]) - (2 * rep.number + rep.identity)
    assert abs(res[7, 7]) > 1.0                      # the cutoff artifact
    assert windowed_norm(res, total_window_projector(rep.dim, 1, 1)) < 1e-12


def test_relative_residual_scaling():
    """Large q-bracket weights stay under tolerance via relative residuals."""
    rep = build_rep(AlgebraSpec("Bq", (4, 1, 1.3)), 16)
    for report in check_defining_relations(rep, 1e-10):
        assert report.passed, report.summary()


def test_diag_function_threshold_is_relative_to_the_diagonal():
    """Rounding noise off a diagonal whose entries reach 1e7 is accepted; an
    off-diagonal entry 1e-3 relative to the diagonal is rejected."""
    mat = np.diag([0.5, 3.0e6, 1.0e7]).astype(complex)
    noisy = mat.copy()
    noisy[0, 2] = 1e-8
    noisy[2, 1] = -1e-8j
    assert np.array_equal(diag_function(lambda v: 2 * v, noisy), 2 * mat)
    wrong = mat.copy()
    wrong[1, 2] = 1e-3 * 1.0e7
    with pytest.raises(ValueError):
        diag_function(lambda v: 2 * v, wrong)
    # below unit scale the bound stays 1e-12 absolute
    small = np.diag([1e-3, 2e-3]).astype(complex)
    small[0, 1] = 1e-11
    with pytest.raises(ValueError):
        diag_function(lambda v: v, small)


# -- the relation rows read the identity corpus --------------------------------

RELATION_CONTROLS = [("B", (2, 3)), ("Bq", (2, 4, 1.3)), ("H", (1, 2, 0.25))]


def test_every_relation_row_is_a_corpus_line():
    """The corpus states all 39 relations, and each family's relation rows
    are its lines in order: id, window degree and reference."""
    corpus = ex.load_corpus()
    assert len(corpus) == 39
    for family, params in FULL_GRID:
        rows = check_defining_relations(build_rep(AlgebraSpec(family, params), 8))
        lines = [e for e in corpus if e.family == family]
        assert [(r.identity, r.window_degree, r.reference) for r in rows] == [
            (f"relations.{family}.{e.ident}", e.raise_degree, f"{e.text} = 0")
            for e in lines]


def test_h_grade_number_names_m():
    """H's number generator is M, and its grade-number row says so."""
    rows = {r.identity: r for r in check_defining_relations(
        build_rep(AlgebraSpec("H", (1, 2, 0.25)), 8))}
    assert rows["relations.H.grade-number"].reference == "comm(g, M) = 0"
    assert rows["relations.H.grade-number"].passed


@pytest.mark.parametrize("family, params", RELATION_CONTROLS)
def test_relation_rows_see_a_perturbed_image(family, params):
    """Negative control: the lowering image scaled by 1 + 1e-6 breaches the
    family's ladder row at D = 8."""
    rep = build_rep(AlgebraSpec(family, params), 8)
    assert all(r.passed for r in check_defining_relations(rep))
    bad = dataclasses.replace(rep, lowering=rep.lowering * (1 + 1e-6))
    failed = [r.identity for r in check_defining_relations(bad) if not r.passed]
    assert f"relations.{family}.ladder" in failed, failed


# each family's ladder line with the sign of its right-hand side flipped
FLIPPED_LADDERS = {
    "B": "B ; ladder ; 1 ; acomm(a, ad) + (alpha*N + beta*I) ; alpha*N + beta*I",
    "Bq": "Bq ; ladder ; 1 ; acomm(a, ad) + qbracket(alpha*N + beta*I, q) ; "
          "qbracket(alpha*N + beta*I, q)",
    "H": "H ; ladder ; 1 ; comm(b, bd) + delta*I + nu*K ; b*bd"}


@pytest.mark.parametrize("family, params", RELATION_CONTROLS)
def test_relation_rows_come_from_the_corpus(monkeypatch, family, params):
    """Negative control: the family's ladder line with the sign of its
    right-hand side flipped breaches its row, and only that row."""
    flipped = ex.corpus_entry(FLIPPED_LADDERS[family])
    corpus = tuple(flipped if (e.family, e.ident) == (family, "ladder") else e
                   for e in ex.load_corpus())
    monkeypatch.setattr(ex, "load_corpus", lambda: corpus)
    rep = build_rep(AlgebraSpec(family, params), 8)
    failed = [r.identity for r in check_defining_relations(rep) if not r.passed]
    assert failed == [f"relations.{family}.ladder"]
