import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables, validity_window
from bosonhopf.fock import windowed_norm
from bosonhopf.hopf import Term, expand_slot, terms_matrix, word_matrix
from bosonhopf.tensor import kron, kron_all, total_window_projector
from grids import BBAR_GRID, BBARQ_GRID, BQ_GRID, B_GRID, FULL_GRID, H_GRID


def _tables(family, params, dim=8):
    return build_tables(build_rep(AlgebraSpec(family, params), dim))


def test_axioms_full_grid():
    for family, p in FULL_GRID:
        for report in _tables(family, p).run_axiom_checks(1e-10):
            assert report.passed, report.summary()


def test_delta_homomorphism_full_grid():
    for family, p in FULL_GRID:
        for report in _tables(family, p).check_delta_homomorphism(1e-10):
            assert report.passed, report.summary()


def test_generator_sets_per_family():
    assert set(_tables("B", (2, 1)).generator_names()) == {
        "N", "a", "ad", "g", "ginv"}
    assert set(_tables("Bbar", (1, 2)).generator_names()) == {"N", "a", "ad"}
    assert set(_tables("H", (1, 0.5, 0.0)).generator_names()) == {
        "M", "K", "b", "bd", "g", "ginv"}


def test_counit_values():
    tb = _tables("B", (2, 1))
    assert tb.counit("a") == 0
    assert tb.counit("ad") == 0
    assert tb.counit("N") == pytest.approx(-0.5)   # -beta/alpha
    assert tb.counit("g") == 1
    tbh = _tables("H", (1.0, 0.5, -0.25))
    assert tbh.counit("K") == pytest.approx(-2.0)  # -delta/nu
    assert tbh.counit("M") == pytest.approx(-0.75)  # rho - 1/2


def test_grouplike_grade():
    tb = _tables("B", (2, 2))
    g = tb.atom("g").matrix
    assert np.allclose(tb.delta_matrix("g"), kron(g, g))
    assert np.allclose(tb.antipode("g"), tb.atom("ginv").matrix)


def test_bq_coproduct_closed_form():
    """Delta(a) = a x q^((aN+b)/2) + g q^(-(aN+b)/2) x a."""
    alpha, beta, q = 2.0, 2.0, 1.3
    rep = build_rep(AlgebraSpec("Bq", (alpha, beta, q)), 8)
    tb = build_tables(rep)
    expo = np.diag(q ** ((alpha * np.arange(8) + beta) / 2.0))
    g = rep.require_grade()
    expect = (kron(rep.lowering, expo)
              + kron(g @ np.linalg.inv(expo), rep.lowering))
    assert np.abs(tb.delta_matrix("a") - expect).max() < 1e-12


def test_bbar_primitive_coproduct():
    """The ungraded family coproduct is primitive with a central shift on N."""
    sigma, tau = 1.0, 2.0
    rep = build_rep(AlgebraSpec("Bbar", (sigma, tau)), 6)
    tb = build_tables(rep)
    eye = rep.identity
    expect = (kron(rep.number, eye) + kron(eye, rep.number)
              + (tau / sigma) * kron(eye, eye))
    assert np.abs(tb.delta_matrix("N") - expect).max() < 1e-12
    expect_a = kron(rep.lowering, eye) + kron(eye, rep.lowering)
    assert np.abs(tb.delta_matrix("a") - expect_a).max() < 1e-12


def test_bq_antipode_inverse_closed_forms():
    """S^-1(a) = q^(alpha/2) g^-1 a and S^-1(ad) = -q^(-alpha/2) ad g."""
    alpha, beta, q = 2.0, 2.0, 1.3
    rep = build_rep(AlgebraSpec("Bq", (alpha, beta, q)), 8)
    tb = build_tables(rep)
    g = rep.require_grade()
    ginv = np.linalg.inv(g)
    expect_a = q ** (alpha / 2.0) * ginv @ rep.lowering
    expect_ad = -q ** (-alpha / 2.0) * rep.raising @ g
    assert np.abs(tb.antipode_inv("a") - expect_a).max() < 1e-12
    assert np.abs(tb.antipode_inv("ad") - expect_ad).max() < 1e-12


def test_adjoint_action_number_on_lowering():
    """ad_N(a) = [N, a] - (beta/alpha) a = -(1 + beta/alpha) a."""
    alpha, beta = 2.0, 1.0
    rep = build_rep(AlgebraSpec("B", (alpha, beta)), 8)
    tb = build_tables(rep)
    out = tb.adjoint_action("N", rep.lowering)
    expect = -(1.0 + beta / alpha) * rep.lowering
    win = validity_window(rep, 1).projector
    assert windowed_norm(out - expect, win) < 1e-10


def test_adjoint_action_counit_on_identity():
    """ad_x(1) = eps(x) 1 for every generator."""
    rep = build_rep(AlgebraSpec("B", (2, 1)), 8)
    tb = build_tables(rep)
    win = validity_window(rep, 2).projector
    for name in tb.generator_names():
        out = tb.adjoint_action(name, rep.identity)
        expect = tb.counit(name) * rep.identity
        assert windowed_norm(out - expect, win) < 1e-10, name


def test_adjoint_action_grade_conjugates():
    """ad_g(x) = g x g^-1 for the grouplike grade element."""
    rep = build_rep(AlgebraSpec("B", (2, 2)), 8)
    tb = build_tables(rep)
    g = rep.require_grade()
    x = rep.raising + rep.lowering
    out = tb.adjoint_action("g", x)
    assert np.abs(out - g @ x @ np.linalg.inv(g)).max() < 1e-12


@pytest.mark.parametrize("family, params", [("Bq", (2.0, 2.0, 1.3)),
                                            ("H", (1.0, 0.5, -0.25))])
def test_term_matrix_on_columns_is_bit_identical(family, params):
    """Term.matrix(dim, cols) equals the same columns of the full product."""
    dim = 5
    tb = _tables(family, params, dim)
    rng = np.random.default_rng(7)
    raising = "bd" if family == "H" else "ad"
    two = tb.delta_terms(raising)
    three = expand_slot(two, 0) + expand_slot(two, 1)
    for term in two + three:
        cols = np.sort(rng.choice(dim ** term.slots, size=dim ** 2, replace=False))
        full = term.coeff * kron_all(*(word_matrix(w, dim) for w in term.words))
        assert np.array_equal(term.matrix(dim, cols), full[:, cols])
        assert np.array_equal(term.matrix(dim), full)
    cols = np.arange(0, dim ** 3, 3)
    assert np.array_equal(terms_matrix(three[:4], dim, cols),
                          terms_matrix(three[:4], dim)[:, cols])


@pytest.mark.parametrize("family, params, raising", [
    ("B", (2.0, 1.0), "ad"), ("Bq", (2.0, 2.0, 1.3), "ad"),
    ("H", (1.0, 0.5, -0.25), "bd")])
def test_coassociativity_sees_a_perturbed_coefficient(family, params, raising):
    """Negative control: one Sweedler coefficient of Delta(raising) off by
    1e-3 breaches the bound, and the column-assembled residual matches the
    dense (L - R) @ projector reference.  H has no ad; its raising
    generator is bd."""
    dim = 10
    tb = _tables(family, params, dim)
    atom = tb.atom(raising)
    head = atom.delta[0]
    atom.delta = [Term(head.coeff * (1 + 1e-3), head.words)] + atom.delta[1:]
    report = next(r for r in tb.check_coassociativity(1e-10)
                  if r.identity == f"hopf.coassoc.{raising}")
    assert not report.passed
    lhs = terms_matrix(expand_slot(atom.delta, 0), dim)
    rhs = terms_matrix(expand_slot(atom.delta, 1), dim)
    proj = total_window_projector(dim, 3, 2)
    ref = float(np.linalg.norm((lhs - rhs) @ proj, 2))
    assert ref > 1e-10
    assert abs(report.residual - ref) <= 1e-12 * ref
