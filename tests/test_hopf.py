import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables
from bosonhopf.fock import RepresentationError, windowed_norm
from bosonhopf.hopf import Atom, Term, expand_slot, terms_matrix, terms_operator, word_image
from bosonhopf.tensor import (SectorOperator, kron, kron_all, level_sectors,
                              total_window_projector)
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
    assert np.abs(tb.atom("a").s_inv - expect_a).max() < 1e-12
    assert np.abs(tb.atom("ad").s_inv - expect_ad).max() < 1e-12


@pytest.mark.parametrize("family, params", [("Bq", (2.0, 2.0, 1.3)),
                                            ("H", (1.0, 0.5, -0.25))])
def test_term_matrix_on_columns_is_bit_identical(family, params):
    """A term gathered on the column sectors up to a window's top level,
    scaled as Term.matrix scales it, equals the same columns of
    Term.matrix and holds nothing on the others; terms_operator does the
    same for terms_matrix."""
    dim = 5
    top = dim - 2
    tb = _tables(family, params, dim)
    raising = "bd" if family == "H" else "ad"
    two = tb.delta_terms(raising)
    three = expand_slot(two, 0) + expand_slot(two, 1)
    for term in two + three:
        sectors = level_sectors(dim, term.slots)
        kept = sectors.level <= top
        factors = [(word_image(w, dim), (site,)) for site, w in enumerate(term.words)]
        full = term.coeff * kron_all(*(m for m, _ in factors))
        assert np.array_equal(term.matrix(dim), full)
        window = (SectorOperator.gather(factors, sectors, top) * term.coeff).to_dense()
        assert np.array_equal(window[:, kept], full[:, kept])
        assert not window[:, ~kept].any()
    kept = level_sectors(dim, 3).level <= top
    window = terms_operator(three[:4], dim, top).to_dense()
    assert np.array_equal(window[:, kept], terms_matrix(three[:4], dim)[:, kept])
    assert not window[:, ~kept].any()


@pytest.mark.parametrize("family, params, raising", [
    ("B", (2.0, 1.0), "ad"), ("Bq", (2.0, 2.0, 1.3), "ad"),
    ("H", (1.0, 0.5, -0.25), "bd")])
def test_coassociativity_sees_a_perturbed_coefficient(family, params, raising):
    """Negative control: one Sweedler coefficient of Delta(raising) off by
    1e-3 breaches the bound, and the residual of the sector operators
    gathered on the window matches the dense (L - R) @ projector reference.  H has no ad; its raising
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


# One point per ladder shape: undeformed graded, deformed graded, reflection.
CONTRACTION_CONTROLS = [("B", (2, 3)), ("Bq", (2, 4, 1.3)), ("H", (1, 2, 0.25))]


@pytest.mark.parametrize("family, params", CONTRACTION_CONTROLS)
@pytest.mark.parametrize("image, row, spared", [
    ("eps", "counit", None),
    ("s", "antipode", "antipode-inverse"),
    ("s_inv", "antipode-inverse", "antipode")])
def test_contraction_rows_see_a_perturbed_image(family, params, image, row, spared):
    """Negative control: the eps image of N (M for H), or the S or S^-1 image
    of the raising generator, scaled by 1 + 1e-6 breaches its own row.  S and
    S^-1 enter separate contractions, so a wrong S leaves every S^-1 row
    passing, and the other way round."""
    tb = _tables(family, params)
    name = ("M" if family == "H" else "N") if image == "eps" else (
        "bd" if family == "H" else "ad")
    atom = tb.atom(name)
    setattr(atom, image, getattr(atom, image) * (1 + 1e-6))
    rows = {r.identity: r for r in tb.run_axiom_checks(1e-10)}
    assert rows[f"hopf.{row}.{name}"].residual > 1e-10
    if spared:
        kept = [r for ident, r in rows.items() if ident.startswith(f"hopf.{spared}.")]
        assert kept and all(r.passed for r in kept), [r.summary() for r in kept]


@pytest.mark.parametrize("family, params", CONTRACTION_CONTROLS)
def test_antipode_inverse_needs_the_opposite_coproduct(family, params):
    """Negative control: S^-1 is the antipode for Delta^T, not for Delta.
    Contracted over Delta, each side leaves the ladder generators at
    residuals of order one and more."""
    tb = _tables(family, params)
    proj = total_window_projector(tb.rep.dim, 1, 1)

    def residuals(name, transpose):
        target = tb.counit(name) * tb.rep.identity
        return [windowed_norm(tb.contract(name, x, y, transpose) - target, proj)
                for x, y in (("s_inv", "matrix"), ("matrix", "s_inv"))]

    for name in (("b", "bd") if family == "H" else ("a", "ad")):
        assert max(residuals(name, transpose=True)) < 1e-10, name
        assert min(residuals(name, transpose=False)) >= 1.0, name


@pytest.mark.parametrize("family, params", CONTRACTION_CONTROLS)
def test_delta_hom_rows_see_a_perturbed_coproduct(family, params):
    """Negative control: one Sweedler coefficient of Delta of the raising
    generator scaled by 1 + 1e-6 breaches a hopf.delta-hom row."""
    tb = _tables(family, params)
    name = "bd" if family == "H" else "ad"
    assert all(r.passed for r in tb.check_delta_homomorphism(1e-10))
    tb.atom(name).delta[0].coeff *= 1 + 1e-6
    failed = [r.identity for r in tb.check_delta_homomorphism(1e-10) if not r.passed]
    assert failed and all(i.startswith("hopf.delta-hom.") for i in failed), failed


@pytest.mark.parametrize("family, params", CONTRACTION_CONTROLS)
def test_delta_hom_rows_see_an_off_shift_entry(family, params):
    """Negative control: one entry of Delta of the raising generator on the
    diagonal, where that image has no level shift of its own, is refused.
    The entry is an extra Sweedler term E x E' whose product is that one
    entry, of size 1e-6 times the image's largest, on the last window
    column: a norm that read only the blocks of one shift would miss it.
    The image mixes two shifts, so its Sweedler sum has no sector blocks
    and the check raises instead of reporting."""
    tb = _tables(family, params)
    dim = tb.rep.dim
    name = "bd" if family == "H" else "ad"
    last = np.flatnonzero(level_sectors(dim, 2).level <= dim - 1 - 2)[-1]
    units = []
    for level in divmod(last, dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[level, level] = 1.0
        units.append(Atom(f"E{level}", unit))
    size = 1e-6 * np.abs(tb.delta_matrix(name)).max()
    tb.atom(name).delta.append(Term(size, ((units[0],), (units[1],))))
    assert terms_matrix(tb.delta_terms(name), dim)[last, last] == size
    with pytest.raises(ValueError, match="have no common blocks"):
        tb.check_delta_homomorphism(1e-10)


def test_delta_hom_check_refuses_an_antipode_image_off_its_level_shift():
    """Negative control: S(ad) plus one diagonal entry, 1e-6 times its
    largest entry, on the top level of the degree-2 window.  That image
    moves one level by 0 and every other by +1: it has no sector blocks, so
    the s-antihom rows refuse it rather than norm one shift's blocks and
    miss the entry."""
    tb = _tables("Bq", (2, 4, 1.3))
    atom = tb.atom("ad")
    top = tb.rep.dim - 1 - 2
    bad = atom.s.copy()
    bad[top, top] += 1e-6 * np.abs(atom.s).max()
    atom.s = bad
    with pytest.raises(RepresentationError, match="different amounts"):
        tb.check_delta_homomorphism(1e-10)


@pytest.mark.xfail(strict=True, reason="absolute residual: ladder weights near 1e3 put "
                   "rounding at 6.1e-9, above the 1e-10 bound, until the row is rescaled")
def test_bq_large_weight_antipode_passes():
    """Bq (4, 8, 0.7) at D = 10 holds the Hopf axioms, but its absolute
    hopf.antipode.ad residual reads 6.1e-9 (antipode-inverse.ad 4.7e-10).
    A backward-error scale of this row turns the test into an XPASS, which
    fails until this marker is removed."""
    tb = _tables("Bq", (4, 8, 0.7), 10)
    report = next(r for r in tb.check_antipode(1e-10) if r.identity == "hopf.antipode.ad")
    assert report.passed, report.summary()
