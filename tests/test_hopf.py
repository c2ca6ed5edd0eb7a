import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables, check_defining_relations, hopf
from bosonhopf.fock import RepresentationError, windowed_norm
from bosonhopf.hopf import (Atom, Term, expand_slot, normal_form, terms_matrix,
                            terms_operator, word_image)
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


@pytest.mark.parametrize("family, params", [("B", (2, 1)), ("Bq", (2, 2, 1.3)),
                                            ("H", (1, 0.5, 0.0))])
def test_delta_hom_rows_take_their_relations_windows(family, params):
    """Each delta-hom and s-antihom row is normed on the window of its
    relation's raise degree, the one its relations row reads.  At dim = 2 a
    degree-0 relation's row reads window_degree 0 and is computed, not
    skipped, and so is every other row: no relation raises by 2."""
    rep = build_rep(AlgebraSpec(family, params), 2)
    degrees = {r.identity.removeprefix("relations."): r.window_degree
               for r in check_defining_relations(rep)}
    rows = build_tables(rep).check_delta_homomorphism(1e-10)
    assert len(rows) == 2 * len(degrees)
    for r in rows:
        assert r.window_degree == degrees[r.identity.split(".", 2)[2]], r.identity
        assert not r.skipped and r.passed, r.summary()
    low = [r for r in rows if r.identity == f"hopf.delta-hom.{family}.number-low"]
    assert [r.window_degree for r in low] == [0]


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


@pytest.mark.parametrize("family, params, name, breached", [
    ("B", (2, 3), "a", {"a": 5.2915}), ("Bq", (2, 4, 1.3), "a", {"a": 13.417}),
    ("H", (1, 2, 0.25), "b", {"b": 5.2915, "K": 10.618})])
def test_coassociativity_sees_an_exchanged_coproduct_term(family, params, name, breached):
    """Negative control for the normal forms: Delta(a) (Delta(b) on H) with
    the words of its second term exchanged is no longer coassociative.  Its
    expansions' normal forms differ, so the row is gathered on the window
    and breaches; on H, Delta(K) holds b, so the K row breaches too."""
    tb = _tables(family, params)
    atom = tb.atom(name)
    head, second = atom.delta
    atom.delta = [head, Term(second.coeff, second.words[::-1])]
    rows = {r.identity.removeprefix("hopf.coassoc."): r
            for r in tb.check_coassociativity(1e-10)}
    assert {n: r.residual for n, r in rows.items() if not r.passed} == pytest.approx(
        breached, rel=1e-4)
    assert all(rows[n].branch_note == {"path": "window gather"} for n in breached)


# One point per family: the 22 generators of the five families.
FAMILY_POINTS = [("B", (2, 3)), ("Bbar", (1, 2)), ("Bq", (2, 4, 1.3)),
                 ("Bbarq", (1, 1, 0.7)), ("H", (1, 2, 0.25))]


@pytest.mark.parametrize("dim", [6, 24])
def test_the_normal_forms_decide_every_generator(monkeypatch, dim):
    """Both coassociativity expansions of every generator have equal
    Sweedler normal forms (H's K only once g ginv cancels), so no row
    gathers an operator: with terms_operator made to raise, every row reads
    0.0 and passes, at any D."""
    def refuse(*args, **kwargs):
        raise AssertionError("a coassociativity row gathered an operator")

    monkeypatch.setattr("bosonhopf.hopf.terms_operator", refuse)
    rows = [r for family, params in FAMILY_POINTS
            for r in _tables(family, params, dim).check_coassociativity(1e-10)]
    assert len(rows) == 22
    for r in rows:
        assert r.passed and r.residual == 0.0, r.summary()
        assert r.branch_note == {"path": "sweedler normal form"}, r.identity


def test_the_window_gather_agrees_with_the_normal_forms():
    """At D = 6 the window gather that the normal forms stand in for also
    reads exactly 0.0 on all 22 generators."""
    dim = 6
    for family, params in FAMILY_POINTS:
        tb = _tables(family, params, dim)
        for row in tb.check_coassociativity(1e-10):
            terms = tb.delta_terms(row.identity.removeprefix("hopf.coassoc."))
            top = dim - 1 - row.window_degree
            diff = (terms_operator(expand_slot(terms, 0), dim, top)
                    - terms_operator(expand_slot(terms, 1), dim, top))
            assert diff.norm(top) == 0.0, row.identity


def test_a_pair_that_only_commuting_diagonals_reconcile_is_gathered():
    """Fallback: Delta(g) = (qhalf g qhalfinv) x g on Bq is g x g as a
    matrix, because diagonal atoms commute, but no group-like cancellation
    turns qhalf qhalf g qhalfinv qhalfinv into qhalf g qhalfinv.  The
    normal forms differ, so the g row (and the a row, whose coproduct holds
    g) is gathered on the window, and passes."""
    tb = _tables("Bq", (2, 4, 1.3))
    g, qp, qm = (tb.atom(n) for n in ("g", "qhalf", "qhalfinv"))
    g.delta = [Term(1.0, ((qp, g, qm), (g,)))]
    assert normal_form(expand_slot(g.delta, 0)) != normal_form(expand_slot(g.delta, 1))
    rows = {r.identity.removeprefix("hopf.coassoc."): r
            for r in tb.check_coassociativity(1e-10)}
    assert all(r.passed for r in rows.values()), [r.summary() for r in rows.values()]
    gathered = {n for n, r in rows.items() if r.branch_note == {"path": "window gather"}}
    assert gathered == {"g", "a"}


def test_normal_form_cancels_declared_inverse_pairs_and_merges_terms():
    """Only a pair that an atom declares as its inverse cancels, at any
    nesting; equal reduced words merge, and a zero sum is dropped."""
    tb = _tables("Bq", (2, 4, 1.3))
    g, gi, qp, qm, a = (tb.atom(n) for n in ("g", "ginv", "qhalf", "qhalfinv", "a"))
    assert normal_form([Term(2.0, ((g, qp, qm, gi, a), ())),
                        Term(0.5, ((a,), (qm, qp))),
                        Term(1.0, ((gi, g), (a,))),
                        Term(-1.0, ((), (g, a, gi)))]) == {
        (("a",), ()): 2.5, ((), ("a",)): 1.0, ((), ("g", "a", "ginv")): -1.0}
    assert normal_form([Term(1.0, ((a, g), ())), Term(-1.0, ((a, gi, g, g), ()))]) == {}


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


@pytest.mark.parametrize("family, params", CONTRACTION_CONTROLS)
def test_s_antihom_rows_see_a_perturbed_antipode(family, params):
    """Negative control: the antipode image of the lowering generator (a, or
    b on H) scaled by 1 + 1e-6 breaches the family's s-antihom ladder row."""
    tb = _tables(family, params)
    assert all(r.passed for r in tb.check_delta_homomorphism(1e-10))
    atom = tb.atom("b" if family == "H" else "a")
    atom.s = atom.s * (1 + 1e-6)
    failed = [r.identity for r in tb.check_delta_homomorphism(1e-10) if not r.passed]
    assert f"hopf.s-antihom.{family}.ladder" in failed, failed
    assert all(i.startswith("hopf.s-antihom.") for i in failed), failed


def test_delta_image_is_gathered_once_per_sweedler_sum(monkeypatch):
    """Each Delta and Delta^T image is gathered once and shared read-only,
    bit-identical to its terms' sector operator; a changed coefficient
    gathers it anew."""
    tb = _tables("Bq", (2, 4, 1.3))
    calls = []
    gather = hopf.terms_operator

    def spy(*args):
        calls.append(args)
        return gather(*args)

    monkeypatch.setattr(hopf, "terms_operator", spy)
    for name in tb.generator_names():
        for transpose in (False, True):
            image = tb.delta_image(name, transpose)
            assert tb.delta_image(name, transpose) is image
            assert not image.blocks.flags.writeable
            assert np.array_equal(
                image.blocks, gather(tb.delta_terms(name, transpose), tb.rep.dim).blocks)
    assert len(calls) == 2 * len(tb.generator_names())
    old = tb.delta_image("a")
    tb.atom("a").delta[0].coeff *= 1 + 1e-6
    assert tb.delta_image("a") is not old
    assert len(calls) == 2 * len(tb.generator_names()) + 1
