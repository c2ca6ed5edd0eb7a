import dataclasses
import json

import numpy as np
import pytest

import dense_images as dense
from bosonhopf import AlgebraSpec, build_rep, build_tables
from bosonhopf import expr as ex
from bosonhopf import structure
from bosonhopf.spec import SpecError
from bosonhopf.tensor import SectorOperator
from bosonhopf.structure import (build_realization, casimir_spectrum, iso_phi,
                                 iso_phi_prime, run_structure_checks)
from grids import (B_GRID, BBARQ_GRID, BBAR_GRID, BQ_GRID, H_GRID)


def _rep(family, params, dim=12):
    return build_rep(AlgebraSpec(family, params), dim)


def _corpus_value(rep, text, partner=None):
    """A corpus expression on rep, with the corpus's definitions and maps, as a dense matrix."""
    scalars, ops = structure._leaves(rep, partner=partner)
    (value,) = ex.identities().compile(ex.parse(text, None), family=rep.spec.family).run(
        [scalars], ops)
    return value.to_dense() if hasattr(value, "to_dense") else value


def _rows(reports, prefix):
    return [r for r in reports if r.identity == prefix or r.identity.startswith(prefix + ".")]


# -- lambda constraints and the grade-odd element -----------------------------

def test_lambda_constraints():
    """lam2 and lam3 as the corpus defines them from lam1."""
    corpus = ex.identities()

    def scalar(name, **leaves):
        ((value,),) = corpus.compile(corpus.scalars[name][1], family="B").run([leaves], {})
        return value

    assert scalar("lam2", alpha=2.0, beta=1.0, lam1=1.0) == pytest.approx(-1.0)
    assert scalar("lam3", alpha=2.0, beta=1.0, lam1=1.0) == pytest.approx(0.0)
    assert scalar("lam2", alpha=4.0, beta=1.0, lam1=0.5) == pytest.approx(-1.0)
    assert scalar("lam3", alpha=4.0, beta=1.0, lam1=0.5) == pytest.approx(0.25)


def test_build_L_rejects_zero_element():
    """The zero element (lam1 = lam4 = 0) is excluded: the corpus fixes
    lam1 = 1, and L+ at B (2, 2) is nonzero."""
    rep = _rep("B", (2, 2))
    values = ex.identities().scalar_values("B", tuple(rep.spec.param_dict.items()))
    assert values["lam1"] == 1
    assert np.abs(_corpus_value(rep, "Lp")).max() > 0.5


def test_build_L_diagonal_eigenvalue():
    """L+ acts as (lam1 (alpha/4 - beta/2) + lam4 (-1)^(beta/alpha)) (-1)^n."""
    alpha, beta, lam1, lam4 = 2.0, 2.0, 1.0, 0.5
    rep = _rep("B", (alpha, beta))
    mat = _corpus_value(rep, "Lp")
    scale = lam1 * (alpha / 4 - beta / 2) + lam4 * (-1.0) ** (beta / alpha)
    expect = scale * (-1.0) ** np.arange(rep.dim)
    assert np.allclose(np.diag(mat), expect, atol=1e-12)
    off = mat - np.diag(np.diag(mat))
    assert np.abs(off).max() < 1e-12


L_IDS = ("structure.anticommute", "structure.delta-closed-form", "structure.antipode-fixed")


def test_L_properties_grid():
    """lam4 is chosen as the structure suite chooses it: B (0.1, 0.3), whose
    beta/alpha evaluates to 2.9999999999999996, keeps lam4 = 0.5."""
    for params in [*B_GRID, (0.1, 0.3)]:
        rep = _rep("B", params)
        rows = [r for ident in L_IDS
                for r in _rows(run_structure_checks(rep, build_tables(rep), 1e-10), ident)]
        assert len(rows) == 4
        for report in rows:
            assert report.passed, report.summary()
        lam4 = 0.5 if rep.spec.integer_grade_shift else 0.0
        assert rows[-1].branch_note["lam4"] == lam4
    assert rows[-1].branch_note["lam4"] == 0.5


def test_delta_closed_form_sees_a_perturbed_coproduct():
    """Negative control: the first Sweedler coefficient of Delta(ad) scaled by
    1 + 1e-6 breaches structure.delta-closed-form on B (2, 3) at D = 8
    (1.1e-6 against 1e-10) and leaves every other row passing."""
    rep = _rep("B", (2, 3), dim=8)
    assert all(r.passed for r in run_structure_checks(rep, build_tables(rep), 1e-10))
    tables = build_tables(rep)   # fresh: tables hold each Delta image once gathered
    tables.atom("ad").delta[0].coeff *= 1 + 1e-6
    failed = [r.identity for r in run_structure_checks(rep, tables, 1e-10) if not r.passed]
    assert failed == ["structure.delta-closed-form"]


def test_characteristic_identity_grid():
    for params in B_GRID:
        (report,) = _rows(run_structure_checks(_rep("B", params), None, 1e-10),
                          "structure.characteristic")
        assert report.passed, report.summary()
        eta = report.branch_note["eta"]
        assert eta == pytest.approx((params[0] / 4 - params[1] / 2) ** 2)


def test_bh_form_grid():
    for params in B_GRID:
        (report,) = _rows(run_structure_checks(_rep("B", params), None, 1e-10),
                          "structure.bh-form")
        assert report.passed, report.summary()


# -- the reflection-family number element -------------------------------------

def test_build_M_matches_number_operator():
    for params in H_GRID:
        rep = _rep("H", params)
        assert np.abs(_corpus_value(rep, "Mk") - rep.number.to_dense()).max() < 1e-10
        reports = _rows(run_structure_checks(rep), "structure.m-element")
        assert [r.identity for r in reports] == ["structure.m-element.low",
                                                 "structure.m-element.raise"]
        for report in reports:
            assert report.passed, report.summary()


def test_com_check_grid():
    for params in H_GRID:
        (report,) = _rows(run_structure_checks(_rep("H", params), None, 1e-10),
                          "structure.com")
        assert report.passed, report.summary()


def test_com_check_builds_only_its_own_row(monkeypatch):
    """The reflection family's structure suite builds each of its rows once:
    the com row shares the rebuilt M with the m-element rows, not their rows."""
    from bosonhopf import report
    built = []
    row = report.windowed_row
    monkeypatch.setattr(report, "windowed_row",
                        lambda spec, dim, ident, *args, **kw:
                        built.append(ident) or row(spec, dim, ident, *args, **kw))
    run_structure_checks(_rep("H", (1.0, 0.5, 0.0)))
    assert built.count("structure.com") == 1
    assert len(built) == len(set(built)) == 3 + 6


# -- realizations and Casimirs ------------------------------------------------

def test_realizations_all_families():
    cases = ([("B", p, ("osp12", "sl2")) for p in B_GRID]
             + [("Bbar", p, ("sl2",)) for p in BBAR_GRID if p[0] != 0]
             + [("H", p, ("osp12", "sl2")) for p in H_GRID]
             + [("Bq", p, ("ospq12",)) for p in BQ_GRID]
             + [("Bbarq", p, ("slq2",)) for p in BBARQ_GRID if p[0] != 0])
    for family, params, targets in cases:
        reports = _rows(run_structure_checks(_rep(family, params), None, 1e-10),
                        "structure.realization")
        assert [r.identity for r in reports] == [
            f"structure.realization.{target}.{tag}" for target in targets
            for tag in ("ef", "he", "hf")]
        for report in reports:
            assert report.passed, report.summary()


def test_realization_normalization_products():
    """The whole normalization product sits on f: 2/alpha for osp12 and
    -1/alpha^2 for sl2 from B (2, 1), 1/delta for osp12 from H (1, 0.5, 0)."""
    rep = _rep("B", (2, 1))
    a, ad = rep.lowering.to_dense(), rep.raising.to_dense()
    osp = build_realization(rep, "osp12")
    assert np.allclose(osp["e"].to_dense(), ad)
    assert np.allclose(osp["f"].to_dense(), 1.0 * a)
    sl2 = build_realization(rep, "sl2")
    assert np.allclose(sl2["f"].to_dense(), -0.25 * a @ a)
    hrep = _rep("H", (1, 0.5, 0.0))
    assert np.allclose(build_realization(hrep, "osp12")["f"].to_dense(),
                       1.0 * hrep.lowering.to_dense())


def test_realization_rejects_family_mismatch():
    with pytest.raises(SpecError):
        build_realization(_rep("Bbar", (1, 2)), "osp12")
    with pytest.raises(SpecError):
        build_realization(_rep("B", (2, 1)), "slq2")


ORACLE_POINTS = {"B": (2.0, 1.0), "H": (1.0, 0.5, 0.25), "Bbar": (1.0, 2.0),
                 "Bq": (2.0, 1.0, 1.3), "Bbarq": (1.0, 2.0, 0.7)}


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_map_images_match_the_dense_oracle():
    """At D = 6, every map's images and the definitions L, L+, C and the
    rebuilt number element equal their hand-built dense forms to 1e-13
    relative."""
    corpus = ex.identities()
    for target, source in corpus.bindings:
        rep = _rep(source, ORACLE_POINTS[source], 6)
        if target == "B":
            partner = AlgebraSpec("B", (2.0 * rep.spec.delta, 1.0))
            oracle = dense.phi(partner, rep)
        elif target == "H":
            partner = AlgebraSpec("H", (rep.spec.alpha / 2.0, 1.0, 0.0))
            oracle = dense.phi_prime(partner, rep)
        else:
            partner, oracle = None, dense.realization(rep, target)
        images = build_realization(rep, target, partner)
        assert images.keys() == oracle.keys(), (target, source)
        for name, image in images.items():
            assert _close(image.to_dense(), oracle[name]), (target, source, name)
    b_rep, h_rep = _rep("B", (2.0, 2.0), 6), _rep("H", (1.0, 0.5, 0.25), 6)
    assert _close(_corpus_value(b_rep, "L"), dense.grade_odd(b_rep))
    assert _close(_corpus_value(b_rep, "Lp"), dense.grade_odd(b_rep, lam4=0.5))
    assert _close(_corpus_value(b_rep, "C"), dense.casimir_base(b_rep))
    assert _close(_corpus_value(h_rep, "Mk"), dense.number_element(h_rep))


def test_casimir_fixed_values():
    # frozen from the closed forms: i2 = b^2/(4a^2) - b/(4a),
    # c_even = -b^2/(4a^2) + b/(2a), c_odd = 1/4 - b^2/(4a^2); the parity
    # formula 1/2 - b/(2a) - b^2/(4a^2) + (2b - a)/(8a) (3 + (-1)^n) gives both
    for params, i2, c_even, c_odd in [((2, 1), -1 / 16, 3 / 16, 3 / 16),
                                      ((4, 1), -3 / 64, 7 / 64, 15 / 64)]:
        rep = _rep("B", params)
        osp, sl2 = casimir_spectrum(rep, 1e-10)
        assert (osp.identity, sl2.identity) == ("structure.casimir-osp", "structure.casimir-sl2")
        assert osp.passed, osp.summary()
        assert osp.branch_note["i2"] == pytest.approx(i2, abs=1e-12)
        assert sl2.passed, sl2.summary()
        assert sl2.branch_note["c_even"] == pytest.approx(c_even, abs=1e-12)
        assert sl2.branch_note["c_odd"] == pytest.approx(c_odd, abs=1e-12)
        a, b = params
        for sign, value in ((1, c_even), (-1, c_odd)):
            formula = 0.5 - b / (2 * a) - b ** 2 / (4 * a ** 2) + (2 * b - a) / (8 * a) * (3 + sign)
            assert formula == pytest.approx(value, abs=1e-12)


def _changed_image(target, source, name, change):
    """The corpus with the image text t of ``name`` under ``target <- source``
    made ``change(t)``."""
    lines = tuple(
        st._replace(texts=tuple((n, change(t) if n == name else t) for n, t in st.texts))
        if st.kind == "map" and (st.target, st.family) == (target, source) else st
        for st in ex.identities().lines)
    return ex.Identities(lines)


def _scaled_image(target, source, name, factor):
    """The corpus with the image of ``name`` under ``target <- source`` scaled by ``factor``."""
    return _changed_image(target, source, name, lambda t: f"{factor!r}*({t})")


@pytest.mark.parametrize("params", B_GRID + [(4.0, 3.0)])
def test_casimir_rows_see_a_scaled_generator_image(params, monkeypatch):
    """Negative control: each generator image that a Casimir reads (e, f, h
    of the osp12 and of the sl2 realization) scaled by 1 + 1e-6 makes its
    structure.casimir-* row breach 1e-10 at D = 12, alpha = 4 included: the
    scaled rows read 2e-5 to 9e-5, the unscaled ones about 1e-14."""
    rep = _rep("B", params)
    assert all(r.passed for r in casimir_spectrum(rep, 1e-10))
    for target, ident in (("osp12", "structure.casimir-osp"), ("sl2", "structure.casimir-sl2")):
        for name in ("e", "f", "h"):
            monkeypatch.setattr(structure, "identities",
                                lambda corpus=_scaled_image(target, "B", name, 1 + 1e-6): corpus)
            (row,) = [r for r in casimir_spectrum(rep, 1e-10) if r.identity == ident]
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
    gens = build_realization(_rep("H", (1, 0.5, 0.0)), "B", AlgebraSpec("B", (2, 1)))
    assert set(gens) == {"a", "ad", "N"}
    gens = build_realization(_rep("B", (2, 1)), "H", AlgebraSpec("H", (1, 0.5, 0.0)))
    assert set(gens) == {"b", "bd", "K", "M"}


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


# -- a perturbed weight breaches every row a rep reaches ------------------------

PERTURBED_POINTS = [("B", (2.0, 2.0)), ("Bq", (2.0, 4.0, 1.3)), ("Bbar", (1.0, 1.0)),
                    ("Bbarq", (1.0, 1.0, 0.7)), ("H", (1.0, 2.0, 0.25))]


def _with_scaled_weight(rep, level=3, factor=1 + 1e-6):
    """rep with the ladder weight w(level) scaled by ``factor``."""
    lowering, raising = (SectorOperator(x.sectors, x.shift, x.blocks.copy())
                         for x in (rep.lowering, rep.raising))
    lowering.blocks[level] *= np.sqrt(factor)       # entry (level - 1, level)
    raising.blocks[level - 1] *= np.sqrt(factor)    # entry (level, level - 1)
    return dataclasses.replace(rep, lowering=lowering, raising=raising)


# The rows that hold for any ladder weights: identities of the Hopf tables
# or of the maps, which a wrong rep cannot reach, and relations the weights
# do not enter.  phi'(M) is N plus a constant, whatever the weights; and on
# the B-type families h is a function of N, so [h, e] and [h, f] hold too.
WEIGHT_FREE = {"structure.delta-closed-form", "iso.phi-L", "iso.phi-prime-M", "iso.roundtrip",
               "iso.phi-prime.H.number-low", "iso.phi-prime.H.number-raise",
               "iso.phi-prime.H.reflection-number"}


@pytest.mark.parametrize("family, params", PERTURBED_POINTS)
def test_a_scaled_weight_breaches_the_representation_rows(family, params):
    """Negative control: one ladder weight (level 3) scaled by 1 + 1e-6 at
    D = 8 breaches every structure, realization, iso.phi and iso.phi-prime
    row that the weights enter, and leaves the others (WEIGHT_FREE, and the
    he and hf realization rows of the B-type families) passing.  Among the
    breached: every realization ef row, the graded family's structure rows
    but delta-closed-form, the reflection family's com and m-element rows."""
    rep = build_rep(AlgebraSpec(family, params), 8)
    bad = _with_scaled_weight(rep)
    tables = build_tables(bad) if family == "B" else None
    rows = run_structure_checks(bad, tables, 1e-10)
    if family == "B":
        rows += iso_phi_prime(AlgebraSpec("H", (params[0] / 2.0, 1.0, 0.0)), bad, 1e-10)
    if family == "H":
        rows += iso_phi(AlgebraSpec("B", (2.0 * params[0], 1.0)), bad, 1e-10)
    free = [r for r in rows if r.identity in WEIGHT_FREE
            or (family != "H" and r.identity.endswith((".he", ".hf")))]
    assert all(r.passed for r in free)
    breached = [r for r in rows if r not in free]
    assert [r.identity for r in breached if r.passed] == []
    assert {r.identity for r in breached} >= {
        f"structure.realization.{t}.ef" for t in
        {"B": ("osp12", "sl2"), "Bq": ("ospq12",), "Bbar": ("sl2",), "Bbarq": ("slq2",),
         "H": ("osp12", "sl2")}[family]}
    assert len(breached) == {"B": 12, "Bq": 1, "Bbar": 1, "Bbarq": 1, "H": 12}[family]
    clean = run_structure_checks(rep, build_tables(rep) if family == "B" else None, 1e-10)
    assert all(r.passed for r in clean)


# -- a wrong map image breaches the rows no wrong rep can reach ----------------

# (family, points, target, the image scaled by 1 + 1e-6, the rows it must
# breach): h scaled breaks [h, e] and [h, f]; phi'(M) scaled breaks
# [M, b] + b and [M, bd] - bd; phi'(b) scaled breaks H(Mk) and the round
# trip (which read Mk, not phi'(M)); phi(N) scaled breaks phi(L).
_HE_HF = {target: [f"structure.realization.{target}.{row}" for row in ("he", "hf")]
          for target in ("osp12", "sl2", "ospq12", "slq2")}
MAP_CONTROLS = [
    ("B", B_GRID, "osp12", "h", _HE_HF["osp12"]),
    ("B", B_GRID, "sl2", "h", _HE_HF["sl2"]),
    ("Bq", BQ_GRID[:4], "ospq12", "h", _HE_HF["ospq12"]),
    ("Bbar", BBAR_GRID, "sl2", "h", _HE_HF["sl2"]),
    ("Bbarq", BBARQ_GRID[:4], "slq2", "h", _HE_HF["slq2"]),
    ("B", B_GRID, "H", "M", ["iso.phi-prime.H.number-low", "iso.phi-prime.H.number-raise"]),
    ("B", B_GRID, "H", "b", ["iso.phi-prime-M", "iso.roundtrip"]),
    ("H", H_GRID, "B", "N", ["iso.phi-L"]),
]


def _batch_rows(reps, target, tol=1e-10):
    """Each rep's structure rows, or its iso rows for the target H or B, run as one batch."""
    from bosonhopf.report import rows_at
    if target == "H":
        partners = [AlgebraSpec("H", (rep.spec.alpha / 2.0, 1.0, 0.0)) for rep in reps]
        lines = structure.iso_batch(partners, reps, tol)
    elif target == "B":
        partners = [AlgebraSpec("B", (2.0 * rep.spec.delta, 1.0)) for rep in reps]
        lines = structure.iso_batch(partners, reps, tol)
    else:
        lines = structure.run_structure_checks_batch(reps, None, tol)
    return [{r.identity: r for r in rows_at(lines, p)} for p in range(len(reps))]


@pytest.mark.parametrize("family, grid, target, name, idents", MAP_CONTROLS,
                         ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in MAP_CONTROLS])
def test_a_scaled_map_image_breaches_the_rows_no_wrong_rep_reaches(family, grid, target, name,
                                                                   idents, monkeypatch):
    """Negative control for the rows that hold for any ladder weights (see
    WEIGHT_FREE; structure.delta-closed-form has its own control): one map
    image scaled by 1 + 1e-6 makes each of them breach 1e-10 at every point
    of a batch, run once on the direct sum of the points' images
    (structure's batch runners), while the right corpus passes them there."""
    reps = [_rep(family, params, 8) for params in grid]
    for point in _batch_rows(reps, target):
        assert all(point[ident].passed for ident in idents)
    monkeypatch.setattr(structure, "identities",
                        lambda corpus=_scaled_image(target, family, name, 1 + 1e-6): corpus)
    for rep, point in zip(reps, _batch_rows(reps, target)):
        for ident in idents:
            assert not point[ident].passed and point[ident].residual > 1e-8, (
                rep.spec, ident, point[ident].residual)


def test_reflection_number_refuses_every_image_that_could_breach_it(monkeypatch):
    """iso.phi-prime.H.reflection-number, [K, M] = 0, has no scaled-image
    control: phi'(K) and phi'(M) are diagonal however any image is scaled,
    and diagonal operators commute.  Only an image that mixes level shifts
    could breach it, and the lab refuses those: with phi'(K) moved off the
    diagonal by 1e-6 (a + ad), the batch raises, and a run's iso suite
    writes a failed iso.error row at each point instead of passing it."""
    from bosonhopf import cli
    reps = [_rep("B", params, 8) for params in B_GRID]
    monkeypatch.setattr(structure, "identities",
                        lambda corpus=_scaled_image("H", "B", "K", 1 + 1e-6): corpus)
    for point in _batch_rows(reps, "H"):
        assert point["iso.phi-prime.H.reflection-number"].passed
    monkeypatch.setattr(structure, "identities", lambda corpus=_changed_image(
        "H", "B", "K", lambda t: f"{t} + 1e-6*(a + ad)"): corpus)
    with pytest.raises(ValueError, match="level shifts"):
        _batch_rows(reps, "H")
    scenario = cli.Scenario("iso", "B", {"alpha": [2.0, 4.0], "beta": [1.0, 2.0]}, dim=8,
                            suites=("iso",))
    rows = [json.loads(line) for _, _, line in cli._run_job((scenario, cli.grid_expand(scenario)))]
    assert [(r["identity"], r["passed"]) for r in rows] == [("iso.error", False)] * 4
