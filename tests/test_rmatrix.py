import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables, rmatrix
from bosonhopf.fock import RepresentationError, SpecError
from bosonhopf.hopf import Term
from bosonhopf.rmatrix import (BBARQ_DEFAULT, BBARQ_PRINTED, BQ_DEFAULT,
                               BranchChoice, _head, _head_exponent, _ladder_coeff,
                               _site_pairs, branch_lattice, build_r, build_r0,
                               check_r_axioms, check_quasitriangularity,
                               check_trivial_r, check_ybe, diagnose_branches,
                               run_r_checks)
from bosonhopf.tensor import (embed_two_site, level_sectors, spectral_norm,
                              total_window_projector, windowed_norm)
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


def test_branch_scan_gathers_the_delta_images_once(monkeypatch):
    """A branch scan gathers Delta and Delta^T of each generator once, not once
    per branch: 10 terms_operator calls for the five generators of Bq, over
    all 32 branches."""
    rep, tables = _setup("Bq", (2, 4, 1.3))
    calls = []
    gather = rmatrix.terms_operator

    def spy(*args, **kwargs):
        calls.append(args)
        return gather(*args, **kwargs)

    monkeypatch.setattr(rmatrix, "terms_operator", spy)
    rows, _ = diagnose_branches(rep, tables)
    assert len(rows) == 32
    assert len(calls) == 10


def test_diagnosis_table_attached_on_failure():
    rep, tables = _setup("Bbarq", (1, 2, 0.7), dim=6)
    reports = run_r_checks(rep, tables, tol=1e-30)   # force failures
    failed = [rp for rp in reports if not rp.passed]
    assert failed
    assert all("diagnosis" in rp.branch_note for rp in failed)


# -- window-column checks against the dense matrices -------------------------

# (family, params, a wrong branch): the graded series with the quarter phase
# reversed, the ungraded series with its printed factors
DEFORMED_CASES = [("Bq", (2, 4, 1.3), BranchChoice(phase_sign=-1)),
                  ("Bbarq", (1, 1, 0.7), BBARQ_PRINTED)]


def _dense_series_r(r, left, right):
    """R on the dense slot images ``left(name)`` and ``right(name)`` as a
    dense Kronecker sum over the ladder series,
    head . sum_l c_l (d_l (ad)^l) x (q^{-rate l Nt} a^l), each power taken
    by np.linalg.matrix_power."""
    rep, branch = r.rep, r.branch
    q, c = rep.spec.q, _head_exponent(rep)
    rate = c / 2.0 if branch.full_rate else c / 4.0
    graded = rep.spec.family == "Bq"
    nt = [image("N").diagonal().real + rep.spec.grade_shift for image in (left, right)]
    total = 0
    for l in range(rep.dim):
        dress = q ** (rate * l * nt[0])
        if graded:
            dress = dress * np.exp(1j * np.pi * l * nt[0])
        right_l = (q ** (-rate * l * nt[1]))[:, None] * np.linalg.matrix_power(right("a"), l)
        total = total + _ladder_coeff(rep, l, branch) * np.kron(
            dress[:, None] * np.linalg.matrix_power(left("ad"), l), right_l)
    left_slot, right_slot = (SimpleNamespace(nt=n, g=image("g").diagonal() if graded else None)
                             for n, image in zip(nt, (left, right)))
    return _head(left_slot, right_slot, q, c)[:, None] * total


def _dense_residuals(r, tables):
    """Fusion and Yang-Baxter residuals from the full dense D^3 x D^3
    matrices, windowed by the dense projector.  (Delta x id) R and
    (id x Delta) R are dense Kronecker sums on every column, with the Delta
    images from tables.delta_matrix."""
    dim = r.dim
    one, delta = r.rep.generator, tables.delta_matrix
    eye = np.eye(dim)
    r12, r23 = np.kron(r.matrix, eye), np.kron(eye, r.matrix)
    r13 = embed_two_site(r.matrix, (0, 2), 3, dim)
    proj = total_window_projector(dim, 3, 0)
    out = {}
    for slots, tgt, ident in (((delta, one), r13 @ r23, "rmatrix.fusion-left"),
                              ((one, delta), r13 @ r12, "rmatrix.fusion-right")):
        full = _dense_series_r(r, *slots)
        out[ident] = windowed_norm(full - tgt, proj) / max(1.0, windowed_norm(tgt, proj))
    lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
    scale = np.abs(r12) @ np.abs(r13) @ np.abs(r23)
    out["rmatrix.ybe"] = windowed_norm(lhs - rhs, proj) / max(1.0, windowed_norm(scale, proj))
    return out


@pytest.mark.parametrize("dim", [6, 8])
@pytest.mark.parametrize("family, params, wrong", DEFORMED_CASES)
def test_window_column_residuals_match_the_dense_matrices(family, params, wrong, dim):
    """The fusion and Yang-Baxter residuals built on the window columns equal
    the dense ones to 1e-12 relative.  Residuals are normalised by a scale of
    at least 1, and the dense triple products are associated left to right,
    so rounding-level residuals (about 1e-16) get a 1e-15 absolute floor."""
    rep, tables = _setup(family, params, dim)
    for branch in (None, wrong):
        r = build_r(rep, branch=branch)
        rows = {rp.identity: rp.residual
                for rp in check_r_axioms(r, tables) + [check_ybe(r)]}
        for ident, ref in _dense_residuals(r, tables).items():
            assert abs(rows[ident] - ref) <= max(1e-12 * ref, 1e-15), (ident, branch)


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7)),
                                            ("B", (2, 2))])
def test_r_site_pairs_match_the_dense_embeddings(family, params):
    """R12, R13 and R23 gathered straight from R's entries on the Yang-Baxter
    window's column sectors equal np.kron(R, I), np.kron(I, R) and
    embed_two_site(R, (0, 2), 3, D) entry for entry on the window columns,
    and hold nothing on the others (D = 6; R0 for B)."""
    dim = 6
    rep = build_rep(AlgebraSpec(family, params), dim)
    r = build_r0(rep) if family == "B" else build_r(rep)
    sectors = level_sectors(dim, 3)
    kept = sectors.level <= dim - 1
    eye = np.eye(dim)
    dense = (np.kron(r.matrix, eye), embed_two_site(r.matrix, (0, 2), 3, dim),
             np.kron(eye, r.matrix))
    for op, ref in zip(_site_pairs(r, sectors, dim - 1), dense):
        got = op.to_dense()
        assert np.array_equal(got[:, kept], ref[:, kept])
        assert not got[:, ~kept].any()


@pytest.mark.parametrize("family, params, wrong", DEFORMED_CASES)
def test_deformed_r_axioms_see_a_wrong_branch(family, params, wrong):
    """Negative controls: under a wrong branch every fusion, inverse and
    Yang-Baxter row breaches its bound, by more than 1e-2."""
    rep, tables = _setup(family, params)
    r = build_r(rep, branch=wrong)
    rows = check_r_axioms(r, tables) + [check_ybe(r)]
    assert [rp.identity for rp in rows] == [
        "rmatrix.fusion-left", "rmatrix.fusion-right", "rmatrix.inverse", "rmatrix.ybe"]
    for rp in rows:
        assert not rp.passed and rp.residual > 1e-2, rp.summary()


FUSION_ROWS = {"rmatrix.fusion-left", "rmatrix.fusion-right"}


def _delta_plus_one(atom):
    """Delta(x) plus the term 1e-3 (1 x 1)."""
    return "delta", atom.delta + [Term(1e-3, ((), ()))]


def _delta_negated(atom):
    return "delta", [Term(-t.coeff, t.words) for t in atom.delta]


def _antipode_plus_one(atom):
    """S(x) + 1e-3."""
    return "s", atom.s + 1e-3 * np.eye(len(atom.s))


# (family, params, generator, wrong image, rows that must breach)
TABLE_CONTROLS = [
    ("Bq", (2, 4, 1.3), "N", _delta_plus_one, FUSION_ROWS),
    ("Bbarq", (1, 1, 0.7), "N", _delta_plus_one, FUSION_ROWS),
    ("Bq", (2, 4, 1.3), "N", _antipode_plus_one, {"rmatrix.inverse"}),
    ("Bbarq", (1, 1, 0.7), "N", _antipode_plus_one, {"rmatrix.inverse"}),
    ("Bq", (2, 4, 1.3), "g", _delta_negated, FUSION_ROWS),
]


@pytest.mark.parametrize("family, params, name, wrong, breached", TABLE_CONTROLS,
                         ids=["Bq-delta-N", "Bbarq-delta-N", "Bq-antipode-N",
                              "Bbarq-antipode-N", "Bq-delta-g"])
def test_deformed_r_axioms_read_the_table_images(monkeypatch, family, params,
                                                 name, wrong, breached):
    """Negative controls: the Delta and S images of R are assembled from the
    Hopf tables' Sweedler terms and antipode images of N, g, a and ad, so a
    wrong Delta(N), S(N) or Delta(g) breaches the rows that use that map, and
    only those (Delta(N) + 1e-3 (1 x 1) reads 2.2e-2 and 2.9e-3 on the
    fusion rows of Bq, 7.1e-4 on Bbarq; a negated Delta(g) 0.57 and 1.99)."""
    rep, tables = _setup(family, params)
    atom = tables.atom(name)
    monkeypatch.setattr(atom, *wrong(atom))
    for rp in check_r_axioms(build_r(rep), tables):
        assert rp.passed != (rp.identity in breached), rp.summary()


def test_r_axioms_reject_a_non_diagonal_image(monkeypatch):
    """Delta(g) plus the level-conserving term 1e-3 (ad x a) is no diagonal."""
    rep, tables = _setup("Bq", (2, 4, 1.3), dim=4)
    g = tables.atom("g")
    monkeypatch.setattr(g, "delta", g.delta + [Term(1e-3, ((tables.atom("ad"),),
                                                          (tables.atom("a"),)))])
    with pytest.raises(RepresentationError, match="diagonal image of g"):
        check_r_axioms(build_r(rep), tables)


def test_r_axioms_reject_a_delta_image_that_mixes_level_shifts(monkeypatch):
    """Delta(ad) plus the term 1e-3 (a x 1) moves the total level by +1 and
    by -1: its Sweedler sum has no sector blocks, and the Delta slot refuses
    it instead of densifying."""
    rep, tables = _setup("Bq", (2, 4, 1.3), dim=4)
    ad = tables.atom("ad")
    monkeypatch.setattr(ad, "delta", ad.delta + [Term(1e-3, ((tables.atom("a"),), ()))])
    with pytest.raises(ValueError, match="level shifts 1 and -1 have no common blocks"):
        check_r_axioms(build_r(rep), tables)


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7))])
def test_quasitriangularity_sees_a_perturbed_coproduct(family, params):
    """Negative control: the first Sweedler coefficient of Delta(a) scaled by
    1 + 1e-6 breaches rmatrix.quasitriangular.a and no other generator's row
    (3.0e-5 on Bq, 2.1e-7 on Bbarq).  Delta and Delta^T are both gathered
    from the tables' terms, so the perturbation reaches both sides."""
    rep, tables = _setup(family, params)
    r = build_r(rep)
    assert all(rp.passed for rp in check_quasitriangularity(r, tables))
    tables.atom("a").delta[0].coeff *= 1 + 1e-6
    failed = [rp.identity for rp in check_quasitriangularity(r, tables) if not rp.passed]
    assert failed == ["rmatrix.quasitriangular.a"]


def test_quasitriangularity_rejects_an_r_that_moves_the_level():
    """R is taken as one shift-0 sector operator; an entry that moves the
    total level cannot be, and is reported instead of dropped."""
    rep, tables = _setup("Bq", (2, 4, 1.3), dim=4)
    r = build_r(rep)
    bad = r.matrix.copy()
    bad[0, 1] = 1e-3
    with pytest.raises(RepresentationError, match="total level"):
        check_quasitriangularity(dataclasses.replace(r, matrix=bad), tables)


@pytest.mark.xfail(strict=True, reason="loose backward-error scale |S R| |R|: a negated "
                   "S(g) reads 9.1e-9, under the 1e-8 bound, until the scale is tightened")
def test_inverse_row_sees_a_negated_antipode_of_g(monkeypatch):
    """Bq (2, 4, 1.3) at D = 8 with S(g) negated in the tables: the
    rmatrix.inverse row moves from 5.4e-15 only to 9.14e-9, under its 1e-8
    bound, so the wrong image passes.  A tighter scale turns this test into
    an XPASS, which fails until the marker is removed."""
    rep, tables = _setup("Bq", (2, 4, 1.3))
    g = tables.atom("g")
    monkeypatch.setattr(g, "s", -g.s)
    rows = {rp.identity: rp for rp in check_r_axioms(build_r(rep), tables)}
    assert not rows["rmatrix.inverse"].passed, rows["rmatrix.inverse"].summary()


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7))])
def test_ybe_above_dim_8(family, params):
    report = check_ybe(build_r(build_rep(AlgebraSpec(family, params), 10)))
    assert report.dim == 10
    assert report.passed, report.summary()


def _working_set(check) -> float:
    """The traced peak of a second call to ``check`` (the first builds the
    level-sector plans and flat indices), in windowed three-site operators
    at D = 8: complex blocks of shift 0 on the column sectors up to level 7."""
    check()
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (level_sectors(8, 3).plan(0, 8).ok.size * 16)


def test_the_r_axioms_hold_only_the_operators_a_row_needs():
    """check_r_axioms gathers the site pairs of a fusion row when it builds
    that row, drops them with the row's target and series once it is normed,
    and sums the series in place: within 8 three-site operators at D = 8
    (12.5 when all three pairs were held for both rows)."""
    rep, tables = _setup("Bq", (2, 4, 1.3))
    r = build_r(rep)
    assert _working_set(lambda: check_r_axioms(r, tables)) <= 8


def test_ybe_holds_each_product_only_until_its_last_use():
    """check_ybe norms its scale first and drops each pair and partial
    product after its last use: within 6 three-site operators at D = 8
    (8.0 when every operand was held to the end)."""
    r = build_r(build_rep(AlgebraSpec("Bq", (2, 4, 1.3)), 8))
    assert _working_set(lambda: check_ybe(r)) <= 6


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


def test_r0_axioms_see_a_flipped_phase(monkeypatch):
    """Negative controls: one flipped phase in the first word of Delta(g)
    breaches both fusion rows (2.0 on each); one flipped phase of S(g)
    breaches the inverse row.  The inverse row does not involve Delta, so
    Delta(g) cannot reach it."""
    rep, tables = _setup("B", (2, 2), dim=6)
    r0 = build_r0(rep)
    g = tables.atom("g")
    flipped = dataclasses.replace(g, matrix=g.matrix.copy())
    flipped.matrix[0, 0] *= -1
    monkeypatch.setattr(g, "delta", [Term(1.0, ((flipped,), (g,)))])
    rows = {rp.identity: rp for rp in check_r_axioms(r0, tables, 1e-12)}
    assert not rows["rmatrix.fusion-left"].passed
    assert not rows["rmatrix.fusion-right"].passed
    assert rows["rmatrix.inverse"].passed
    monkeypatch.undo()
    g = tables.atom("g")
    flipped_s = g.s.copy()
    flipped_s[1, 1] *= -1
    monkeypatch.setattr(g, "s", flipped_s)
    rows = {rp.identity: rp for rp in check_r_axioms(r0, tables, 1e-12)}
    assert not rows["rmatrix.inverse"].passed
    assert rows["rmatrix.fusion-left"].passed and rows["rmatrix.fusion-right"].passed


def test_trivial_r_for_ungraded_family():
    for params in BBAR_GRID:
        if params[0] == 0:
            continue
        rep, tables = _setup("Bbar", params, dim=6)
        report = check_trivial_r(tables)
        assert report.passed, report.summary()


def test_trivial_r_sees_an_asymmetric_coproduct():
    """Negative control: the first Sweedler coefficient of Delta(a) scaled by
    1 + 1e-6 makes Delta^T(a) differ from Delta(a) by 9.9e-6 on Bbar (1, 2)
    at D = 8, against the 1e-12 bound."""
    rep, tables = _setup("Bbar", (1, 2))
    assert check_trivial_r(tables).residual == 0.0
    tables.atom("a").delta[0].coeff *= 1 + 1e-6
    report = check_trivial_r(tables)
    assert not report.passed and report.residual > 1e-6, report.summary()


# -- classical limit ----------------------------------------------------------

def test_classical_limit_bq():
    """|R(q) - R0| at D = 6 falls along q = 1.1, 1.01, 1.001 and ends below 0.05."""
    reps = [build_rep(AlgebraSpec("Bq", (1, 1, q)), 6) for q in (1.1, 1.01, 1.001)]
    r0 = build_r0(reps[0]).matrix
    gaps = [spectral_norm(build_r(rep).matrix - r0) for rep in reps]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05, gaps


# -- branch lattice -----------------------------------------------------------

def test_branch_lattice_sizes():
    assert len(branch_lattice("Bq")) == 32
    assert len(branch_lattice("Bbarq")) == 16   # no quarter phase

