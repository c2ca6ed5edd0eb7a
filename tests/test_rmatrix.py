import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bosonhopf import AlgebraSpec, build_rep, build_tables, hopf
from bosonhopf.fock import RepresentationError, SpecError
from bosonhopf.hopf import Term
from bosonhopf.rmatrix import (BBARQ_DEFAULT, BBARQ_PRINTED, BQ_DEFAULT, YBE_DIM,
                               BranchChoice, _head, _head_exponent, _ladder_coeff,
                               _site_pairs, branch_lattice, build_r, build_r0,
                               check_r_axioms, check_quasitriangularity,
                               check_trivial_r, check_ybe, diagnose_branches,
                               run_r_checks)
from bosonhopf.tensor import (SectorOperator, embed_two_site, level_sectors, spectral_norm,
                              total_window_projector, windowed_norm)
from grids import BBARQ_GRID, BBAR_GRID, BQ_INTEGER_GRID


def _setup(family, params, dim=8):
    rep = build_rep(AlgebraSpec(family, params), dim)
    return rep, build_tables(rep)


def _ybe_rep(rep):
    """The rep the CLI's rmatrix suite runs Yang-Baxter on: at most YBE_DIM levels."""
    return rep if rep.dim <= YBE_DIM else build_rep(rep.spec, YBE_DIM)


# -- the graded series --------------------------------------------------------

def test_bq_full_suite_on_integer_grid():
    for params in BQ_INTEGER_GRID:
        rep, tables = _setup("Bq", params)
        for report in run_r_checks(rep, tables, _ybe_rep(rep), 1e-8):
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
        for report in run_r_checks(rep, tables, _ybe_rep(rep), 1e-8):
            assert report.passed, report.summary()


def test_bbarq_printed_branch_fails_everywhere():
    rep, tables = _setup("Bbarq", (2, 1, 1.3))
    r = build_r(rep, branch=BBARQ_PRINTED)
    worst = max(rp.residual for rp in check_quasitriangularity(r, tables, 1e-8))
    assert worst > 1e-1
    # and the default branch records its deviation from the printed factors
    r_good = build_r(rep)
    assert "printed_factor_deviation" in r_good.branch_note


def test_the_printed_bbarq_factors_breach_the_ladder_rows():
    """Negative control for build_r's note that the printed factors fail:
    at Bbarq (1, 1, 0.7), D = 8, R built on BBARQ_PRINTED breaches
    rmatrix.quasitriangular.a and .ad (0.253 and 0.251 against 1e-8), while
    .N reads exactly 0.0, as Delta(N) and Delta^T(N) are the same diagonal
    of the total level, which R keeps; on the default branch all three pass."""
    rep, tables = _setup("Bbarq", (1, 1, 0.7))
    printed = build_r(rep, branch=BBARQ_PRINTED)
    rows = {rp.identity: rp for rp in check_quasitriangularity(printed, tables)}
    assert rows["rmatrix.quasitriangular.N"].residual == 0.0
    for name in ("a", "ad"):
        row = rows[f"rmatrix.quasitriangular.{name}"]
        assert not row.passed and row.residual > 0.2, row.summary()
    assert all(rp.passed for rp in check_quasitriangularity(build_r(rep), tables))


def test_bbarq_default_branch_is_unique_passer():
    rep, tables = _setup("Bbarq", (1, 2, 0.7), dim=6)
    rows, table = diagnose_branches(rep, tables)
    passing = [b for b, res in rows if res < 1e-8]
    assert BBARQ_DEFAULT in passing
    # any other passing branch is a reparameterization of the same matrix
    reference = build_r(rep).op
    for branch in passing:
        assert np.abs((build_r(rep, branch=branch).op - reference).blocks).max() < 1e-8
    assert "branch diagnosis" in table


def test_branch_scan_gathers_the_delta_images_once(monkeypatch):
    """A branch scan gathers Delta and Delta^T of each generator once, not once
    per branch: 10 terms_operator calls for the five generators of Bq, over
    all 32 branches (HopfTables.delta_image holds them)."""
    rep, tables = _setup("Bq", (2, 4, 1.3))
    calls = []
    gather = hopf.terms_operator

    def spy(*args, **kwargs):
        calls.append(args)
        return gather(*args, **kwargs)

    monkeypatch.setattr(hopf, "terms_operator", spy)
    rows, _ = diagnose_branches(rep, tables)
    assert len(rows) == 32
    assert len(calls) == 10


def test_diagnosis_table_attached_on_failure():
    rep, tables = _setup("Bbarq", (1, 2, 0.7), dim=6)
    reports = run_r_checks(rep, tables, rep, tol=1e-30)   # force failures
    failed = [rp for rp in reports if not rp.passed]
    assert failed
    assert all("diagnosis" in rp.branch_note for rp in failed)


# -- window-column checks against the dense matrices -------------------------

# (family, params, a wrong branch): the graded series with the quarter phase
# reversed, the ungraded series with its printed factors
DEFORMED_CASES = [("Bq", (2, 4, 1.3), BranchChoice(phase_sign=-1)),
                  ("Bbarq", (1, 1, 0.7), BBARQ_PRINTED)]


def _dense(image):
    """``image(name)``, a sector operator, as the dense matrix the oracles read."""
    return lambda name: image(name).to_dense()


def _dense_slots(r, left, right):
    """The head's view of the dense slot images ``left(name)`` and
    ``right(name)``: the diagonals of Nt and (graded) of g."""
    rep = r.rep
    graded = rep.spec.family in ("B", "Bq")
    return [SimpleNamespace(nt=image("N").diagonal().real + rep.spec.grade_shift,
                            g=image("g").diagonal() if graded else None)
            for image in (left, right)]


def _dense_terms(r, left, right):
    """The series terms (c_l, d_l, (ad)^l, q^{-rate l Nt} a^l) on the dense
    slot images, each power taken by np.linalg.matrix_power; R0's one term
    is 1 x 1."""
    rep, branch = r.rep, r.branch
    nt = [slot.nt for slot in _dense_slots(r, left, right)]
    if branch is None:
        return [(1.0, np.ones(len(nt[0])), np.eye(len(nt[0])), np.eye(len(nt[1])))]
    q, c = rep.spec.q, _head_exponent(rep)
    rate = c / 2.0 if branch.full_rate else c / 4.0
    out = []
    for l in range(rep.dim):
        dress = q ** (rate * l * nt[0])
        if rep.spec.family == "Bq":
            dress = dress * np.exp(1j * np.pi * l * nt[0])
        out.append((_ladder_coeff(rep, l, branch), dress, np.linalg.matrix_power(left("ad"), l),
                    (q ** (-rate * l * nt[1]))[:, None] * np.linalg.matrix_power(right("a"), l)))
    return out


def _dense_head(r, left, right):
    """R's head diagonal on the dense slot images; R0's is its parity head."""
    slots = _dense_slots(r, left, right)
    if r.branch is None:
        return _head(*slots)
    return _head(*slots, r.rep.spec.q, _head_exponent(r.rep))


def _dense_series_r(r, left, right):
    """R on the dense slot images ``left(name)`` and ``right(name)`` as a
    dense Kronecker sum over the ladder series,
    head . sum_l c_l (d_l (ad)^l) x (q^{-rate l Nt} a^l); R0 is its head
    times 1 x 1."""
    total = sum(coeff * np.kron(dress[:, None] * raise_l, right_l)
                for coeff, dress, raise_l, right_l in _dense_terms(r, left, right))
    return _dense_head(r, left, right)[:, None] * total


def _dense_antipode_r(r, tables):
    """(S x id) R as a dense sum over the series,
    sum_l c_l (S(ad)^l x I) diag(m_l) (I x q^{-rate l Nt} a^l), with m_l the
    dressing's S image times the head on the S images: S reverses each left
    word h d_l (ad)^l."""
    dim, one, antipode = r.dim, _dense(r.rep.generator), _dense(tables.antipode)
    head = _dense_head(r, antipode, one).reshape(dim, dim)
    eye = np.eye(dim)
    return sum(coeff * np.kron(raise_l, eye) @ np.diag((dress[:, None] * head).reshape(-1))
               @ np.kron(eye, right_l)
               for coeff, dress, raise_l, right_l in _dense_terms(r, antipode, one))


def _dense_residuals(r, tables):
    """Fusion, inverse and Yang-Baxter residuals from the full dense
    matrices, windowed by the dense projector.  (Delta x id) R and
    (id x Delta) R are dense Kronecker sums on every column, with the Delta
    images from tables.delta_matrix."""
    dim, dense = r.dim, r.op.to_dense()
    one, delta = _dense(r.rep.generator), tables.delta_matrix
    eye = np.eye(dim)
    r12, r23 = np.kron(dense, eye), np.kron(eye, dense)
    r13 = embed_two_site(dense, (0, 2), 3, dim)
    proj = total_window_projector(dim, 3, 0)
    out = {}
    for slots, tgt, ident in (((delta, one), r13 @ r23, "rmatrix.fusion-left"),
                              ((one, delta), r13 @ r12, "rmatrix.fusion-right")):
        full = _dense_series_r(r, *slots)
        out[ident] = windowed_norm(full - tgt, proj) / max(1.0, windowed_norm(tgt, proj))
    sr, proj2 = _dense_antipode_r(r, tables), total_window_projector(dim, 2, 0)
    out["rmatrix.inverse"] = (windowed_norm(sr @ dense - np.eye(dim * dim), proj2)
                              / max(1.0, windowed_norm(np.abs(sr) @ np.abs(dense), proj2)))
    lhs, rhs = r12 @ r13 @ r23, r23 @ r13 @ r12
    scale = np.abs(r12) @ np.abs(r13) @ np.abs(r23)
    out["rmatrix.ybe"] = windowed_norm(lhs - rhs, proj) / max(1.0, windowed_norm(scale, proj))
    return out


# the deformed cases, and B's parity R0, which has no branch to get wrong
ORACLE_CASES = DEFORMED_CASES + [("B", (2, 2), None)]


@pytest.mark.parametrize("dim", [6, 8])
@pytest.mark.parametrize("family, params, wrong", ORACLE_CASES)
def test_window_column_residuals_match_the_dense_matrices(family, params, wrong, dim):
    """The fusion, inverse and Yang-Baxter residuals built level by level
    on the window columns equal the dense ones to 1e-12 relative.
    Residuals are normalised by a scale of at least 1, and the dense
    triple products are associated left to right, so rounding-level
    residuals (about 1e-16) get a 1e-15 absolute floor."""
    rep, tables = _setup(family, params, dim)
    for branch in (None, wrong) if wrong else (None,):
        r = build_r0(rep) if family == "B" else build_r(rep, branch=branch)
        rows = {rp.identity: rp.residual
                for rp in check_r_axioms(r, tables) + [check_ybe(r)]}
        for ident, ref in _dense_residuals(r, tables).items():
            assert abs(rows[ident] - ref) <= max(1e-12 * ref, 1e-15), (ident, branch)


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bq", (4, 8, 1.3)),
                                            ("Bbarq", (1, 1, 0.7)), ("Bbarq", (2, 0, 1.3)),
                                            ("B", (2, 2)), ("B", (1, 3))])
def test_r_matches_the_dense_series(family, params):
    """R's level blocks, under every branch of the family's lattice, and
    R0's on B, equal the dense Kronecker sum over the series on the rep's
    own images to 1e-14 relative to R's largest entry (D = 6)."""
    rep = build_rep(AlgebraSpec(family, params), 6)
    one = _dense(rep.generator)
    for r in ([build_r0(rep)] if family == "B"
              else [build_r(rep, branch=b) for b in branch_lattice(family)]):
        ref = _dense_series_r(r, one, one)
        assert np.abs(r.op.to_dense() - ref).max() <= 1e-14 * np.abs(ref).max(), r.branch


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7)),
                                            ("B", (2, 2))])
def test_r_site_pairs_match_the_dense_embeddings(family, params):
    """At every column level of three sites, the blocks of R12, R13 and R23
    read from R's level blocks equal the level's blocks of
    np.kron(R, I), embed_two_site(R, (0, 2), 3, D) and np.kron(I, R), entry
    for entry (D = 6; R0 for B)."""
    dim = 6
    rep = build_rep(AlgebraSpec(family, params), dim)
    r = build_r0(rep) if family == "B" else build_r(rep)
    sectors = level_sectors(dim, 3)
    eye, matrix = np.eye(dim), r.op.to_dense()
    dense = (np.kron(matrix, eye), embed_two_site(matrix, (0, 2), 3, dim),
             np.kron(eye, matrix))
    for level in range(sectors.size.size):
        states = sectors.states(level)
        for got, ref in zip(_site_pairs(r, sectors.site_levels(level)), dense):
            assert np.array_equal(got, ref[np.ix_(states, states)]), level


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
    return "s", atom.s + 1e-3 * SectorOperator.identity(atom.s.sectors)


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


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7)),
                                            ("B", (2, 2))])
def test_fusion_rows_see_r_perturbed_at_the_top_window_level(family, params):
    """Negative control for the level-by-level rows: R's row of the two-site
    state (D - 1, 0) scaled by 1 + 1e-6 breaches both fusion rows (about
    3e-7 to 2e-6 at D = 8).  That state's level is D - 1, so on three sites
    it reaches the window only at its top column level: a row that left out
    that level would pass."""
    rep, tables = _setup(family, params)
    r = build_r0(rep) if family == "B" else build_r(rep)
    fusion = lambda rows: {rp.identity: rp for rp in rows if rp.identity in FUSION_ROWS}
    assert all(rp.passed for rp in fusion(check_r_axioms(r, tables)).values())
    perturbed = r.op.to_dense()
    perturbed[(r.dim - 1) * r.dim] *= 1 + 1e-6
    op = SectorOperator.from_dense(perturbed, r.op.sectors)
    rows = fusion(check_r_axioms(dataclasses.replace(r, op=op), tables))
    assert len(rows) == 2
    for rp in rows.values():
        assert not rp.passed and rp.residual > 1e-7, rp.summary()


@pytest.mark.parametrize("family, params", [("Bq", (2, 4, 1.3)), ("Bbarq", (1, 1, 0.7))])
def test_quasitriangularity_sees_a_perturbed_coproduct(family, params):
    """Negative control: the first Sweedler coefficient of Delta(a) scaled by
    1 + 1e-6 breaches rmatrix.quasitriangular.a and no other generator's row
    (3.0e-5 on Bq, 2.1e-7 on Bbarq).  Delta and Delta^T are both gathered
    from the tables' terms, so the perturbation reaches both sides."""
    rep, tables = _setup(family, params)
    r = build_r(rep)
    assert all(rp.passed for rp in check_quasitriangularity(r, tables))
    tables = build_tables(rep)   # fresh: tables hold each Delta image once gathered
    tables.atom("a").delta[0].coeff *= 1 + 1e-6
    failed = [rp.identity for rp in check_quasitriangularity(r, tables) if not rp.passed]
    assert failed == ["rmatrix.quasitriangular.a"]


def test_quasitriangularity_rejects_an_r_that_moves_the_level():
    """check_quasitriangularity multiplies R's shift-0 sector operator, the
    only form R takes; a dense R with an entry that moves the total level
    has none: SectorOperator.from_dense reports None instead of dropping
    the entry."""
    r = build_r(build_rep(AlgebraSpec("Bq", (2, 4, 1.3)), 4))
    bad = r.op.to_dense()
    bad[0, 1] = 1e-3
    assert SectorOperator.from_dense(bad, r.op.sectors) is None


def test_level_rows_reject_an_r_that_moves_the_level():
    """The fusion, inverse and Yang-Baxter rows read R level block by level
    block, where an entry that moves the total level has no place: a dense
    R0 with an entry from the top level's state (D - 1, 0) to (0, 0) has no
    sector operator (SectorOperator.from_dense reports None), rather than
    one with the entry dropped from the blocks."""
    r = build_r0(build_rep(AlgebraSpec("B", (2, 2)), 4))
    bad = r.op.to_dense()
    bad[0, (r.dim - 1) * r.dim] = 1e-3
    assert SectorOperator.from_dense(bad, r.op.sectors) is None


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


# one padded windowed three-site operator at D = 8, the unit of the working
# sets below: complex blocks of shift 0 on the column sectors up to level 7,
# each padded to the widest (166 kB)
WINDOW_OPERATOR_D8 = 8 * 36 * 36 * 16


def _working_set(check) -> float:
    """The traced peak, in bytes, of a second call to ``check`` (the first
    builds the level-sector index)."""
    check()
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _largest_level_block(dim: int) -> int:
    """The bytes of the largest complex level block of the three-site
    window at ``dim``: level dim - 1 holds dim (dim + 1) / 2 states."""
    return (dim * (dim + 1) // 2) ** 2 * 16


def test_the_r_axioms_hold_only_the_operators_a_row_needs():
    """check_r_axioms builds each row one column level at a time and holds
    no windowed three-site operator: its traced peak stays within 2 padded
    window operators at D = 8 (it reads about 1.5), and within 14 blocks of
    the largest level at D = 12 (about 11.5: the series' stacked factors and
    one level's blocks; the Delta slot's diagonals are read from its sector
    blocks, never from a dense image)."""
    for dim, unit, bound in ((8, WINDOW_OPERATOR_D8, 2), (12, _largest_level_block(12), 14)):
        rep, tables = _setup("Bq", (2, 4, 1.3), dim)
        r = build_r(rep)
        assert _working_set(lambda: check_r_axioms(r, tables)) <= bound * unit, dim


def test_ybe_holds_each_product_only_until_its_last_use():
    """check_ybe gathers R12, R13 and R23 one column level at a time and
    drops each level's blocks and products once they are normed: its traced
    peak stays within 2 padded window operators at D = 8 (it reads about
    0.9), and within 8 blocks of the largest level at D = 12 (about 7.1)."""
    for dim, unit, bound in ((8, WINDOW_OPERATOR_D8, 2), (12, _largest_level_block(12), 8)):
        r = build_r(build_rep(AlgebraSpec("Bq", (2, 4, 1.3)), dim))
        assert _working_set(lambda: check_ybe(r)) <= bound * unit, dim


# -- R0 and the trivial R -----------------------------------------------------

def test_r0_matrix_values():
    rep = build_rep(AlgebraSpec("B", (2, 2)), 4)
    r0 = build_r0(rep).op.to_dense()
    # diagonal: -1 on odd x odd level pairs, +1 elsewhere
    signs = np.array([(-1.0) ** (i * j) for i in range(1, 5)
                      for j in range(1, 5)])
    assert np.allclose(np.diag(r0), signs)


@pytest.mark.parametrize("dim", [4, 9])
@pytest.mark.parametrize("family, params", [("B", (2, 2)), ("B", (1, 3)),
                                            ("Bq", (2, 4, 0.7)), ("Bq", (1, 2, 1.3))])
def test_r0_is_the_parity_head_on_the_diagonal(family, params, dim):
    """build_r0's operator, built as the series R is, is the parity head
    (1/2)(1 + g_r + g_l - g_l g_r) on the diagonal, bit for bit, and exactly
    zero elsewhere (B, and Bq with integer beta/alpha)."""
    rep = build_rep(AlgebraSpec(family, params), dim)
    op = build_r0(rep).op
    g = rep.generator("g").to_dense().diagonal()
    gl, gr = g[:, None], g[None, :]
    head = 0.5 * (np.ones((dim, dim)) + gr + gl - gl * gr).reshape(-1)
    dense = op.to_dense()
    assert op.shift == 0
    assert np.array_equal(dense.diagonal(), head)
    np.fill_diagonal(dense, 0)
    assert not dense.any() and not op.blocks[op.sectors.plan(0).pad].any()


def test_r0_axioms_and_ybe():
    rep, tables = _setup("B", (2, 2), dim=4)
    r0 = build_r0(rep)
    for report in check_r_axioms(r0, tables, 1e-12):
        assert report.passed, report.summary()
    ybe = check_ybe(r0, 1e-12)
    assert ybe.passed, ybe.summary()


def _with_entry_negated(op, level):
    """A copy of a one-site diagonal sector operator with its entry at
    (level, level) negated."""
    blocks = op.blocks.copy()
    blocks[level] *= -1
    return SectorOperator(op.sectors, op.shift, blocks)


def test_r0_axioms_see_a_flipped_phase(monkeypatch):
    """Negative controls: one flipped phase in the first word of Delta(g)
    breaches both fusion rows (2.0 on each); one flipped phase of S(g)
    breaches the inverse row.  The inverse row does not involve Delta, so
    Delta(g) cannot reach it.  Each half has its own tables, since tables
    hold each Delta image once gathered."""
    rep, tables = _setup("B", (2, 2), dim=6)
    r0 = build_r0(rep)
    g = tables.atom("g")
    flipped = dataclasses.replace(g, matrix=_with_entry_negated(g.matrix, 0))
    monkeypatch.setattr(g, "delta", [Term(1.0, ((flipped,), (g,)))])
    rows = {rp.identity: rp for rp in check_r_axioms(r0, tables, 1e-12)}
    assert not rows["rmatrix.fusion-left"].passed
    assert not rows["rmatrix.fusion-right"].passed
    assert rows["rmatrix.inverse"].passed
    tables = build_tables(rep)
    g = tables.atom("g")
    monkeypatch.setattr(g, "s", _with_entry_negated(g.s, 1))
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
    tables = build_tables(rep)   # fresh: tables hold each Delta image once gathered
    tables.atom("a").delta[0].coeff *= 1 + 1e-6
    report = check_trivial_r(tables)
    assert not report.passed and report.residual > 1e-6, report.summary()


# -- classical limit ----------------------------------------------------------

def test_classical_limit_bq():
    """|R(q) - R0| at D = 6 falls along q = 1.1, 1.01, 1.001 and ends below 0.05."""
    reps = [build_rep(AlgebraSpec("Bq", (1, 1, q)), 6) for q in (1.1, 1.01, 1.001)]
    r0 = build_r0(reps[0]).op
    gaps = [spectral_norm(build_r(rep).op - r0) for rep in reps]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05, gaps


# -- branch lattice -----------------------------------------------------------

def test_branch_lattice_sizes():
    assert len(branch_lattice("Bq")) == 32
    assert len(branch_lattice("Bbarq")) == 16   # no quarter phase

