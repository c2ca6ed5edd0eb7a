"""R-matrices for the deformed families and the grade-projector R0.

The undeformed graded family carries the parity R-matrix R0; the two
deformed families carry ladder-series R-matrices of the shape

    R = head . sum_l c_l (d_l (a+)^l) x (q^{-rate l Nt} a^l),
    head = [R0] . q^{c Nt x Nt},

with c = alpha (graded case, with the R0 head) or sigma (ungraded case, no
head), Nt the shifted number operator, rate = c/2 and the left dressing
d_l = q^{rate l Nt} (times exp(i pi l Nt) in the graded case).  The ladder
sum terminates at l = dim because (a+)^l vanishes there, so R is exact on
the truncated space.

R is assembled from the images of Nt, g, a+ and a in each tensor slot: one
head function and one ladder-series generator.  build_r puts the rep's
generators in both slots.  The fusion identities need (Delta x id) R and
(id x Delta) R, which put Delta's images, gathered from the Hopf tables'
Sweedler terms as in every two-site row, in one slot (Delta is an algebra
map); the antipode identity needs (S x id) R, which puts the tables' S
images in the left slot and, since S reverses products, the diagonal images
between S(a+)^l and the right factor.  A wrong Delta or S image in the
tables therefore shows in these rows.  The parity R0 is its head times the
one term 1 x 1, built by the same code as the series R.

The slot images and each ladder power (the previous one times the image)
are level-sector operators (tensor.SectorOperator), stacked term by term
(tensor.SectorStack).  Term l of a series moves each slot's level by l, so
each entry of a level block lies in one term, the one of its left slot's
rise, and one function (_series_block) forms every level block of a series
from that term's factors alone: R's blocks on two sites, which are R's only
form (RMatrix.op, its shift-0 two-site sector operator), and the blocks of
(Delta x id) R and (id x Delta) R on three.  R keeps the total level, so
every operator of the fusion, inverse and Yang-Baxter identities is block
diagonal over the window's column levels, and those rows are built one
level at a time: at each level, R12, R13 and R23 are read from R's blocks
by the reader the series' terms use, their products are formed there, and
the residual and scale blocks are normed as they come (tensor.StreamedNorm)
and dropped.  No operator on the whole three-site window is ever built.

Printed sources for such series are notoriously convention-sensitive; every
sign and root choice is captured in a BranchChoice and recorded in the
result, and diagnose_branches() scans the whole branch lattice so a failing
configuration produces a diagnosis table instead of a silent number.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .fock import FockRep, RepresentationError
from .hopf import HopfTables
from .report import CheckReport, check_report, windowed_row
from .scalars import bracket_factorial, phase_pow
from .spec import NONINTEGER_GRADE_SHIFT, SpecError
from .tensor import SectorOperator, SectorStack, StreamedNorm, level_sectors, spectral_norm

DEFAULT_R_TOL = 1e-8

# Site dimension at which the rmatrix and ybe suites run the Yang-Baxter
# check, min(dim, YBE_DIM).  check_ybe itself takes any dimension: it builds
# its triple products on the three-site window's column sectors only.
YBE_DIM = 6


@dataclass(frozen=True)
class BranchChoice:
    """One resolution of the sign/root/convention ambiguities in the ladder series.

    bracket_base: base of the bracket factorial [l]! in the coefficients;
        "x" divides each bracket by (x - 1/x), "q" by (q - 1/q).
    x_sign: sign of the square root defining the bracket base x.
    phase_sign: sign of the exponent in the (-1)^(l(l-1)/4) phase (graded
        family only; the ungraded series has no quarter phase).
    prefactor_sign: sign of the exponent in the scalar q^(+-(c/4) l(l+1)).
    full_rate: True gives per-site dressings q^(+-(c/2) l Nt), matching the
        rate of the coproduct tails; False halves the rate to c/4.
    """

    bracket_base: str = "x"
    x_sign: int = 1
    phase_sign: int = 1
    prefactor_sign: int = -1
    full_rate: bool = True

    def note(self) -> dict:
        return {
            "bracket_base": self.bracket_base,
            "x_sign": self.x_sign,
            "phase_sign": self.phase_sign,
            "prefactor_sign": self.prefactor_sign,
            "dressing_rate": "c/2" if self.full_rate else "c/4",
        }


# The graded series passes all axiom checks when read literally: bracket
# factorial in base x, principal root x = +i q^(-c/2), positive quarter
# phase, negative prefactor exponent, dressing at the coproduct-tail rate.
BQ_DEFAULT = BranchChoice()

# The ungraded series as printed (positive prefactor exponent, half-rate
# dressings) intertwines nothing; the branch below is the unique one on the
# lattice that passes every axiom check, and deviates from the printed
# factors in the prefactor sign and the dressing rate.
BBARQ_DEFAULT = BranchChoice(prefactor_sign=-1, full_rate=True)
BBARQ_PRINTED = BranchChoice(prefactor_sign=1, full_rate=False)


@dataclass(frozen=True)
class RMatrix:
    """R as its shift-0 two-site sector operator ``op``, the only form it takes."""

    family: str                      # "Bq", "Bbarq" or "B_r0"
    op: SectorOperator = field(repr=False)
    branch_note: dict
    rep: FockRep | None = field(default=None, repr=False)
    branch: BranchChoice | None = None

    @property
    def dim(self) -> int:
        return self.op.sectors.dim


def _head_exponent(rep: FockRep) -> float:
    return rep.spec.alpha if rep.spec.family == "Bq" else rep.spec.sigma


def _bracket_base(rep: FockRep, branch: BranchChoice) -> complex:
    q = rep.spec.q
    c = _head_exponent(rep)
    if rep.spec.family == "Bq":
        # square root of -q^(-c)
        return branch.x_sign * 1j * q ** (-c / 2.0)
    return branch.x_sign * q ** (c / 2.0)


def _ladder_coeff(rep: FockRep, l: int, branch: BranchChoice) -> complex:
    q = rep.spec.q
    c = _head_exponent(rep)
    x = _bracket_base(rep, branch)
    fact = bracket_factorial(l, x)
    if branch.bracket_base == "q":
        # rescale each bracket's denominator from (x - 1/x) to (q - 1/q)
        fact = fact * ((x - 1.0 / x) / (q - 1.0 / q)) ** l
    coeff = (q - 1.0 / q) ** l * q ** (branch.prefactor_sign * c / 4.0 * l * (l + 1)) / fact
    if rep.spec.family == "Bq":
        coeff *= phase_pow(branch.phase_sign * l * (l - 1) / 4.0)
    else:
        coeff *= (-1.0) ** l
    return coeff


def _require_integer_grade_shift(rep: FockRep):
    if not rep.spec.integer_grade_shift:
        raise SpecError(f"{NONINTEGER_GRADE_SHIFT}; got {rep.spec.grade_shift}")


@dataclass(frozen=True)
class _Slot:
    """One tensor slot of R: the sector operators of N, g, ad and a under the
    rep itself, Delta (on two sites) or S, and the diagonals of Nt = N + shift
    and g (None in the ungraded family)."""

    nt: np.ndarray
    g: np.ndarray | None
    images: dict


def _diagonal(op: SectorOperator, what: str) -> np.ndarray:
    """The diagonal of a sector operator that has no off-diagonal entry."""
    diag = op.blocks[op.sectors.level, op.sectors.position, op.sectors.position]
    if op.shift or np.count_nonzero(op.blocks) != np.count_nonzero(diag):
        raise RepresentationError(f"the R-matrix needs a diagonal image of {what}")
    return diag


def _slot(rep: FockRep, image: Callable) -> _Slot:
    """Slot images under ``image`` (rep.generator, tables.antipode, or
    tables.delta_image on two sites), the sector operators those return.

    Nt maps to image(N) + shift under all three, since Delta(1) = 1 x 1 and
    S(1) = 1.
    """
    graded = rep.spec.family in ("B", "Bq")
    images = {name: image(name)
              for name in (("N", "g", "ad", "a") if graded else ("N", "ad", "a"))}
    return _Slot(_diagonal(images["N"], "N").real + rep.spec.grade_shift,
                 _diagonal(images["g"], "g") if graded else None, images)


def _powers(x: SectorOperator):
    """x^0, x^1, x^2, ...: each the previous one times x, one block matmul."""
    power = SectorOperator.identity(x.sectors)
    while True:
        yield power
        power = power @ x


def _head(left: _Slot, right: _Slot, q: float | None = None,
          c: float = 0.0) -> np.ndarray:
    """Diagonal of R's head on the slots' images.

    q^{c Nt x Nt} (left out when q is None), times on graded slots the parity
    head R0 = (1/2)(1 x 1 + 1 x g + g x 1 - g x g).
    """
    head = 1.0
    if q is not None:
        head = q ** np.multiply.outer(c * left.nt, right.nt).reshape(-1)
    if left.g is not None:
        gl, gr = left.g[:, None], right.g[None, :]
        parity = np.ones((len(left.g), len(right.g))) + gr + gl - gl * gr
        head = 0.5 * parity.reshape(-1) * head
    return head


def _ladder_series(rep: FockRep, branch: BranchChoice, left: _Slot, right: _Slot):
    """The ladder series term by term on the slots' images.

    Yields (c_l, d_l, (ad)^l, q^{-rate l Nt} a^l) for l < dim.  The left
    dressing d_l = q^{rate l Nt}, times exp(i pi l Nt) on a graded slot,
    stays a diagonal so that the caller puts it where the slot's map does.
    """
    q = rep.spec.q
    c = _head_exponent(rep)
    rate = c / 2.0 if branch.full_rate else c / 4.0
    for l, raise_l, lower_l in zip(range(rep.dim), _powers(left.images["ad"]),
                                   _powers(right.images["a"])):
        dress = q ** (rate * l * left.nt)
        if left.g is not None:
            dress = dress * np.exp(1j * np.pi * l * left.nt)
        yield (_ladder_coeff(rep, l, branch), dress, raise_l,
               lower_l.scale_rows(q ** (-rate * l * right.nt)))


def _series(rep: FockRep, branch: BranchChoice | None, left: _Slot, right: _Slot):
    """R's head diagonal and its series terms (c_l, d_l, raise_l, right_l) on
    the slots' images.  Without a branch, R is the parity R0: its head
    alone, times the one term 1 x 1."""
    if branch is None:   # 1 x 1 is x^0 on each slot
        return _head(left, right), zip([1.0], [np.ones(left.nt.size)],
                                       _powers(left.images["N"]), _powers(right.images["N"]))
    return (_head(left, right, rep.spec.q, _head_exponent(rep)),
            _ladder_series(rep, branch, left, right))


def _term_stacks(terms, levels: int) -> tuple:
    """The coefficients of the series ``terms``, (c_l, raising_l, lowering_l),
    as an array, and its raising and lowering factors on their column
    sectors below ``levels`` as sector stacks.  Term l must raise the left
    slot's level by l and lower the right slot's by l: the one term of a
    level block's entry is then the rise of its left slot."""
    coeffs, raising, lowering = [], [], []
    for coeff, up, down in terms:
        coeffs.append(coeff)
        raising.append(up.window(levels))
        lowering.append(down.window(levels))
    raising, lowering = SectorStack(raising), SectorStack(lowering)
    rises = np.arange(len(coeffs))
    if not (np.array_equal(raising.shifts, rises) and np.array_equal(lowering.shifts, -rises)):
        raise ValueError("term l of R's series must move each slot's level by l")
    return np.array(coeffs), raising, lowering


def _series_stacks(rep: FockRep, branch: BranchChoice | None, left: _Slot,
                   right: _Slot) -> tuple:
    """R's head diagonal and its series on the slots' images as
    (head, coefficients, raising stack, lowering stack), each dressing
    scaled into its raising factor: what :func:`_series_block` reads."""
    head, series = _series(rep, branch, left, right)
    return (head, *_term_stacks(((coeff, raise_l.scale_rows(dress), right_l)
                                 for coeff, dress, raise_l, right_l in series), rep.dim))


def _series_block(series: tuple, sectors, states: np.ndarray) -> np.ndarray:
    """The block of R's series (:func:`_series_stacks`) on the basis indices
    ``states`` of ``sectors`` (a level's, or a stack of them), the left slot
    on as many first sites as its images span.  Each slot holds images
    under an algebra map (the rep, or Delta), so every term keeps its order,
    head . (d_l (ad)^l x right), and each entry, in the one term of its left
    slot's rise, is that term's c_l (left x right) times the head."""
    head, coeffs, raising, lowering = series
    left, right = np.divmod(states, sectors.dim ** (sectors.sites - raising.sectors.sites))
    rise = raising.sectors.level[left]
    term = rise[..., :, None] - rise[..., None, :]
    return (coeffs.take(term, mode="clip")
            * (raising.entries(term, left, left) * lowering.entries(term, right, right))
            * head[states][..., :, None])


def _series_r(rep: FockRep, branch: BranchChoice | None) -> SectorOperator:
    """R (R0 without a branch) on every two-site column sector: the level
    blocks of :func:`_series_block` on every level's states at once, each
    slot holding the rep's images, with the padding zeroed."""
    one, sectors = _slot(rep, rep.generator), level_sectors(rep.dim, 2)
    blocks = _series_block(_series_stacks(rep, branch, one, one), sectors, sectors.index)
    np.putmask(blocks, sectors.plan(0).pad, 0)
    return SectorOperator(sectors, 0, blocks)


def build_r0(rep: FockRep) -> RMatrix:
    """The parity R-matrix (1/2)(I x I + I x g + g x I - g x g).

    Diagonal with eigenvalue -1 exactly on the odd x odd parity sector;
    squares to the identity.  Requires an integer shift so the grade element
    squares to I.  Built as the series R is, as its head times the one term 1 x 1.
    """
    if rep.spec.family not in ("B", "Bq"):
        raise SpecError("the parity R-matrix lives on the graded families")
    _require_integer_grade_shift(rep)
    return RMatrix(family="B_r0", op=_series_r(rep, None),
                   branch_note={"head": "parity projector"}, rep=rep, branch=None)


def build_r(rep: FockRep, branch: BranchChoice | None = None) -> RMatrix:
    """Assemble the ladder-series R-matrix for a deformed rep.

    The graded family gets the parity head and requires an integer shift;
    the ungraded family has no head and no grade constraint.
    """
    fam = rep.spec.family
    if fam not in ("Bq", "Bbarq"):
        raise SpecError(f"no ladder R-matrix for family {fam}")
    if branch is None:
        branch = BQ_DEFAULT if fam == "Bq" else BBARQ_DEFAULT
    if fam == "Bq":
        _require_integer_grade_shift(rep)
    note = branch.note()
    note["matches_printed_factors"] = (fam == "Bq")
    if fam == "Bbarq":
        note["printed_factor_deviation"] = (
            "prefactor exponent sign and dressing rate corrected; the "
            "printed factors fail every branch (see diagnose_branches)")
    return RMatrix(family=fam, op=_series_r(rep, branch), branch_note=note, rep=rep,
                   branch=branch)


def check_quasitriangularity(r: RMatrix, tables: HopfTables,
                             tol: float = DEFAULT_R_TOL) -> list:
    """Per generator: windowed residual of Delta^T(g) R - R Delta(g), on the
    tables' Delta images (:meth:`HopfTables.delta_image`), which a branch
    scan therefore gathers once."""
    dim = r.dim
    if tables.rep.dim != dim:
        raise SpecError("R-matrix and Hopf tables disagree on the dimension")
    out = []
    for name in tables.generator_names():
        r_delta = r.op @ tables.delta_image(name)
        out.append(windowed_row(r.rep.spec, dim, f"rmatrix.quasitriangular.{name}",
                                "Delta^T(g) R = R Delta(g) per generator",
                                tables.delta_image(name, transpose=True) @ r.op - r_delta,
                                tol, 1, r_delta, family=r.family,
                                branch_note=dict(r.branch_note)))
    return out


def _level_row(r: RMatrix, identity: str, reference: str, levels,
               tol: float) -> CheckReport:
    """The row of an identity whose residual and scale are block diagonal over
    the window's column levels (window degree 0): ``levels`` yields each
    level's (residual, scale) blocks, which are normed as they come
    (tensor.StreamedNorm) and dropped; the residual's norm is divided by
    max(1, the scale's) once, at the end."""
    residual, scale = StreamedNorm(), StreamedNorm()
    for residual_block, scale_block in levels:
        residual.add(residual_block)
        scale.add(scale_block)
    return windowed_row(r.rep.spec, r.dim, identity, reference,
                        residual.value / max(1.0, scale.value), tol,
                        family=r.family, branch_note=dict(r.branch_note))


def _levels_top_first(dim: int):
    """The column levels of a degree-0 window, top level first: the largest
    blocks come first, so the streamed norms factor few of the others."""
    return range(dim - 1, -1, -1)


def _site_pairs(r: RMatrix, sites: tuple, pairs=("12", "13", "23")) -> tuple:
    """The blocks at one column level of three sites of R on each slot pair
    of ``pairs`` (R12, R13 and R23 by default), read from R's level blocks
    by :meth:`SectorStack.entries`: ``sites`` holds the level's states'
    level on each site (LevelSectors.site_levels).  R acts on its pair; an
    entry whose third site changes lies outside R's pair level, where the
    read is 0."""
    stack = SectorStack([r.op])
    index = [sites[int(pair[0]) - 1] * r.dim + sites[int(pair[1]) - 1] for pair in pairs]
    return tuple(stack.entries(0, i, i) for i in index)


def check_ybe(r: RMatrix, tol: float = DEFAULT_R_TOL) -> CheckReport:
    """R12 R13 R23 = R23 R13 R12 on the three-site total-level window.

    R keeps the total level, so both sides are block diagonal over the
    window's column levels (total level up to dim - 1).  Level by level,
    R12, R13 and R23 are gathered into that level's block; both triple
    products and the backward-error scale |R12||R13||R23| are associated
    right to left, and the residual and scale blocks are normed and dropped
    before the next level is gathered.
    """
    dim, sectors = r.dim, level_sectors(r.dim, 3)

    def levels():
        for level in _levels_top_first(dim):
            r12, r13, r23 = _site_pairs(r, sectors.site_levels(level))
            scale = abs(r12) @ (abs(r13) @ abs(r23))
            yield r12 @ (r13 @ r23) - r23 @ (r13 @ r12), scale

    return _level_row(r, "rmatrix.ybe", "R12 R13 R23 = R23 R13 R12", levels(), tol)


def _fusion_row(r: RMatrix, slots: tuple, pairs: tuple, identity: str,
                reference: str, tol: float) -> CheckReport:
    """The fusion row of R on the Delta ``slots`` against the product of R
    on the slot ``pairs``, level by level of the three-site window.

    The series block is built as R's own (:func:`_series_block`), and the
    pairs' blocks are multiplied into the target's.
    """
    dim, sectors = r.dim, level_sectors(r.dim, 3)
    series = _series_stacks(r.rep, r.branch, *slots)

    def levels():
        for level in _levels_top_first(dim):
            first, second = _site_pairs(r, sectors.site_levels(level), pairs)
            target = first @ second
            yield _series_block(series, sectors, sectors.states(level)) - target, target

    return _level_row(r, identity, reference, levels(), tol)


def _inverse_row(r: RMatrix, left: _Slot, right: _Slot, tol: float) -> CheckReport:
    """((S x id) R) R = I x I, level by level of the two-site window, with
    the S images in the ``left`` slot.

    S reverses products, so each left word h d_l (ad)^l becomes
    S(ad)^l S(d_l) S(h): the diagonal images m_l of the dressing and the
    head stand between S(ad)^l and the right factor.  Term l raises site 0
    by l, so entry ((i0, i1), (j0, j1)) of a level block lies in term
    l = i0 - j0 only, where it is S(ad)^l[i0, j0] (c_l right_l[i1, j1])
    m_l[j0, i1].  The backward-error scale |(S x id) R| |R| is the rounding
    floor of a product that cancels.
    """
    dim, sectors = r.dim, level_sectors(r.dim, 2)
    head, series = _series(r.rep, r.branch, left, right)
    series = list(series)
    coeffs, raising, lowering = _term_stacks(
        ((coeff, raise_l, right_l) for coeff, _, raise_l, right_l in series), dim)
    middle = np.stack([(dress[:, None] * head.reshape(dim, dim)).reshape(-1)
                       for _, dress, _, _ in series])

    def levels():
        for level in _levels_top_first(dim):
            i0, i1 = sectors.site_levels(level)
            term = i0[:, None] - i0
            known = np.minimum(np.maximum(term, 0), len(middle) - 1)
            sr = (raising.entries(term, i0, i0)
                  * ((coeffs.take(term, mode="clip") * lowering.entries(term, i1, i1))
                     * middle[known, i0 * dim + i1[:, None]]))
            size = sectors.size[level]
            r_block = r.op.blocks[level, :size, :size]
            residual = sr @ r_block
            residual.flat[::size + 1] -= 1   # minus the level's identity block
            yield residual, abs(sr) @ abs(r_block)

    return _level_row(r, "rmatrix.inverse", "((S x id) R) R = I x I", levels(), tol)


def check_r_axioms(r: RMatrix, tables: HopfTables,
                   tol: float = DEFAULT_R_TOL) -> list:
    """Fusion identities and the antipode inverse of R (the series R or R0).

    (Delta x id) R = R13 R23, (id x Delta) R = R13 R12,
    ((S x id) R) . R = I x I.

    Each left side is R assembled with the tables' Delta or S images in one
    slot.  R keeps the total level, so every operator of these identities is
    block diagonal over the window's column levels (total level up to
    dim - 1), on three sites for fusion and on two for the inverse: each
    row is built and normed one level at a time.
    """
    rep = r.rep
    one = _slot(rep, rep.generator)
    delta = _slot(rep, tables.delta_image)
    return [_fusion_row(r, (delta, one), ("13", "23"), "rmatrix.fusion-left",
                        "(Delta x id) R = R13 R23", tol),
            _fusion_row(r, (one, delta), ("13", "12"), "rmatrix.fusion-right",
                        "(id x Delta) R = R13 R12", tol),
            _inverse_row(r, _slot(rep, tables.antipode), one, tol)]


def check_trivial_r(tables: HopfTables, tol: float = 1e-12) -> CheckReport:
    """R = I x I intertwines coproducts that are symmetric under the slot swap:
    the largest norm of Delta^T(g) - Delta(g)."""
    dim = tables.rep.dim
    worst = max(spectral_norm(tables.delta_image(name, transpose=True)
                              - tables.delta_image(name))
                for name in tables.generator_names())
    return check_report(tables.spec, dim, "rmatrix.trivial",
                        "R = I x I intertwines the primitive coproducts (undeformed Bbar)",
                        worst, tol)


def branch_lattice(family: str) -> list:
    """Every branch resolution the diagnosis scan walks."""
    out = []
    for base, xs, ps, pre, rate in itertools.product(
            ("x", "q"), (1, -1), (1, -1), (-1, 1), (True, False)):
        if family == "Bbarq" and ps == -1:
            continue  # no quarter phase in the ungraded series
        out.append(BranchChoice(bracket_base=base, x_sign=xs, phase_sign=ps,
                                prefactor_sign=pre, full_rate=rate))
    return out


def diagnose_branches(rep: FockRep, tables: HopfTables,
                      tol: float = DEFAULT_R_TOL):
    """Worst quasitriangularity residual under every branch choice of the
    family's :func:`branch_lattice`.

    Returns (rows, table) where rows is a list of (BranchChoice, residual)
    sorted best first and table is a printable diagnosis.
    """
    rows = []
    for branch in branch_lattice(rep.spec.family):
        try:
            r = build_r(rep, branch=branch)
            reports = check_quasitriangularity(r, tables, tol)
            worst = max(rep_.residual for rep_ in reports)
        except (SpecError, RepresentationError) as exc:
            worst = float("inf")
        rows.append((branch, worst))
    rows.sort(key=lambda item: item[1])
    lines = ["branch diagnosis (worst quasitriangularity residual per branch):",
             f"{'bracket':>8} {'x_sign':>7} {'phase':>6} {'prefac':>7} {'rate':>5}   residual"]
    for branch, worst in rows:
        note = branch.note()
        lines.append(f"{note['bracket_base']:>8} {note['x_sign']:>+7d} "
                     f"{note['phase_sign']:>+6d} {note['prefactor_sign']:>+7d} "
                     f"{note['dressing_rate']:>5}   {worst:.3e}")
    return rows, "\n".join(lines)


def run_r_checks(rep: FockRep, tables: HopfTables, ybe_rep: FockRep,
                 tol: float = DEFAULT_R_TOL) -> list:
    """The full R-matrix suite for one deformed rep.

    Quasitriangularity and the fusion/inverse axioms at the rep's own
    dimension, plus Yang-Baxter on ``ybe_rep`` (the CLI's rmatrix and ybe
    suites both pass the point's rep of at most YBE_DIM levels).  As soon as
    any row fails, every failed row carries the branch diagnosis table in
    branch_note.
    """
    r = build_r(rep)
    out = check_quasitriangularity(r, tables, tol)
    out.extend(check_r_axioms(r, tables, tol))
    out.append(check_ybe(build_r(ybe_rep), tol))
    if any(not rp.passed for rp in out):
        _, table = diagnose_branches(rep, tables, tol)
        for rp in out:
            if not rp.passed:
                rp.branch_note["diagnosis"] = table
    return out
