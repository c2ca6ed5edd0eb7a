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
tables therefore shows in these rows.  The parity R0, its head alone, runs
through the same fusion and inverse code.

Every operator here is a level-sector operator (tensor.SectorOperator): the
slot images, each ladder power (the previous one times the image), and R12,
R13, R23 and the series terms, gathered from their slot factors.  R conserves
the total level, so a product that starts on the window columns stays on
them: the fusion, inverse and Yang-Baxter operators hold only those columns.

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

from .fock import FockRep, RepresentationError, SpecError, _sector_operator, build_rep
from .hopf import HopfTables
from .report import CheckReport, check_report, windowed_row
from .scalars import bracket_factorial, phase_pow
from .tensor import SectorOperator, level_sectors, spectral_norm

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
    family: str                      # "Bq", "Bbarq" or "B_r0"
    matrix: np.ndarray = field(repr=False)
    branch_note: dict
    rep: FockRep | None = field(default=None, repr=False)
    branch: BranchChoice | None = None

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


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
    shift = rep.spec.grade_shift
    if abs(shift - round(shift)) > 1e-12:
        raise SpecError(
            "the parity head needs (-1)^(2 Nt) = I, which requires an integer "
            f"number-operator shift; got {shift}")


@dataclass(frozen=True)
class _Slot:
    """One tensor slot of R: the sector operators of N, g, ad and a under the
    rep itself, Delta (on two sites) or S, and the diagonals of Nt = N + shift
    and g (None in the ungraded family)."""

    nt: np.ndarray
    g: np.ndarray | None
    images: dict


def _diagonal(mat: np.ndarray, what: str) -> np.ndarray:
    """The diagonal of an operator that has no off-diagonal entry."""
    diag = mat.diagonal()
    if np.any(mat != np.diag(diag)):
        raise RepresentationError(f"the R-matrix needs a diagonal image of {what}")
    return diag


def _slot(rep: FockRep, image: Callable, sites: int = 1) -> _Slot:
    """Slot images under ``image`` (rep.generator, tables.antipode or Delta's
    Sweedler sums, on ``sites`` sites) as sector operators of one shift each;
    an image that mixes level shifts is refused.

    Nt maps to image(N) + shift under all three, since Delta(1) = 1 x 1 and
    S(1) = 1.
    """
    graded = rep.spec.family in ("B", "Bq")
    images = {name: _sector_operator(image(name), level_sectors(rep.dim, sites))
              for name in (("N", "g", "ad", "a") if graded else ("N", "ad", "a"))}
    return _Slot(_diagonal(images["N"].to_dense(), "N").real + rep.spec.grade_shift,
                 _diagonal(images["g"].to_dense(), "g") if graded else None, images)


def _powers(x: SectorOperator):
    """x^0, x^1, x^2, ...: each the previous one times x, one block matmul."""
    power = SectorOperator.from_dense(np.eye(x.shape[0]), x.sectors)
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


def _scaled(coeff, op: SectorOperator) -> SectorOperator:
    """``coeff * op`` for a freshly gathered ``op``: written into its blocks
    in the same operand order when their dtype holds the product."""
    if np.result_type(coeff, op.blocks) != op.blocks.dtype:
        return coeff * op
    np.multiply(coeff, op.blocks, out=op.blocks)
    return op


def _series_r(rep: FockRep, branch: BranchChoice | None, left: _Slot, right: _Slot,
              sectors, top: int | None = None) -> SectorOperator:
    """R on the slots' images, gathered on the column sectors of ``sectors``
    up to ``top`` (every level by default).

    Each slot holds images under an algebra map (the rep itself, or Delta),
    so every term keeps its order: head . (d_l (ad)^l x right factor).  The
    terms are summed in order, each into the running sum's blocks.
    """
    head, series = _series(rep, branch, left, right)
    split = 1 + (left.nt.size > rep.dim)   # a Delta image spans two sites
    left_sites, right_sites = tuple(range(split)), tuple(range(split, sectors.sites))
    terms = (_scaled(coeff, SectorOperator.gather([(raise_l.scale_rows(dress), left_sites),
                                                   (right_l, right_sites)], sectors, top))
             for coeff, dress, raise_l, right_l in series)
    total = next(terms)
    for term in terms:
        total += term
        del term   # hold no term while the next one is gathered
    return total.scale_rows(head)


def _antipode_r(rep: FockRep, branch: BranchChoice | None, left: _Slot,
                right: _Slot, sectors, top: int) -> SectorOperator:
    """(S x id) R, with the S images in the left slot, on the column sectors
    of ``sectors`` up to ``top``.

    S reverses products, so each left word h d_l (ad)^l becomes
    S(ad)^l S(d_l) S(h): the diagonal images of the dressing and the head
    stand between S(ad)^l and the right factor.
    """
    head, series = _series(rep, branch, left, right)
    dim = rep.dim
    eye = np.eye(dim)
    total = None
    for coeff, dress, raise_l, right_l in series:
        middle = (dress[:, None] * head.reshape(dim, dim)).reshape(-1)
        right_op = _scaled(coeff, SectorOperator.gather([(eye, (0,)), (right_l, (1,))],
                                                        sectors, top))
        term = (SectorOperator.gather([(raise_l, (0,)), (eye, (1,))], sectors, top=top)
                @ right_op.scale_rows(middle))
        total = term if total is None else total + term
    return total


def build_r0(rep: FockRep) -> RMatrix:
    """The parity R-matrix (1/2)(I x I + I x g + g x I - g x g).

    Diagonal with eigenvalue -1 exactly on the odd x odd parity sector;
    squares to the identity.  Requires an integer shift so the grade element
    squares to I.
    """
    if rep.spec.family not in ("B", "Bq"):
        raise SpecError("the parity R-matrix lives on the graded families")
    _require_integer_grade_shift(rep)
    one = _slot(rep, rep.generator)
    return RMatrix(family="B_r0", matrix=np.diag(_head(one, one)),
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
    one = _slot(rep, rep.generator)
    note = branch.note()
    note["matches_printed_factors"] = (fam == "Bq")
    if fam == "Bbarq":
        note["printed_factor_deviation"] = (
            "prefactor exponent sign and dressing rate corrected; the "
            "printed factors fail every branch (see diagnose_branches)")
    matrix = _series_r(rep, branch, one, one, level_sectors(rep.dim, 2)).to_dense()
    return RMatrix(family=fam, matrix=matrix, branch_note=note, rep=rep, branch=branch)


def check_quasitriangularity(r: RMatrix, tables: HopfTables,
                             tol: float = DEFAULT_R_TOL) -> list:
    """Per generator: windowed residual of Delta^T(g) R - R Delta(g), on the
    tables' Delta images (:meth:`HopfTables.delta_image`), which a branch
    scan therefore gathers once."""
    dim = r.dim
    if tables.rep.dim != dim:
        raise SpecError("R-matrix and Hopf tables disagree on the dimension")
    rop = _sector_operator(r.matrix, level_sectors(dim, 2))
    out = []
    for name in tables.generator_names():
        r_delta = rop @ tables.delta_image(name)
        out.append(windowed_row(r.rep.spec, dim, f"rmatrix.quasitriangular.{name}",
                                "Delta^T(g) R = R Delta(g)",
                                tables.delta_image(name, transpose=True) @ rop - r_delta,
                                tol, 1, r_delta, family=r.family,
                                branch_note=dict(r.branch_note)))
    return out


def _site_pairs(r: RMatrix, sectors, top: int, pairs=("12", "13", "23")) -> tuple:
    """R on each slot pair of ``pairs`` (R12, R13 and R23 by default) of the
    three sites of ``sectors``, gathered straight from R's entries on the
    column sectors up to ``top``."""
    eye = np.eye(r.dim)
    factors = {"12": [(r.matrix, (0, 1)), (eye, (2,))],
               "13": [(r.matrix, (0, 2)), (eye, (1,))],
               "23": [(eye, (0,)), (r.matrix, (1, 2))]}
    return tuple(SectorOperator.gather(factors[pair], sectors, top=top) for pair in pairs)


def check_ybe(r: RMatrix, tol: float = DEFAULT_R_TOL) -> CheckReport:
    """R12 R13 R23 = R23 R13 R12 on the three-site total-level window.

    R12, R13 and R23 are gathered on the window's column sectors (total
    level up to dim - 1) only; both triple products and the backward-error
    scale |R12||R13||R23| are associated right to left.  The scale is
    normed first, and each operator is dropped after its last product, so
    at most five window operators are held at once.
    """
    dim = r.dim
    r12, r13, r23 = _site_pairs(r, level_sectors(dim, 3), dim - 1)
    scale = spectral_norm(abs(r12) @ (abs(r13) @ abs(r23)), top=dim - 1)
    lhs = r12 @ (r13 @ r23)
    r13_r12 = r13 @ r12
    del r12, r13
    residual = lhs - r23 @ r13_r12
    del lhs, r23, r13_r12
    return windowed_row(r.rep.spec, dim, "rmatrix.ybe", "R12 R13 R23 = R23 R13 R12",
                        residual, tol, scale=scale,
                        family=r.family, branch_note=dict(r.branch_note))


def _fusion_row(r: RMatrix, slots: tuple, pairs: tuple, identity: str,
                reference: str, sectors, tol: float) -> CheckReport:
    """The fusion row of R on the Delta ``slots`` against the product of R
    on the slot ``pairs``: only the pairs it uses are gathered, when it is
    built, and its target and series are dropped once it is normed."""
    top = r.dim - 1
    first, second = _site_pairs(r, sectors, top, pairs)
    target = first @ second
    del first, second
    return windowed_row(r.rep.spec, r.dim, identity, reference,
                        _series_r(r.rep, r.branch, *slots, sectors, top) - target,
                        tol, scale=target, family=r.family,
                        branch_note=dict(r.branch_note))


def check_r_axioms(r: RMatrix, tables: HopfTables,
                   tol: float = DEFAULT_R_TOL) -> list:
    """Fusion identities and the antipode inverse of R (the series R or R0).

    (Delta x id) R = R13 R23, (id x Delta) R = R13 R12,
    ((S x id) R) . R = I x I.

    Each left side is R assembled with the tables' Delta or S images in one
    slot.  Every operator holds the window's column sectors (total level up
    to dim - 1) only: on three sites for fusion, on two for the inverse.
    """
    rep, dim = r.rep, r.dim
    top = dim - 1
    sectors3, sectors2 = level_sectors(dim, 3), level_sectors(dim, 2)
    one = _slot(rep, rep.generator)
    delta = _slot(rep, tables.delta_image, 2)
    out = [_fusion_row(r, (delta, one), ("13", "23"), "rmatrix.fusion-left",
                       "(Delta x id) R = R13 R23", sectors3, tol),
           _fusion_row(r, (one, delta), ("13", "12"), "rmatrix.fusion-right",
                       "(id x Delta) R = R13 R12", sectors3, tol)]
    sr = _antipode_r(rep, r.branch, _slot(rep, tables.antipode), one, sectors2, top)
    rop = SectorOperator.gather([(r.matrix, (0, 1))], sectors2, top=top)
    identity = SectorOperator.gather([(np.eye(dim * dim), (0, 1))], sectors2, top=top)
    # backward-error scale: the rounding floor of a product that cancels
    out.append(windowed_row(rep.spec, dim, "rmatrix.inverse", "((S x id) R) R = I x I",
                            sr @ rop - identity, tol, scale=abs(sr) @ abs(rop),
                            family=r.family, branch_note=dict(r.branch_note)))
    return out


def check_trivial_r(tables: HopfTables, tol: float = 1e-12) -> CheckReport:
    """R = I x I intertwines coproducts that are symmetric under the slot swap:
    the largest norm of Delta^T(g) - Delta(g)."""
    dim = tables.rep.dim
    worst = max(spectral_norm(tables.delta_image(name, transpose=True)
                              - tables.delta_image(name))
                for name in tables.generator_names())
    return check_report(tables.spec, dim, "rmatrix.trivial",
                        "Delta^T = Delta, so R = I x I is quasitriangular",
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


def run_r_checks(rep: FockRep, tables: HopfTables,
                 tol: float = DEFAULT_R_TOL) -> list:
    """The full R-matrix suite for one deformed rep.

    Quasitriangularity and the fusion/inverse axioms at the rep's own
    dimension, plus Yang-Baxter at min(dim, YBE_DIM), the same dimension as
    the "ybe" suite.  As soon as any row fails, every failed row carries
    the branch diagnosis table in branch_note.
    """
    r = build_r(rep)
    out = check_quasitriangularity(r, tables, tol)
    out.extend(check_r_axioms(r, tables, tol))
    ybe_dim = min(rep.dim, YBE_DIM)
    ybe_rep = rep if rep.dim == ybe_dim else build_rep(rep.spec, ybe_dim)
    out.append(check_ybe(build_r(ybe_rep), tol))
    if any(not rp.passed for rp in out):
        _, table = diagnose_branches(rep, tables, tol)
        for rp in out:
            if not rp.passed:
                rp.branch_note["diagnosis"] = table
    return out
