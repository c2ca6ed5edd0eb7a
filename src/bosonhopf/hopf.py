"""Coproduct, counit and antipode tables, and the Hopf-axiom checks.

Coproduct images are stored as explicit Sweedler sums: lists of terms, each
a scalar coefficient times a tuple of slot words, where a word is a product
of atoms (generator images, grade elements, diagonal group-like factors).
Each atom's algebra, S and S^-1 images are one-site level-sector operators
(:class:`tensor.SectorOperator`), formed once from the rep's images, and a
word's image is their product.
The term form is the source of truth: the counit and antipode contractions
m(S x id)Delta(g) cannot be computed from a bare tensor matrix.  Multi-site
images, R's Delta slots among them, are gathered from the terms as sector
operators: Delta and Delta^T (the terms with their words exchanged,
HopfTables.delta_terms).  Coassociativity is decided on the terms first:
both expansions are reduced to Sweedler normal forms (group-like inverse
pairs cancelled, like terms merged, :func:`normal_form`), and only when the
forms differ are both sides gathered on the validity window's column
sectors and normed.  The antipode's relation rows, on one site, run for
several grid points at once on the direct sums of their antipode images
(:func:`check_delta_homomorphism_batch`); the coproduct's, on two sites,
run point by point.  The dense Term.matrix, terms_matrix and delta_matrix
are oracles for the tests and the benchmark's trace, which no check calls.

One rule builds every family's atoms (Kassel, *Quantum Groups*, ch. III),
over two flags: graded (B, Bq, H) and deformed (Bq, Bbarq).  A factor
marked ? below is there only when its flag is on, and each q-power is 1
when undeformed; c is alpha (B, Bq) or sigma (Bbar, Bbarq).

- The number atom N (H's M) is primitive plus a central shift, c2/c1
  (beta/alpha or tau/sigma; H's 1/2 - rho): Delta(N) = N x 1 + 1 x N +
  shift, eps(N) = -shift, S(N) = S^-1(N) = -N - 2 shift.
- The grade pair g, ginv (graded) and the pair qhalf = q^{(c N + c2)/2},
  qhalfinv (deformed) are group-like (:func:`grouplike`).
- The ladder pair lo, hi (a, ad; H's b, bd) is skew-primitive:
  Delta(lo) = lo x qhalf? + g? qhalfinv? x lo, and Delta(hi) the same with
  ginv for g.  S(lo) = -q^{-c/2} ginv? lo, S^-1(lo) = sign q^{c/2} ginv? lo,
  S(hi) = sign q^{c/2} hi g? and S^-1(hi) = -q^{-c/2} hi g?, where sign is
  +1 when graded and -1 when not.
- H adds K, whose coproduct carries b and bd; S(K) = S^-1(K) = K.

Each S and S^-1 of a non-group-like atom is stated as one-slot terms over
the atoms and formed by :func:`word_sum`; no image is built by hand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .fock import FockRep, direct_sum_images, relation_lines
from .report import PointCalls, rows_at, windowed_row
from .spec import SpecError
from .tensor import SectorOperator, kron_all, level_sectors

DEFAULT_TOL = 1e-10


@dataclass
class Atom:
    """A primitive symbol with known single-site images under all Hopf maps.

    ``delta`` is a list of two-slot Terms; group-like atoms use the canonical
    u -> u x u decomposition built by :func:`grouplike`, and name their
    inverse atom in ``inverse``.  ``s`` and ``s_inv`` are images: a
    group-like atom's is its inverse's image, any other's the
    :func:`word_sum` of the terms the rule of the module docstring states.
    """

    name: str
    matrix: SectorOperator = field(repr=False)
    eps: complex = 1.0
    s: SectorOperator | None = field(repr=False, default=None)
    s_inv: SectorOperator | None = field(repr=False, default=None)
    delta: list | None = field(repr=False, default=None)
    inverse: str | None = None


def grouplike(name: str, matrix: SectorOperator, inverse: SectorOperator,
              inverse_name: str) -> Atom:
    """Group-like atom: Delta(u) = u x u, eps(u) = 1, S(u) = u^-1, where
    ``inverse`` is the image of u^-1 and ``inverse_name`` its atom."""
    atom = Atom(name=name, matrix=matrix, eps=1.0, s=inverse, s_inv=inverse,
                inverse=inverse_name)
    atom.delta = [Term(1.0, ((atom,), (atom,)))]
    return atom


@dataclass
class Term:
    """One Sweedler summand: coeff * word_1 x word_2 x ... x word_k."""

    coeff: complex
    words: tuple  # tuple of words; word = tuple of Atom

    @property
    def slots(self) -> int:
        return len(self.words)

    def matrix(self, dim: int) -> np.ndarray:
        """The dense Kronecker product of the slot words, times the coefficient."""
        return kron_all(*(word_image(w, dim).to_dense() for w in self.words)) * self.coeff


def word_image(word: tuple, dim: int, image: str = "matrix"):
    """Image of a product of atoms under one slot map, named by its Atom
    field, as a one-site sector operator.

    ``"matrix"`` is the algebra image and ``"eps"`` the scalar counit; the
    anti-homomorphisms ``"s"`` and ``"s_inv"`` reverse the factors,
    S(xy) = S(y) S(x).  The empty word is the identity, one shared per level
    count, and a one-atom word is the atom's own image, not a copy: callers
    must not write into either.
    """
    if image == "eps":
        out = 1.0 + 0j
        for atom in word:
            out *= atom.eps
        return out
    out = None
    for atom in (word if image == "matrix" else reversed(word)):
        img = getattr(atom, image)
        if img is None:
            raise ValueError(f"atom {atom.name!r} has no {image} image")
        out = img if out is None else out @ img
    return _unit(dim) if out is None else out


@functools.lru_cache(maxsize=32)
def _unit(dim: int) -> SectorOperator:
    """The one-site identity on ``dim`` levels, the image of every empty
    word, built once per level count and shared read-only."""
    unit = SectorOperator.identity(level_sectors(dim, 1), complex)
    unit.blocks.flags.writeable = False
    return unit


def word_sum(terms: list, dim: int) -> SectorOperator:
    """The one-site image of one-slot terms, given as (coefficient, word)
    pairs: each coefficient times its word's :func:`word_image`, summed in
    order.  Every S and S^-1 image of a non-group-like atom is one."""
    total = None
    for coeff, word in terms:
        image = coeff * word_image(word, dim)
        total = image if total is None else total + image
    return total


def delta_of_word(word: tuple) -> list:
    """Two-slot Sweedler terms of a product, multiplying the factors' terms."""
    terms = [Term(1.0, ((), ()))]
    for atom in word:
        if atom.delta is None:
            raise ValueError(f"atom {atom.name!r} has no coproduct")
        terms = [Term(t.coeff * d.coeff,
                      (t.words[0] + d.words[0], t.words[1] + d.words[1]))
                 for t in terms for d in atom.delta]
    return terms


def expand_slot(terms: list, slot: int) -> list:
    """Apply Delta to one slot of a multi-slot Sweedler sum (k slots -> k+1)."""
    out = []
    for t in terms:
        for d in delta_of_word(t.words[slot]):
            words = t.words[:slot] + d.words + t.words[slot + 1:]
            out.append(Term(t.coeff * d.coeff, words))
    return out


def normal_form(terms: list) -> dict:
    """The Sweedler sum as a map from slot words, given by atom names, to
    coefficients.

    Each word is reduced by cancelling adjacent group-like inverse pairs
    (u u^-1 = u^-1 u = 1, as each atom's ``inverse`` declares), the
    coefficients of equal reduced words are summed in term order, and words
    whose coefficients sum to exactly 0 are dropped.  Two sums with equal
    normal forms are equal in every representation.
    """
    out = {}
    for t in terms:
        key = tuple(_reduced(word) for word in t.words)
        out[key] = out.get(key, 0) + t.coeff
    return {key: coeff for key, coeff in out.items() if coeff != 0}


def _reduced(word: tuple) -> tuple:
    """Atom names of a word with its adjacent inverse pairs cancelled."""
    kept = []
    for atom in word:
        if kept and kept[-1].inverse == atom.name:
            kept.pop()
        else:
            kept.append(atom)
    return tuple(atom.name for atom in kept)


def terms_matrix(terms: list, dim: int) -> np.ndarray:
    """Sum of the terms' dense matrices."""
    total = terms[0].matrix(dim)
    for t in terms[1:]:
        total += t.matrix(dim)
    return total


def terms_operator(terms: list, dim: int, top: int | None = None):
    """Sum of terms as a sector operator on their multi-site space, on the
    column sectors of total level up to ``top`` (every level by default).

    Each term is gathered from its slot images
    (:meth:`SectorOperator.gather`), scaled as ``Term.matrix`` scales it and
    summed in the order of :func:`terms_matrix`, so every entry is
    bit-identical to it.  Nonzero terms of different level shifts have no
    common sector blocks: their sum raises ValueError.
    """
    sectors = level_sectors(dim, terms[0].slots)
    total = None
    for t in terms:
        op = SectorOperator.gather([word_image(w, dim) for w in t.words], sectors, top) * t.coeff
        total = op if total is None else total + op
    return total


# Raising-operator count of each generator's coproduct monomials; sets the
# default validity-window degree of the per-generator axiom checks.
_RAISE_DEGREE = {"ad": 1, "bd": 1}


class HopfTables:
    """Per-generator images under Delta, eps, S and S^-1 for one representation."""

    def __init__(self, rep: FockRep):
        if rep.spec.family == "Bbar" and rep.spec.sigma == 0:
            raise SpecError("coproduct tables for this family require sigma != 0")
        self.rep = rep
        self.spec = rep.spec
        self._delta_images = {}
        self._build_atoms()

    # -- construction --------------------------------------------------------
    def _build_atoms(self):
        """Every family's atoms by the one rule of the module docstring,
        each S and S^-1 image formed from its one-slot terms by
        :func:`word_sum`."""
        rep, spec = self.rep, self.spec
        graded, deformed = spec.family in ("B", "Bq", "H"), spec.is_deformed
        if spec.family == "H":
            (number, lower, upper), shift = ("M", "b", "bd"), 0.5 - spec.rho
        else:
            c1, c2 = (spec.alpha, spec.beta) if graded else (spec.sigma, spec.tau)
            (number, lower, upper), shift = ("N", "a", "ad"), c2 / c1
        n = Atom(number, rep.number, eps=-shift)
        lo = Atom(lower, rep.lowering, eps=0.0)
        hi = Atom(upper, rep.raising, eps=0.0)
        # g, gi, qm and tail are word fragments, empty when their flag is off
        grades = qhalves = g = gi = qm = tail = ()
        if graded:
            grades = (grouplike("g", rep.require_grade(), rep.grade_minus, "ginv"),
                      grouplike("ginv", rep.grade_minus, rep.grade_plus, "g"))
            g, gi = (grades[0],), (grades[1],)
        # S^-1 carries q^{+c1/2} on the lowering image and q^{-c1/2} on the
        # raising image: the opposite choice fails S^-1(S(a)) = a because
        # moving a ladder operator through the grade flips its sign while
        # moving it through q^{(c1 N + c2)/2} scales it by q^{+-c1/2}.
        up = down = 1.0
        if deformed:
            exponent = (c1 * rep.levels + c2) / 2.0
            half = SectorOperator.one_site(np.power(spec.q, exponent).astype(complex), 0)
            half_inv = SectorOperator.one_site(np.power(spec.q, -exponent).astype(complex), 0)
            qhalves = (grouplike("qhalf", half, half_inv, "qhalfinv"),  # q^{(c1 N + c2)/2}
                       grouplike("qhalfinv", half_inv, half, "qhalf"))
            tail, qm = (qhalves[0],), (qhalves[1],)
            up, down = spec.q ** (c1 / 2.0), spec.q ** (-c1 / 2.0)
        sign = 1.0 if graded else -1.0
        number_s = [(-1.0, (n,)), (-2.0 * shift, ())]
        rule = [  # (atom, Delta terms, S terms, S^-1 terms)
            (n, [Term(1.0, ((n,), ())), Term(1.0, ((), (n,))), Term(shift, ((), ()))],
             number_s, number_s),
            (lo, [Term(1.0, ((lo,), tail)), Term(1.0, ((*g, *qm), (lo,)))],
             [(-down, (*gi, lo))], [(sign * up, (*gi, lo))]),
            (hi, [Term(1.0, ((hi,), tail)), Term(1.0, ((*gi, *qm), (hi,)))],
             [(sign * up, (hi, *g))], [(-down, (hi, *g))]),
        ]
        extra = ()
        if spec.family == "H":
            d, nu = spec.delta, spec.nu
            k = Atom("K", rep.k_op, eps=-d / nu)
            extra, k_s = (k,), [(1.0, (k,))]
            rule.append((k, [Term(1.0, ((k,), ())), Term(1.0, ((), (k,))),
                             Term(d / nu, ((), ())), Term(-2.0 / nu, ((*gi, lo), (hi,))),
                             Term(2.0 / nu, ((*g, hi), (lo,)))], k_s, k_s))
        for atom, delta, s, s_inv in rule:
            atom.delta = delta
            atom.s = word_sum(s, rep.dim)
            atom.s_inv = atom.s if s_inv is s else word_sum(s_inv, rep.dim)
        generators = (n, *extra, lo, hi, *grades)
        self.atoms = {atom.name: atom for atom in generators + qhalves}
        self._generators = tuple(atom.name for atom in generators)

    def release(self) -> None:
        """Drop the atoms and the held images.  Each atom's coproduct terms
        name the atom, a reference cycle that only a full garbage
        collection frees; cleared here, the tables are freed when dropped."""
        for atom in self.atoms.values():
            atom.delta = None
        self.atoms, self._delta_images = {}, {}

    # -- accessors -----------------------------------------------------------
    def generator_names(self) -> tuple:
        """The generators whose Hopf images are part of the structure tables:
        the rule's atoms less the qhalf pair, in the order it builds them."""
        return self._generators

    def atom(self, name: str) -> Atom:
        if name not in self.atoms:
            raise KeyError(f"no Hopf image for generator {name!r} in family {self.spec.family}")
        return self.atoms[name]

    def delta_terms(self, name: str, transpose: bool = False) -> list:
        """Sweedler terms of Delta(name), or of the opposite coproduct
        Delta^T = tau Delta: each term with its two words exchanged."""
        terms = self.atom(name).delta
        return [Term(t.coeff, t.words[::-1]) for t in terms] if transpose else terms

    def delta_image(self, name: str, transpose: bool = False) -> SectorOperator:
        """Delta(name), or Delta^T, as a two-site sector operator gathered
        from its Sweedler terms (:func:`terms_operator`) once per tables.
        Its blocks are read-only, since every row of the point shares it."""
        image = self._delta_images.get((name, transpose))
        if image is None:
            image = terms_operator(self.delta_terms(name, transpose), self.rep.dim)
            image.blocks.flags.writeable = False
            self._delta_images[name, transpose] = image
        return image

    def delta_matrix(self, name: str) -> np.ndarray:
        return terms_matrix(self.delta_terms(name), self.rep.dim)

    def counit(self, name: str) -> complex:
        return self.atom(name).eps

    def antipode(self, name: str) -> SectorOperator:
        return self.atom(name).s

    def antipode_images(self) -> dict:
        """S(x) of each generator x, and I, as one-site sector operators."""
        images = {name: self.antipode(name) for name in self.generator_names()}
        images["I"] = self.rep.identity
        return images

    # -- axiom checks --------------------------------------------------------
    def check_coassociativity(self, tol: float = DEFAULT_TOL) -> list:
        """(Delta x id) Delta(g) = (id x Delta) Delta(g) for every generator.

        Both expansions are compared as Sweedler normal forms first
        (:func:`normal_form`): equal forms read 0.0 with no operator built.
        Otherwise both sides are gathered as sector operators on the column
        sectors of the validity window only (levels up to dim - 1 - degree)
        and their difference is normed.  ``branch_note["path"]`` names the
        path that decided the row.
        """
        dim = self.rep.dim

        def gathered(left, right):
            return lambda top: (terms_operator(left, dim, top)
                                - terms_operator(right, dim, top))

        rows = []
        for name in self.generator_names():
            terms = self.delta_terms(name)
            left, right = expand_slot(terms, 0), expand_slot(terms, 1)
            if normal_form(left) == normal_form(right):
                residual, path = 0.0, "sweedler normal form"
            else:
                residual, path = gathered(left, right), "window gather"
            rows.append(windowed_row(self.spec, dim, f"hopf.coassoc.{name}",
                                     "(Delta x id) Delta(g) = (id x Delta) Delta(g)", residual,
                                     tol, _RAISE_DEGREE.get(name, 0) + 1,
                                     branch_note={"path": path}))
        return rows

    def contract(self, name: str, x: str, y: str, transpose: bool = False):
        """m (X x Y) Delta(name) = sum c X(g1) Y(g2), or the same over Delta^T.

        ``x`` and ``y`` name slot maps for :func:`word_image`.  S^-1 is the
        antipode of the opposite Hopf algebra, whose coproduct is Delta^T.
        """
        dim = self.rep.dim
        total = None
        for t in self.delta_terms(name, transpose):
            w1, w2 = t.words
            left, right = t.coeff * word_image(w1, dim, x), word_image(w2, dim, y)
            term = left * right if np.isscalar(left) or np.isscalar(right) else left @ right
            total = term if total is None else total + term
        return total

    def _contraction_rows(self, check: str, ref: str, image: str, target,
                          min_degree: int, tol: float, transpose: bool = False) -> list:
        """One row per generator: the larger absolute windowed residual of
        m (image x id) and m (id x image) over Delta (or Delta^T) against
        ``target(name)``."""
        out = []
        for name in self.generator_names():
            goal = target(name)
            sides = (self.contract(name, image, "matrix", transpose) - goal,
                     self.contract(name, "matrix", image, transpose) - goal)
            out.append(windowed_row(self.spec, self.rep.dim, f"hopf.{check}.{name}", ref,
                                    sides, tol, max(_RAISE_DEGREE.get(name, 0), min_degree)))
        return out

    def check_counit(self, tol: float = DEFAULT_TOL) -> list:
        return self._contraction_rows(
            "counit", "(eps x id) Delta(g) = g = (id x eps) Delta(g)", "eps",
            lambda name: self.atom(name).matrix, 0, tol)

    def check_antipode(self, tol: float = DEFAULT_TOL) -> list:
        return self._contraction_rows(
            "antipode", "m (S x id) Delta(g) = eps(g) I = m (id x S) Delta(g)", "s",
            lambda name: self.counit(name) * self.rep.identity, 1, tol)

    def check_antipode_inverse(self, tol: float = DEFAULT_TOL) -> list:
        return self._contraction_rows(
            "antipode-inverse",
            "m (S^-1 x id) Delta^T(g) = eps(g) I = m (id x S^-1) Delta^T(g)", "s_inv",
            lambda name: self.counit(name) * self.rep.identity, 1, tol, transpose=True)

    def check_delta_homomorphism(self, tol: float = DEFAULT_TOL) -> list:
        """Defining relations survive g -> Delta(g) (and, reversed, g -> S(g)),
        each row on the window of its relation's raise degree, as
        :func:`fock.check_defining_relations` norms it.

        The Delta images are the tables' sector operators
        (:meth:`delta_image`); no dense two-site image is formed.  An image
        that mixes level shifts is refused.
        """
        return rows_at(check_delta_homomorphism_batch([self], tol), 0)

    def delta_hom_rows(self, tol: float = DEFAULT_TOL) -> list:
        """The rows of the defining relations on the Delta images."""
        gens = {name: self.delta_image(name) for name in self.generator_names()}
        gens["I"] = terms_operator([Term(1.0, ((), ()))], self.rep.dim)
        return rows_at(relation_lines([self.spec], self.rep.dim, gens, tol, "hopf.delta-hom",
                                      "Delta images"), 0)

    def run_axiom_checks(self, tol: float = DEFAULT_TOL) -> list:
        return (self.check_coassociativity(tol) + self.check_counit(tol)
                + self.check_antipode(tol) + self.check_antipode_inverse(tol))


def check_delta_homomorphism_batch(tables: list, tol: float = DEFAULT_TOL) -> list:
    """:meth:`HopfTables.check_delta_homomorphism` at the tables of several
    points of one family and dim, as the lines of the batch
    (:func:`report.rows_at`): first its Delta rows, run at each point alone,
    then its antipode rows, run at once on the direct sums of the points'
    antipode images."""
    return [PointCalls([functools.partial(t.delta_hom_rows, tol) for t in tables]),
            *relation_lines([t.spec for t in tables], tables[0].rep.dim,
                            direct_sum_images([t.antipode_images() for t in tables]), tol,
                            "hopf.s-antihom", "antipode images", anti=True)]


def build_tables(rep: FockRep) -> HopfTables:
    return HopfTables(rep)
