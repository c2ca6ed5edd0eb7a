"""Coproduct, counit and antipode tables, and the Hopf-axiom checks.

Coproduct images are stored as explicit Sweedler sums: lists of terms, each
a scalar coefficient times a tuple of slot words, where a word is a product
of atoms (generator images, grade elements, diagonal group-like factors).
The term form is the source of truth: the counit and antipode contractions
m(S x id)Delta(g) cannot be computed from a bare tensor matrix.  Multi-site
images, R's Delta slots among them, are gathered from the terms as sector
operators: Delta and Delta^T (the terms with their words exchanged,
HopfTables.delta_terms).  Coassociativity is decided on the terms first:
both expansions are reduced to Sweedler normal forms (group-like inverse
pairs cancelled, like terms merged, :func:`normal_form`), and only when the
forms differ are both sides gathered on the validity window's column
sectors and normed.  The dense delta_matrix is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockRep, SpecError, relation_residuals
from .report import windowed_row
from .tensor import SectorOperator, kron_all, level_sectors

DEFAULT_TOL = 1e-10


@dataclass
class Atom:
    """A primitive symbol with known single-site images under all Hopf maps.

    ``delta`` is a list of two-slot Terms; group-like atoms use the canonical
    u -> u x u decomposition built by :func:`grouplike`, and name their
    inverse atom in ``inverse``.
    """

    name: str
    matrix: np.ndarray = field(repr=False)
    eps: complex = 1.0
    s: np.ndarray | None = field(repr=False, default=None)
    s_inv: np.ndarray | None = field(repr=False, default=None)
    delta: list | None = field(repr=False, default=None)
    inverse: str | None = None


def grouplike(name: str, matrix: np.ndarray, inverse: np.ndarray,
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
        # not in place: a one-slot product is its word's image, which may be an atom's own
        return kron_all(*(word_image(w, dim) for w in self.words)) * self.coeff


def word_image(word: tuple, dim: int, image: str = "matrix"):
    """Image of a product of atoms under one slot map, named by its Atom field.

    ``"matrix"`` is the algebra image and ``"eps"`` the scalar counit; the
    anti-homomorphisms ``"s"`` and ``"s_inv"`` reverse the factors,
    S(xy) = S(y) S(x).  The empty word is the identity, and a one-atom word
    is the atom's own image, not a copy: callers must not write into it.
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
    return np.eye(dim, dtype=complex) if out is None else out


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
        op = SectorOperator.gather([(word_image(w, dim), (site,))
                                    for site, w in enumerate(t.words)],
                                   sectors, top) * t.coeff
        total = op if total is None else total + op
    return total


# Raising-operator count of each generator's coproduct monomials; sets the
# default validity-window degree of the per-generator axiom checks.
_RAISE_DEGREE = {"ad": 1, "bd": 1}


class HopfTables:
    """Per-generator images under Delta, eps, S and S^-1 for one representation."""

    def __init__(self, rep: FockRep):
        spec = rep.spec
        fam = spec.family
        if fam in ("B", "Bq") and spec.alpha == 0:
            raise SpecError("coproduct tables for this family require alpha != 0")
        if fam in ("Bbar", "Bbarq") and spec.sigma == 0:
            raise SpecError("coproduct tables for this family require sigma != 0")
        if fam == "H" and (spec.delta == 0 or spec.nu == 0):
            raise SpecError("coproduct tables for the reflection family require delta != 0 and nu != 0")
        self.rep = rep
        self.spec = spec
        self.atoms: dict[str, Atom] = {}
        self._delta_images = {}
        self._build_atoms()

    # -- construction --------------------------------------------------------
    def _build_atoms(self):
        rep, spec = self.rep, self.spec
        fam = spec.family
        dim = rep.dim
        eye = rep.identity
        levels = rep.levels

        if fam == "H":
            g = grouplike("g", rep.require_grade(), rep.grade_minus, "ginv")
            gi = grouplike("ginv", rep.grade_minus, rep.grade_plus, "g")
            d, nu, rho = spec.delta, spec.nu, spec.rho
            m = Atom("M", rep.number, eps=rho - 0.5,
                     s=-rep.number + (2 * rho - 1) * eye)
            m.s_inv = m.s
            m.delta = [Term(1.0, ((m,), ())), Term(1.0, ((), (m,))),
                       Term(0.5 - rho, ((), ()))]
            b = Atom("b", rep.lowering, eps=0.0, s=-gi.matrix @ rep.lowering,
                     s_inv=gi.matrix @ rep.lowering)
            bd = Atom("bd", rep.raising, eps=0.0, s=rep.raising @ g.matrix,
                      s_inv=-rep.raising @ g.matrix)
            b.delta = [Term(1.0, ((b,), ())), Term(1.0, ((g,), (b,)))]
            bd.delta = [Term(1.0, ((bd,), ())), Term(1.0, ((gi,), (bd,)))]
            k = Atom("K", rep.k_op, eps=-d / nu, s=rep.k_op, s_inv=rep.k_op)
            k.delta = [Term(1.0, ((k,), ())), Term(1.0, ((), (k,))),
                       Term(d / nu, ((), ())),
                       Term(-2.0 / nu, ((gi, b), (bd,))),
                       Term(2.0 / nu, ((g, bd), (b,)))]
            self.atoms = {"M": m, "K": k, "b": b, "bd": bd, "g": g, "ginv": gi}
            return

        deformed = spec.is_deformed
        if fam in ("B", "Bq"):
            c1, c2 = spec.alpha, spec.beta
        else:
            c1, c2 = spec.sigma, spec.tau
        shift = c2 / c1

        n_atom = Atom("N", rep.number, eps=-shift,
                      s=-rep.number - 2 * shift * eye)
        n_atom.s_inv = n_atom.s
        n_atom.delta = [Term(1.0, ((n_atom,), ())), Term(1.0, ((), (n_atom,))),
                        Term(shift, ((), ()))]
        self.atoms["N"] = n_atom

        graded = fam in ("B", "Bq")
        if graded:
            g = grouplike("g", rep.require_grade(), rep.grade_minus, "ginv")
            gi = grouplike("ginv", rep.grade_minus, rep.grade_plus, "g")
            self.atoms["g"] = g
            self.atoms["ginv"] = gi

        if not deformed:
            if graded:
                a = Atom("a", rep.lowering, eps=0.0,
                         s=-gi.matrix @ rep.lowering, s_inv=gi.matrix @ rep.lowering)
                ad = Atom("ad", rep.raising, eps=0.0,
                          s=rep.raising @ g.matrix, s_inv=-rep.raising @ g.matrix)
                a.delta = [Term(1.0, ((a,), ())), Term(1.0, ((g,), (a,)))]
                ad.delta = [Term(1.0, ((ad,), ())), Term(1.0, ((gi,), (ad,)))]
            else:
                a = Atom("a", rep.lowering, eps=0.0,
                         s=-rep.lowering, s_inv=-rep.lowering)
                ad = Atom("ad", rep.raising, eps=0.0,
                          s=-rep.raising, s_inv=-rep.raising)
                a.delta = [Term(1.0, ((a,), ())), Term(1.0, ((), (a,)))]
                ad.delta = [Term(1.0, ((ad,), ())), Term(1.0, ((), (ad,)))]
            self.atoms["a"] = a
            self.atoms["ad"] = ad
            return

        q = spec.q
        half = np.diag(np.power(q, (c1 * levels + c2) / 2.0).astype(complex))
        half_inv = np.diag(np.power(q, -(c1 * levels + c2) / 2.0).astype(complex))
        qp = grouplike("qhalf", half, half_inv, "qhalfinv")   # q^{(c1 N + c2)/2}
        qm = grouplike("qhalfinv", half_inv, half, "qhalf")
        self.atoms["qhalf"] = qp
        self.atoms["qhalfinv"] = qm
        if graded:
            # S^-1 carries q^{+c1/2} on the lowering image and q^{-c1/2} on the
            # raising image: the opposite choice fails S^-1(S(a)) = a because
            # moving a ladder operator through the grade flips its sign while
            # moving it through q^{(c1 N + c2)/2} scales it by q^{+-c1/2}.
            a = Atom("a", rep.lowering, eps=0.0,
                     s=-q ** (-c1 / 2.0) * (gi.matrix @ rep.lowering),
                     s_inv=q ** (c1 / 2.0) * (gi.matrix @ rep.lowering))
            ad = Atom("ad", rep.raising, eps=0.0,
                      s=q ** (c1 / 2.0) * (rep.raising @ g.matrix),
                      s_inv=-q ** (-c1 / 2.0) * (rep.raising @ g.matrix))
            a.delta = [Term(1.0, ((a,), (qp,))), Term(1.0, ((g, qm), (a,)))]
            ad.delta = [Term(1.0, ((ad,), (qp,))), Term(1.0, ((gi, qm), (ad,)))]
        else:
            a = Atom("a", rep.lowering, eps=0.0,
                     s=-q ** (-c1 / 2.0) * rep.lowering,
                     s_inv=-q ** (c1 / 2.0) * rep.lowering)
            ad = Atom("ad", rep.raising, eps=0.0,
                      s=-q ** (c1 / 2.0) * rep.raising,
                      s_inv=-q ** (-c1 / 2.0) * rep.raising)
            a.delta = [Term(1.0, ((a,), (qp,))), Term(1.0, ((qm,), (a,)))]
            ad.delta = [Term(1.0, ((ad,), (qp,))), Term(1.0, ((qm,), (ad,)))]
        self.atoms["a"] = a
        self.atoms["ad"] = ad

    # -- accessors -----------------------------------------------------------
    def generator_names(self) -> tuple:
        """The generators whose Hopf images are part of the structure tables."""
        if self.spec.family == "H":
            return ("M", "K", "b", "bd", "g", "ginv")
        if self.spec.family in ("B", "Bq"):
            return ("N", "a", "ad", "g", "ginv")
        return ("N", "a", "ad")

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
        from its Sweedler terms (:func:`terms_operator`) once per tables and
        terms: a changed coefficient, or another atom in a word, gathers it
        anew.  Its blocks are read-only, since every row of the point shares
        it."""
        terms = self.delta_terms(name, transpose)
        # atoms by identity; the held terms keep them, and so their ids, alive
        signature = [(t.coeff, [[id(atom) for atom in word] for word in t.words])
                     for t in terms]
        held = self._delta_images.get((name, transpose))
        if held is None or held[0] != signature:
            image = terms_operator(terms, self.rep.dim)
            image.blocks.flags.writeable = False
            held = self._delta_images[name, transpose] = (signature, image, terms)
        return held[1]

    def delta_matrix(self, name: str) -> np.ndarray:
        return terms_matrix(self.delta_terms(name), self.rep.dim)

    def counit(self, name: str) -> complex:
        return self.atom(name).eps

    def antipode(self, name: str) -> np.ndarray:
        return self.atom(name).s

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
                                     "(Delta x id) Delta = (id x Delta) Delta", residual,
                                     tol, _RAISE_DEGREE.get(name, 0) + 1,
                                     branch_note={"path": path}))
        return rows

    def contract(self, name: str, x: str, y: str, transpose: bool = False):
        """m (X x Y) Delta(name) = sum c X(g1) Y(g2), or the same over Delta^T.

        ``x`` and ``y`` name slot maps for :func:`word_image`.  S^-1 is the
        antipode of the opposite Hopf algebra, whose coproduct is Delta^T.
        """
        dim = self.rep.dim
        total = 0
        for t in self.delta_terms(name, transpose):
            w1, w2 = t.words
            left, right = t.coeff * word_image(w1, dim, x), word_image(w2, dim, y)
            total = total + (left @ right if np.ndim(left) and np.ndim(right)
                             else left * right)
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
            "antipode-inverse", "m (S^-1 x id) Delta^T(g) = eps(g) I", "s_inv",
            lambda name: self.counit(name) * self.rep.identity, 1, tol, transpose=True)

    def check_delta_homomorphism(self, tol: float = DEFAULT_TOL) -> list:
        """Defining relations survive g -> Delta(g) (and, reversed, g -> S(g)),
        each row on the window of its relation's raise degree, as
        :func:`fock.check_defining_relations` norms it.

        The Delta images are the tables' sector operators
        (:meth:`delta_image`); no dense two-site image is formed.  An image
        that mixes level shifts is refused.
        """
        dim = self.rep.dim
        delta_gens = {name: self.delta_image(name) for name in self.generator_names()}
        delta_gens["I"] = terms_operator([Term(1.0, ((), ()))], dim)
        s_gens = {name: self.antipode(name) for name in self.generator_names()}
        s_gens["I"] = self.rep.identity
        return [windowed_row(self.spec, dim, f"hopf.{kind}.{ident}", f"{images}: {ref}",
                             residual, tol, degree, scale)
                for kind, images, gens, sites, anti in (
                    ("delta-hom", "Delta images", delta_gens, 2, False),
                    ("s-antihom", "antipode images", s_gens, 1, True))
                for ident, ref, residual, degree, scale in relation_residuals(
                    self.spec, gens, level_sectors(dim, sites), anti)]

    def run_axiom_checks(self, tol: float = DEFAULT_TOL) -> list:
        return (self.check_coassociativity(tol) + self.check_counit(tol)
                + self.check_antipode(tol) + self.check_antipode_inverse(tol))


def build_tables(rep: FockRep) -> HopfTables:
    return HopfTables(rep)
