"""Coproduct, counit and antipode tables, and the Hopf-axiom checks.

Coproduct images are stored as explicit Sweedler sums: lists of terms, each
a scalar coefficient times a tuple of slot words, where a word is a product
of atoms (generator images, grade elements, diagonal group-like factors).
The matrix form of Delta(g) is derived from the terms; the term form is the
source of truth because the counit and antipode contractions
m(S x id)Delta(g) cannot be computed from a bare tensor matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import AlgebraSpec, FockRep, SpecError, relation_residuals
from .report import check_report
from .tensor import kron_all, total_window_projector, windowed_norm

DEFAULT_TOL = 1e-10


@dataclass
class Atom:
    """A primitive symbol with known single-site images under all Hopf maps.

    ``delta`` is a list of two-slot Terms; group-like atoms use the canonical
    u -> u x u decomposition built by :func:`grouplike`.
    """

    name: str
    matrix: np.ndarray = field(repr=False)
    eps: complex = 1.0
    s: np.ndarray | None = field(repr=False, default=None)
    s_inv: np.ndarray | None = field(repr=False, default=None)
    delta: list | None = field(repr=False, default=None)


def grouplike(name: str, matrix: np.ndarray, inverse: np.ndarray) -> Atom:
    """Group-like atom: Delta(u) = u x u, eps(u) = 1, S(u) = u^-1."""
    atom = Atom(name=name, matrix=matrix, eps=1.0, s=inverse, s_inv=inverse)
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
        return self.coeff * kron_all(*(word_matrix(w, dim) for w in self.words))


def word_matrix(word: tuple, dim: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for atom in word:
        out = out @ atom.matrix
    return out


def word_eps(word: tuple) -> complex:
    out = 1.0 + 0j
    for atom in word:
        out *= atom.eps
    return out


def word_antipode(word: tuple, dim: int, inverse: bool = False) -> np.ndarray:
    """S (or S^-1) of a product, reversing factors: S(xy) = S(y) S(x)."""
    out = np.eye(dim, dtype=complex)
    for atom in reversed(word):
        img = atom.s_inv if inverse else atom.s
        if img is None:
            raise ValueError(f"atom {atom.name!r} has no antipode image")
        out = out @ img
    return out


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


def terms_matrix(terms: list, dim: int) -> np.ndarray:
    return sum(t.matrix(dim) for t in terms)


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
        self._build_atoms()

    # -- construction --------------------------------------------------------
    def _build_atoms(self):
        rep, spec = self.rep, self.spec
        fam = spec.family
        dim = rep.dim
        eye = rep.identity
        levels = rep.levels

        if fam == "H":
            g = grouplike("g", rep.require_grade(), rep.grade_minus)
            gi = grouplike("ginv", rep.grade_minus, rep.grade_plus)
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
            g = grouplike("g", rep.require_grade(), rep.grade_minus)
            gi = grouplike("ginv", rep.grade_minus, rep.grade_plus)
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
        qp = grouplike("qhalf", half, half_inv)       # q^{(c1 N + c2)/2}
        qm = grouplike("qhalfinv", half_inv, half)
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

    def delta_terms(self, name: str) -> list:
        return self.atom(name).delta

    def delta_matrix(self, name: str) -> np.ndarray:
        return terms_matrix(self.delta_terms(name), self.rep.dim)

    def counit(self, name: str) -> complex:
        return self.atom(name).eps

    def antipode(self, name: str) -> np.ndarray:
        return self.atom(name).s

    def antipode_inv(self, name: str) -> np.ndarray:
        return self.atom(name).s_inv

    # -- axiom checks --------------------------------------------------------
    def check_coassociativity(self, tol: float = DEFAULT_TOL) -> list:
        dim = self.rep.dim
        out = []
        for name in self.generator_names():
            lhs = terms_matrix(expand_slot(self.delta_terms(name), 0), dim)
            rhs = terms_matrix(expand_slot(self.delta_terms(name), 1), dim)
            deg = _RAISE_DEGREE.get(name, 0) + 1
            proj = total_window_projector(dim, 3, deg)
            res = windowed_norm(lhs - rhs, proj)
            out.append(check_report(self.spec, dim, f"hopf.coassoc.{name}",
                                    "(Delta x id) Delta = (id x Delta) Delta",
                                    res, tol, deg))
        return out

    def check_counit(self, tol: float = DEFAULT_TOL) -> list:
        dim = self.rep.dim
        out = []
        for name in self.generator_names():
            gen = self.atom(name).matrix
            left = sum(t.coeff * word_eps(t.words[0]) * word_matrix(t.words[1], dim)
                       for t in self.delta_terms(name))
            right = sum(t.coeff * word_matrix(t.words[0], dim) * word_eps(t.words[1])
                        for t in self.delta_terms(name))
            deg = _RAISE_DEGREE.get(name, 0)
            proj = total_window_projector(dim, 1, deg)
            res = max(windowed_norm(left - gen, proj), windowed_norm(right - gen, proj))
            out.append(check_report(self.spec, dim, f"hopf.counit.{name}",
                                    "(eps x id) Delta(g) = g = (id x eps) Delta(g)",
                                    res, tol, deg))
        return out

    def check_antipode(self, tol: float = DEFAULT_TOL) -> list:
        dim = self.rep.dim
        eye = self.rep.identity
        out = []
        for name in self.generator_names():
            target = self.counit(name) * eye
            left = sum(t.coeff * word_antipode(t.words[0], dim) @ word_matrix(t.words[1], dim)
                       for t in self.delta_terms(name))
            right = sum(t.coeff * word_matrix(t.words[0], dim) @ word_antipode(t.words[1], dim)
                        for t in self.delta_terms(name))
            deg = max(_RAISE_DEGREE.get(name, 0), 1)
            proj = total_window_projector(dim, 1, deg)
            res = max(windowed_norm(left - target, proj), windowed_norm(right - target, proj))
            out.append(check_report(self.spec, dim, f"hopf.antipode.{name}",
                                    "m (S x id) Delta(g) = eps(g) I = m (id x S) Delta(g)",
                                    res, tol, deg))
        return out

    def check_antipode_inverse(self, tol: float = DEFAULT_TOL) -> list:
        """S^-1 is the antipode of the opposite Hopf algebra (coproduct Delta^T)."""
        dim = self.rep.dim
        eye = self.rep.identity
        out = []
        for name in self.generator_names():
            target = self.counit(name) * eye
            left = sum(t.coeff * word_antipode(t.words[1], dim, inverse=True)
                       @ word_matrix(t.words[0], dim)
                       for t in self.delta_terms(name))
            right = sum(t.coeff * word_matrix(t.words[1], dim)
                        @ word_antipode(t.words[0], dim, inverse=True)
                        for t in self.delta_terms(name))
            deg = max(_RAISE_DEGREE.get(name, 0), 1)
            proj = total_window_projector(dim, 1, deg)
            res = max(windowed_norm(left - target, proj), windowed_norm(right - target, proj))
            out.append(check_report(self.spec, dim, f"hopf.antipode-inverse.{name}",
                                    "m (S^-1 x id) Delta^T(g) = eps(g) I",
                                    res, tol, deg))
        return out

    def check_delta_homomorphism(self, tol: float = DEFAULT_TOL, degree: int = 2) -> list:
        """Defining relations survive g -> Delta(g) (and, reversed, g -> S(g))."""
        dim = self.rep.dim
        out = []

        delta_gens = {name: self.delta_matrix(name) for name in self.generator_names()}
        delta_gens["I"] = np.eye(dim * dim, dtype=complex)
        proj2 = total_window_projector(dim, 2, degree)
        for ident, ref, residual, _, scale in relation_residuals(self.spec, delta_gens):
            res = windowed_norm(residual, proj2) / scale
            out.append(check_report(self.spec, dim, f"hopf.delta-hom.{ident}",
                                    f"Delta images: {ref}", res, tol, degree))

        s_gens = {name: self.antipode(name) for name in self.generator_names()}
        s_gens["I"] = self.rep.identity
        proj1 = total_window_projector(dim, 1, degree)
        for ident, ref, residual, _, scale in relation_residuals(self.spec, s_gens, anti=True):
            res = windowed_norm(residual, proj1) / scale
            out.append(check_report(self.spec, dim, f"hopf.s-antihom.{ident}",
                                    f"antipode images: {ref}", res, tol, degree))
        return out

    def run_axiom_checks(self, tol: float = DEFAULT_TOL) -> list:
        return (self.check_coassociativity(tol) + self.check_counit(tol)
                + self.check_antipode(tol) + self.check_antipode_inverse(tol))

    # -- adjoint actions -----------------------------------------------------
    def adjoint_action(self, name: str, x: np.ndarray, variant: str = "ad") -> np.ndarray:
        """ad_g(x) = sum g1 x S(g2); ad'_g(x) = sum g2 x S^-1(g1)."""
        dim = self.rep.dim
        if variant == "ad":
            return sum(t.coeff * word_matrix(t.words[0], dim) @ x
                       @ word_antipode(t.words[1], dim)
                       for t in self.delta_terms(name))
        if variant == "ad_prime":
            return sum(t.coeff * word_matrix(t.words[1], dim) @ x
                       @ word_antipode(t.words[0], dim, inverse=True)
                       for t in self.delta_terms(name))
        raise ValueError(f"unknown adjoint variant {variant!r}")


def build_tables(rep: FockRep) -> HopfTables:
    return HopfTables(rep)
