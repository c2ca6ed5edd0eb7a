"""Truncated Fock-space matrix representations of the five algebra families.

The families B, Bbar, Bq, Bbarq and H are stated by their defining
relations, written once in the identity corpus ``data/identities.txt``;
g denotes the grade element, a diagonal phase that anticommutes with both
ladder operators, and H's number generator is
M = bd*b/delta + nu*K/(2*delta) + rho.

Operators live on span{|0>, ..., |D-1>} with a hard cutoff: raising maps the
top level to zero.  Operator identities are therefore only asserted on
validity windows, subspaces low enough that no monomial of the identity
reaches the cutoff: an identity whose monomials hold at most k raising
generators is exact on the levels up to D - 1 - k, the window's top level.

Every generator image shifts the level by one fixed amount, and is built
as the one-site level-sector operator (:class:`tensor.SectorOperator`) of
its weight or diagonal vector, the only form the lab holds it in: the
relation residuals are formed and normed on sector operators, on one site
or on the tensor power the images act on.  ``eval`` alone reads the images
as dense matrices (:func:`rep_generator_images`).  The one-site relation
rows of several grid points of one family and level count run at once
(:func:`check_defining_relations_batch`): each image is the direct sum of
the points' images, so one program run serves every point, each point
keeping its own parameters and its own row.

Which points exist is stated once, by :class:`spec.AlgebraSpec`; every
rep is built in the normalized basis, whose ladder entries are the square
roots of the weights, nonnegative at every admissible point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .report import WindowedLine, rows_at, windowed_values
from .scalars import phase_pow, q_bracket
from .spec import AlgebraSpec, SpecError
from .tensor import SectorOperator, level_sectors
# bound here only so that the benchmark's trace target fock.windowed_norm
# resolves; nothing in the package calls it
from .tensor import windowed_norm  # noqa: F401

DEFAULT_DIM = 16
DEFAULT_TOL = 1e-10


class RepresentationError(ValueError):
    """A representation or image cannot be built for the requested spec."""


def weight(spec: AlgebraSpec, n: int) -> float:
    """Ladder weight w(n): the normalized basis's lowering maps |n> to
    sqrt(w(n))|n-1>.

    B:     alpha*n/2 + (2*beta - alpha)/4 * (1 + (-1)^(n+1))
    Bbar:  sigma*n*(n-1)/2 + n*tau
    Bq:    (q^(a/2)+q^(-a/2))^-1 * ((-1)^(n+1)[b - a/2]_q + [n*a + b - a/2]_q)
    Bbarq: [s/2]_q^-1 * [s*n/2]_q * [s*(n-1)/2 + t]_q
    H:     delta*m + (nu - delta + 1)/2 * (1 + (-1)^(m+1))
    """
    if n < 1:
        raise ValueError(f"weights are defined for n >= 1, got {n}")
    sign = 1.0 + (-1.0) ** (n + 1)
    if spec.family == "B":
        a, b = spec.alpha, spec.beta
        return a * n / 2.0 + (2.0 * b - a) / 4.0 * sign
    if spec.family == "Bbar":
        s, t = spec.sigma, spec.tau
        return s * n * (n - 1) / 2.0 + n * t
    if spec.family == "Bq":
        a, b, q = spec.alpha, spec.beta, spec.q
        pref = 1.0 / (q ** (a / 2.0) + q ** (-a / 2.0))
        return pref * ((-1.0) ** (n + 1) * q_bracket(b - a / 2.0, q)
                       + q_bracket(n * a + b - a / 2.0, q))
    if spec.family == "Bbarq":
        s, t, q = spec.sigma, spec.tau, spec.q
        half = q_bracket(s / 2.0, q)
        if half == 0:
            raise SpecError(f"Bbarq weight undefined: [sigma/2]_q = 0 for sigma={s}, q={q}")
        return q_bracket(s * n / 2.0, q) * q_bracket(s * (n - 1) / 2.0 + t, q) / half
    # H family; the level label is traditionally m
    d, nu = spec.delta, spec.nu
    return d * n + (nu - d + 1.0) / 2.0 * sign


@dataclass(frozen=True)
class FockRep:
    """The images of one algebra instance on D truncated levels, as one-site
    sector operators."""

    spec: AlgebraSpec
    dim: int
    lowering: SectorOperator = field(repr=False)
    raising: SectorOperator = field(repr=False)
    number: SectorOperator = field(repr=False)      # number-like generator (N, or M for H)
    grade_plus: SectorOperator | None = field(repr=False, default=None)
    grade_minus: SectorOperator | None = field(repr=False, default=None)
    k_op: SectorOperator | None = field(repr=False, default=None)  # H family only

    @cached_property
    def identity(self) -> SectorOperator:
        return SectorOperator.identity(level_sectors(self.dim, 1), complex)

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float)

    def require_grade(self) -> SectorOperator:
        if self.grade_plus is None:
            raise RepresentationError(
                f"{self.spec.describe()} has no grade element (undefined exponent shift)"
            )
        return self.grade_plus

    def generator(self, name: str) -> SectorOperator:
        """Look up a generator image by its ASCII name."""
        fam = self.spec.family
        if fam == "H":
            table = {"b": self.lowering, "bd": self.raising, "M": self.number,
                     "K": self.k_op, "g": self.grade_plus, "ginv": self.grade_minus,
                     "I": self.identity}
        else:
            table = {"a": self.lowering, "ad": self.raising, "N": self.number,
                     "g": self.grade_plus, "ginv": self.grade_minus, "I": self.identity}
        if name not in table:
            raise KeyError(f"family {fam} has no generator {name!r}")
        mat = table[name]
        if mat is None:
            raise RepresentationError(f"generator {name!r} unavailable for {self.spec.describe()}")
        return mat

    def images(self) -> dict:
        """The generator images and I, by name."""
        gens = {name: self.generator(name) for name in self.generator_names()}
        gens["I"] = self.identity
        return gens

    def generator_names(self) -> tuple:
        if self.spec.family == "H":
            names = ["M", "K", "b", "bd"]
        else:
            names = ["N", "a", "ad"]
        if self.grade_plus is not None:
            names += ["g", "ginv"]
        return tuple(names)


def build_rep(spec: AlgebraSpec, dim: int = DEFAULT_DIM) -> FockRep:
    """Assemble the truncated images for one algebra instance, each the
    one-site sector operator of its vector (:meth:`SectorOperator.one_site`).

    The basis is the normalized one, the only one built: lowering maps |n>
    to sqrt(w(n))|n-1> and raising is its conjugate transpose.  Which points
    exist and which a run skips is stated in :mod:`spec`; a negative
    weight, which no admissible spec has, is refused.
    """
    if dim < 2:
        raise RepresentationError(f"need dim >= 2, got {dim}")
    weights = [weight(spec, n) for n in range(1, dim)]
    for n, w in enumerate(weights, 1):
        if w < 0:
            raise RepresentationError(
                f"no normalized basis for {spec.describe()}: weight({n}) = {w:g} < 0")
    ladder = np.sqrt(weights).astype(complex)
    levels = np.arange(dim, dtype=float)
    number = SectorOperator.one_site((levels + spec.number_shift).astype(complex), 0)

    shift = spec.grade_shift
    grade_plus = grade_minus = None
    if shift is not None:
        phases = np.array([phase_pow(n + shift) for n in levels])
        grade_plus = SectorOperator.one_site(phases, 0)
        grade_minus = SectorOperator.one_site(1.0 / phases, 0)

    k_op = None
    if spec.family == "H":
        k_diag = (spec.nu - spec.delta + 1.0) / spec.nu * (-1.0) ** np.arange(dim)
        k_op = SectorOperator.one_site(k_diag.astype(complex), 0)

    return FockRep(spec=spec, dim=dim, lowering=SectorOperator.one_site(ladder, -1),
                   raising=SectorOperator.one_site(ladder, 1), number=number,
                   grade_plus=grade_plus, grade_minus=grade_minus, k_op=k_op)


def diag_function(values_fn, diag_source: np.ndarray) -> np.ndarray:
    """Entrywise functional calculus on a diagonal matrix; rejects non-diagonal input.

    An off-diagonal entry above 1e-12 * max(1, largest |diagonal entry|)
    rejects the input: weights reach 1e7 at large dimension, and rounding
    noise off the diagonal scales with them.
    """
    diag = np.diag(diag_source)
    off = diag_source - np.diag(diag)
    if np.abs(off).max() > 1e-12 * max(1.0, np.abs(diag).max()):
        raise ValueError("functional calculus requires a diagonal operator")
    return np.diag(np.array([values_fn(v) for v in diag], dtype=complex))


def direct_sum_images(images: list) -> dict:
    """The direct sum over several points of each one-site image, given one
    dict of sector operators per point; the points must name the same images."""
    names = images[0].keys()
    if any(point.keys() != names for point in images):
        raise RepresentationError("the points do not have the same generator images")
    return {name: SectorOperator.direct_sum([point[name] for point in images]) for name in names}


def relation_residuals(specs: list, gens: dict, anti: bool = False) -> list:
    """The family's defining relations, the lines of the identity corpus
    (``data/identities.txt``), evaluated on generator images at one or
    several points of one family.

    ``gens`` maps generator names to sector operators
    (:class:`tensor.SectorOperator`): one point's images on any number of
    sites, or the direct sums of several points' one-site images
    (:func:`direct_sum_images`); "I" must be present.  Each point reads its
    own parameters.  A line that names an image ``gens`` lacks is left out
    (the grade relations without "g").  With ``anti`` the products are
    reversed, the form the relations take after an anti-homomorphism such
    as the antipode.  Each product of two images is formed once
    (:class:`expr.Program`).  Returns (identity id, reference, residual,
    raise degree, scales) per line: the reference is the line's residual
    set to zero, the residual an operator (a direct sum) or the list of its
    points' moduli, and the scales each point's norm of the line's scale
    operator (or a number's modulus).  Norms are reported relative to
    max(1, scale) because q-bracket entries grow exponentially with the
    level and double precision cannot deliver small absolute residuals
    against huge operands.
    """
    from .expr import load_corpus   # loaded by the first relation row
    scalars = [spec.param_dict for spec in specs]
    names = scalars[0].keys() | gens.keys()
    out = []
    for entry in load_corpus():
        if entry.family == specs[0].family and entry.program.names <= names:
            residual, scale = entry.run(scalars, gens, anti)
            out.append((f"{entry.family}.{entry.ident}", entry.reference, residual,
                        entry.raise_degree,
                        scale if isinstance(scale, list) else scale.summand_norms()))
    return out


def relation_lines(specs: list, dim: int, gens: dict, tol: float, kind: str = "relations",
                   images: str = "", anti: bool = False) -> list:
    """The rows of :func:`relation_residuals` as the lines of a batch
    (:func:`report.rows_at`): row ids ``kind.family.relation``, each
    reference prefixed by ``images``, each row on the window of its
    relation's raise degree."""
    return [WindowedLine(specs, dim, f"{kind}.{ident}", f"{images}: {ref}" if images else ref,
                         windowed_values(len(specs), dim, residual, degree, scales), tol, degree)
            for ident, ref, residual, degree, scales in relation_residuals(specs, gens, anti)]


def rep_generator_images(rep: FockRep) -> dict:
    """The generator images and I as dense matrices, the leaves of ``eval``."""
    return {name: x.to_dense() for name, x in rep.images().items()}


def check_defining_relations(rep: FockRep, tol: float = DEFAULT_TOL):
    """Windowed residual of every defining relation; failures are reported, not raised.

    An identity of raising degree k holds on the levels up to dim - 1 - k.
    """
    return rows_at(check_defining_relations_batch([rep], tol), 0)


def check_defining_relations_batch(reps: list, tol: float = DEFAULT_TOL) -> list:
    """:func:`check_defining_relations` at reps of one family and dim at
    once, on the direct sums of their images: the lines of the batch
    (:func:`report.rows_at`)."""
    return relation_lines([rep.spec for rep in reps], reps[0].dim,
                          direct_sum_images([rep.images() for rep in reps]), tol)
