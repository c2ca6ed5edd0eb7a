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

Every generator image shifts the level by one fixed amount, so the relation
residuals are formed and normed on level-sector operators
(:class:`tensor.SectorOperator`), on one site or on the tensor power the
images act on.

Which points exist is stated once, by :class:`AlgebraSpec`: alpha, beta > 0
(B, Bq), sigma, tau >= 0 (Bbar), sigma > 0 and tau >= 0 (Bbarq, whose
weights divide by [sigma/2]_q) and delta, nu > 0 (H), with q > 0 and
q != 1 in the deformed families.  Every rep is built in the normalized
basis, whose ladder entries are the square roots of the weights; the
weights of every admissible point are nonnegative.  The zero-parameter
points alpha = 0, sigma = 0, delta = 0 and nu = 0 are skipped by every
suite of a run, with the reason ``cli.FAMILY_PROVISOS`` gives; of these
only sigma = 0 in Bbar is an admissible spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .report import windowed_row
from .scalars import check_q, phase_pow, q_bracket
from .tensor import LevelSectors, SectorOperator, level_sectors, spectral_norm
# bound here only so that the benchmark's trace target fock.windowed_norm
# resolves; nothing in the package calls it
from .tensor import windowed_norm  # noqa: F401

FAMILIES = ("B", "Bbar", "Bq", "Bbarq", "H")

# Parameter names per family, in storage order.
PARAM_NAMES = {
    "B": ("alpha", "beta"),
    "Bbar": ("sigma", "tau"),
    "Bq": ("alpha", "beta", "q"),
    "Bbarq": ("sigma", "tau", "q"),
    "H": ("delta", "nu", "rho"),
}

# Why a graded point whose grade shift is not an integer
# (AlgebraSpec.integer_grade_shift) has no parity head.
NONINTEGER_GRADE_SHIFT = "(-1)^(2*Ntilde) = I requires beta/alpha to be an integer"

DEFAULT_DIM = 16
DEFAULT_TOL = 1e-10


class SpecError(ValueError):
    """Invalid family/parameter combination."""


class RepresentationError(ValueError):
    """A representation or image cannot be built for the requested spec."""


@dataclass(frozen=True)
class AlgebraSpec:
    """One algebra instance: family tag plus its real parameters, refused
    unless they meet the family's positivity requirement."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        names = PARAM_NAMES[self.family]
        if len(self.params) != len(names):
            raise SpecError(
                f"family {self.family} takes parameters {names}, got {len(self.params)} values"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.is_deformed:
            check_q(self.q)
        if not self._positivity_ok():
            raise SpecError(
                f"{self.family}{self.params} violates the positivity "
                "requirement on the structure parameters"
            )

    # -- parameter accessors -------------------------------------------------
    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        names = PARAM_NAMES[object.__getattribute__(self, "family")]
        if name in names:
            return self.params[names.index(name)]
        raise AttributeError(f"{self.family} spec has no parameter {name!r}")

    @property
    def is_deformed(self) -> bool:
        return self.family in ("Bq", "Bbarq")

    @property
    def param_dict(self) -> dict:
        return dict(zip(PARAM_NAMES[self.family], self.params))

    def _positivity_ok(self) -> bool:
        if self.family in ("B", "Bq"):
            return self.alpha > 0 and self.beta > 0
        if self.family == "Bbar":
            return self.sigma >= 0 and self.tau >= 0
        if self.family == "Bbarq":
            return self.sigma > 0 and self.tau >= 0
        return self.delta > 0 and self.nu > 0

    @property
    def grade_shift(self):
        """Exponent shift s such that the grade element is (-1)^(N + s).

        B/Bq: beta/alpha; Bbar/Bbarq: tau/sigma; H: the grade is
        (-1)^(M - rho + 1/2) with M acting as m + (nu-delta+1)/(2*delta) + rho,
        so s = (nu - delta + 1)/(2*delta) + 1/2.  None at Bbar's sigma = 0 (no grade
        element is available then).
        """
        if self.family in ("B", "Bq"):
            return self.beta / self.alpha
        if self.family in ("Bbar", "Bbarq"):
            return self.tau / self.sigma if self.sigma != 0 else None
        return (self.nu - self.delta + 1.0) / (2.0 * self.delta) + 0.5

    @property
    def integer_grade_shift(self) -> bool:
        """Whether the grade shift is an integer to 1e-12 (0.3/0.1 is 3), so
        that (-1)^(2 Nt) = I, as the parity head R0 needs."""
        shift = self.grade_shift
        return shift is not None and abs(shift - round(shift)) <= 1e-12

    @property
    def number_shift(self) -> float:
        """Offset of the number-like generator relative to the level index.

        Zero for the B-type families (N|n> = n|n>); for H the generator is M
        with M|m> = (m + (nu-delta+1)/(2*delta) + rho)|m>.
        """
        if self.family != "H":
            return 0.0
        return (self.nu - self.delta + 1.0) / (2.0 * self.delta) + self.rho

    def describe(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in self.param_dict.items())
        return f"{self.family}({body})"


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
    """Matrix images of one algebra instance on D truncated levels."""

    spec: AlgebraSpec
    dim: int
    lowering: np.ndarray = field(repr=False)
    raising: np.ndarray = field(repr=False)
    number: np.ndarray = field(repr=False)          # number-like generator (N, or M for H)
    grade_plus: np.ndarray | None = field(repr=False, default=None)
    grade_minus: np.ndarray | None = field(repr=False, default=None)
    k_op: np.ndarray | None = field(repr=False, default=None)  # H family only

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    @property
    def levels(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float)

    def require_grade(self) -> np.ndarray:
        if self.grade_plus is None:
            raise RepresentationError(
                f"{self.spec.describe()} has no grade element (undefined exponent shift)"
            )
        return self.grade_plus

    def generator(self, name: str) -> np.ndarray:
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

    def generator_names(self) -> tuple:
        if self.spec.family == "H":
            names = ["M", "K", "b", "bd"]
        else:
            names = ["N", "a", "ad"]
        if self.grade_plus is not None:
            names += ["g", "ginv"]
        return tuple(names)


def build_rep(spec: AlgebraSpec, dim: int = DEFAULT_DIM) -> FockRep:
    """Assemble the truncated matrices for one algebra instance.

    The basis is the normalized one, the only one built: lowering has the
    entries sqrt(w(n)) and raising is its conjugate transpose.  Which points
    exist and which a run skips is stated in the module docstring; a
    negative weight, which no admissible spec has, is refused.
    """
    if dim < 2:
        raise RepresentationError(f"need dim >= 2, got {dim}")
    lowering = np.zeros((dim, dim), dtype=complex)
    raising = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        w = weight(spec, n)
        if w < 0:
            raise RepresentationError(
                f"no normalized basis for {spec.describe()}: weight({n}) = {w:g} < 0")
        lowering[n - 1, n] = raising[n, n - 1] = np.sqrt(w)
    levels = np.arange(dim, dtype=float)
    number = np.diag((levels + spec.number_shift).astype(complex))

    shift = spec.grade_shift
    grade_plus = grade_minus = None
    if shift is not None:
        phases = np.array([phase_pow(n + shift) for n in levels])
        grade_plus = np.diag(phases)
        grade_minus = np.diag(1.0 / phases)

    k_op = None
    if spec.family == "H":
        k_diag = (spec.nu - spec.delta + 1.0) / spec.nu * (-1.0) ** np.arange(dim)
        k_op = np.diag(k_diag.astype(complex))

    return FockRep(spec=spec, dim=dim, lowering=lowering, raising=raising,
                   number=number, grade_plus=grade_plus, grade_minus=grade_minus,
                   k_op=k_op)


def comm(x, y):
    return x @ y - y @ x


def acomm(x, y):
    return x @ y + y @ x


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


def _sector_operator(x, sectors: LevelSectors) -> SectorOperator:
    """x as a sector operator of ``sectors``; an image that mixes level shifts has none."""
    op = x if isinstance(x, SectorOperator) else SectorOperator.from_dense(x, sectors)
    if op is None:
        raise RepresentationError("the operator shifts the total level by different amounts")
    return op


def relation_residuals(spec: AlgebraSpec, gens: dict, sectors: LevelSectors,
                       anti: bool = False) -> list:
    """The family's defining relations, the lines of the identity corpus
    (``data/identities.txt``), evaluated on arbitrary generator images.

    ``gens`` maps generator names to square matrices (or sector operators)
    of a common size (any site count); "I" must be present.  A line that
    names an image ``gens`` lacks is left out (the grade relations without
    "g").  With ``anti`` the products are reversed, the form the relations
    take after an anti-homomorphism such as the antipode.  The parameters
    are the spec's.  Returns (identity id, reference, residual, raise
    degree, scale) per line: the reference is the line's residual set to
    zero and the scale the norm of its scale operator (or a number's
    modulus).  Norms are reported relative to max(1, scale) because
    q-bracket entries grow exponentially with the level and double
    precision cannot deliver small absolute residuals against huge operands.

    ``sectors`` is the level-sector index of the images' space.  Each image
    is taken as its sector operator (:class:`tensor.SectorOperator`), so a
    residual comes back as one; an image whose entries mix level shifts is
    refused.  Each product of two images is formed once (:class:`expr.Program`).
    """
    from .expr import load_corpus   # loaded by the first relation row
    leaves = {**spec.param_dict,
              **{name: _sector_operator(x, sectors) for name, x in gens.items()}}
    out = []
    for entry in load_corpus():
        if entry.family == spec.family and entry.program.names <= leaves.keys():
            residual, scale = entry.program.run(leaves, anti)
            out.append((f"{entry.family}.{entry.ident}", f"{entry.text} = 0", residual,
                        entry.raise_degree,
                        abs(scale) if np.isscalar(scale) else spectral_norm(scale)))
    return out


def rep_generator_images(rep: FockRep) -> dict:
    gens = {name: rep.generator(name) for name in rep.generator_names()}
    gens["I"] = rep.identity
    return gens


def check_defining_relations(rep: FockRep, tol: float = DEFAULT_TOL):
    """Windowed residual of every defining relation; failures are reported, not raised.

    An identity of raising degree k holds on the levels up to dim - 1 - k.
    """
    return [windowed_row(rep.spec, rep.dim, f"relations.{ident}", ref, residual, tol,
                         degree, scale)
            for ident, ref, residual, degree, scale in relation_residuals(
                rep.spec, rep_generator_images(rep), level_sectors(rep.dim, 1))]
