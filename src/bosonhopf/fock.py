"""Truncated Fock-space matrix representations of the five algebra families.

Families and defining relations (g denotes the grade element, a diagonal
phase that anticommutes with both ladder operators):

  B      {a, ad} = alpha*N + beta,        [N, a] = -a, [N, ad] = ad
  Bbar   [a, ad]  = sigma*N + tau,        same N relations
  Bq     {a, ad} = [alpha*N + beta]_q,    same N relations
  Bbarq  [a, ad]  = [sigma*N + tau]_q,    same N relations
  H      [b, bd]  = delta + nu*K,         {K, b} = {K, bd} = 0,
         with M = bd*b/delta + nu*K/(2*delta) + rho satisfying [M, b] = -b.

Operators live on span{|0>, ..., |D-1>} with a hard cutoff: raising maps the
top level to zero.  Operator identities are therefore only asserted on
validity windows, subspaces low enough that no monomial of the identity
reaches the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .report import check_report
from .scalars import check_q, phase_pow, q_bracket
from .tensor import windowed_norm

FAMILIES = ("B", "Bbar", "Bq", "Bbarq", "H")

# Parameter names per family, in storage order.
PARAM_NAMES = {
    "B": ("alpha", "beta"),
    "Bbar": ("sigma", "tau"),
    "Bq": ("alpha", "beta", "q"),
    "Bbarq": ("sigma", "tau", "q"),
    "H": ("delta", "nu", "rho"),
}

DEFAULT_DIM = 16
DEFAULT_TOL = 1e-10


class SpecError(ValueError):
    """Invalid family/parameter combination."""


class RepresentationError(ValueError):
    """A representation cannot be built for the requested spec/mode."""


@dataclass(frozen=True)
class AlgebraSpec:
    """One algebra instance: family tag plus its real parameters."""

    family: str
    params: tuple
    unitary_mode: bool = True

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
        if self.unitary_mode and not self._unitary_positivity_ok():
            raise SpecError(
                f"unitary mode for {self.family}{self.params} violates the positivity "
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

    def _unitary_positivity_ok(self) -> bool:
        if self.family in ("B", "Bq"):
            return self.alpha > 0 and self.beta > 0
        if self.family in ("Bbar", "Bbarq"):
            return self.sigma >= 0 and self.tau >= 0
        return self.delta > 0 and self.nu > 0

    @property
    def grade_shift(self):
        """Exponent shift s such that the grade element is (-1)^(N + s).

        B/Bq: beta/alpha; Bbar/Bbarq: tau/sigma; H: the grade is
        (-1)^(M - rho + 1/2) with M acting as m + (nu-delta+1)/(2*delta) + rho,
        so s = (nu - delta + 1)/(2*delta) + 1/2.  None when the denominator
        vanishes (no grade element is available then).
        """
        if self.family in ("B", "Bq"):
            return self.beta / self.alpha if self.alpha != 0 else None
        if self.family in ("Bbar", "Bbarq"):
            return self.tau / self.sigma if self.sigma != 0 else None
        if self.delta == 0:
            return None
        return (self.nu - self.delta + 1.0) / (2.0 * self.delta) + 0.5

    @property
    def number_shift(self) -> float:
        """Offset of the number-like generator relative to the level index.

        Zero for the B-type families (N|n> = n|n>); for H the generator is M
        with M|m> = (m + (nu-delta+1)/(2*delta) + rho)|m>.
        """
        if self.family != "H":
            return 0.0
        if self.delta == 0:
            raise SpecError("H-family number operator M requires delta != 0")
        return (self.nu - self.delta + 1.0) / (2.0 * self.delta) + self.rho

    def describe(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in self.param_dict.items())
        return f"{self.family}({body})"


def weight(spec: AlgebraSpec, n: int) -> float:
    """Ladder weight w(n) with lowering |n> -> w(n)|n-1> (unnormalized basis).

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
class ValidityWindow:
    """Projector onto levels where an identity of given raising degree is exact."""

    raise_degree: int
    projector: np.ndarray = field(repr=False)


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
    weights: tuple = ()

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

    def generator_names(self, include_grade: bool = True) -> tuple:
        if self.spec.family == "H":
            names = ["M", "K", "b", "bd"]
        else:
            names = ["N", "a", "ad"]
        if include_grade and self.grade_plus is not None:
            names += ["g", "ginv"]
        return tuple(names)


def build_rep(spec: AlgebraSpec, dim: int = DEFAULT_DIM) -> FockRep:
    """Assemble the truncated matrices for one algebra instance.

    Unitary mode uses the normalized basis (lowering = sqrt(w(n)) shifts,
    raising its conjugate transpose); unnormalized mode puts the full weight
    on lowering and unit entries on raising.
    """
    if dim < 2:
        raise RepresentationError(f"need dim >= 2, got {dim}")
    ws = [0.0] + [weight(spec, n) for n in range(1, dim)]
    if spec.unitary_mode:
        for n in range(1, dim):
            if ws[n] < 0:
                raise RepresentationError(
                    f"unitary mode impossible for {spec.describe()}: weight({n}) = {ws[n]:g} < 0"
                )
    lowering = np.zeros((dim, dim), dtype=complex)
    raising = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        if spec.unitary_mode:
            c = np.sqrt(ws[n])
            lowering[n - 1, n] = c
            raising[n, n - 1] = c
        else:
            lowering[n - 1, n] = ws[n]
            raising[n, n - 1] = 1.0
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
        if spec.nu == 0:
            raise RepresentationError(
                "H-family Fock action of K divides by nu; nu = 0 has no Fock representation here"
            )
        k_diag = (spec.nu - spec.delta + 1.0) / spec.nu * (-1.0) ** np.arange(dim)
        k_op = np.diag(k_diag.astype(complex))

    return FockRep(spec=spec, dim=dim, lowering=lowering, raising=raising,
                   number=number, grade_plus=grade_plus, grade_minus=grade_minus,
                   k_op=k_op, weights=tuple(ws))


def validity_window(rep: FockRep, raise_degree: int) -> ValidityWindow:
    """Projector onto levels 0 .. D-1-raise_degree.

    An identity whose monomials contain at most raise_degree raising
    generators holds exactly on this subspace of the truncated rep.
    """
    if not 0 <= raise_degree < rep.dim:
        raise ValueError(f"raise_degree must lie in [0, {rep.dim}), got {raise_degree}")
    diag = np.zeros(rep.dim)
    diag[: rep.dim - raise_degree] = 1.0
    return ValidityWindow(raise_degree=raise_degree, projector=np.diag(diag.astype(complex)))


def comm(x, y):
    return x @ y - y @ x


def acomm(x, y):
    return x @ y + y @ x


def diag_function(values_fn, diag_source: np.ndarray) -> np.ndarray:
    """Entrywise functional calculus on a diagonal matrix; rejects non-diagonal input."""
    off = diag_source - np.diag(np.diag(diag_source))
    if np.abs(off).max() > 1e-12:
        raise ValueError("functional calculus requires a diagonal operator")
    return np.diag(np.array([values_fn(v) for v in np.diag(diag_source)], dtype=complex))


def relation_residuals(spec: AlgebraSpec, gens: dict, anti: bool = False) -> list:
    """Defining-relation residual matrices evaluated on arbitrary generator images.

    ``gens`` maps generator names to square matrices of a common size (any
    site count); "I" must be present.  With ``anti`` the products are
    reversed, which is the form the relations take after an anti-homomorphism
    such as the antipode.  Grade relations are included only when "g" is
    present.  Returns (identity id, reference, residual matrix, raise degree,
    scale); residual norms are reported relative to max(1, scale) because
    q-bracket entries grow exponentially with the level and double precision
    cannot deliver small absolute residuals against huge operands.
    """
    eye = gens["I"]

    def nrm(x):
        return float(np.linalg.norm(x, 2))

    def mul(x, y):
        return y @ x if anti else x @ y

    def cm(x, y):
        return mul(x, y) - mul(y, x)

    def ac(x, y):
        return mul(x, y) + mul(y, x)

    fam = spec.family
    out = []

    def add(ident, ref, mat, deg, scale=1.0):
        out.append((ident, ref, mat, deg, max(1.0, scale)))

    if fam == "H":
        b, bd, m, k = gens["b"], gens["bd"], gens["M"], gens["K"]
        d, nu = spec.delta, spec.nu
        add("H.ladder", "[b,bd] = delta + nu*K", cm(b, bd) - d * eye - nu * k,
            1, nrm(mul(b, bd)))
        add("H.reflection-low", "{K,b} = 0", ac(k, b), 0, nrm(mul(k, b)))
        add("H.reflection-raise", "{K,bd} = 0", ac(k, bd), 1, nrm(mul(k, bd)))
        add("H.number-low", "[M,b] = -b", cm(m, b) + b, 0, nrm(mul(m, b)))
        add("H.number-raise", "[M,bd] = bd", cm(m, bd) - bd, 1, nrm(mul(m, bd)))
        add("H.reflection-number", "[K,M] = 0", cm(k, m), 0, nrm(mul(k, m)))
    else:
        a, ad, n = gens["a"], gens["ad"], gens["N"]
        if fam in ("B", "Bq"):
            c1, c2 = spec.alpha, spec.beta
            bracket, label = ac, "{a,ad}"
        else:
            c1, c2 = spec.sigma, spec.tau
            bracket, label = cm, "[a,ad]"
        if spec.is_deformed:
            rhs = diag_function(lambda v: q_bracket(c1 * v + c2, spec.q), n)
            ref = f"{label} = [{c1:g}*N + {c2:g}]_q"
        else:
            rhs = c1 * n + c2 * eye
            ref = f"{label} = {c1:g}*N + {c2:g}"
        add(f"{fam}.ladder", ref, bracket(a, ad) - rhs, 1, nrm(rhs))
        add(f"{fam}.number-low", "[N,a] = -a", cm(n, a) + a, 0, nrm(mul(n, a)))
        add(f"{fam}.number-raise", "[N,ad] = ad", cm(n, ad) - ad, 1, nrm(mul(n, ad)))
    if "g" in gens:
        g = gens["g"]
        lo, ra = ("b", "bd") if fam == "H" else ("a", "ad")
        add(f"{fam}.grade-low", f"{{g,{lo}}} = 0", ac(g, gens[lo]), 0, nrm(gens[lo]))
        add(f"{fam}.grade-raise", f"{{g,{ra}}} = 0", ac(g, gens[ra]), 1, nrm(gens[ra]))
        num = gens["M"] if fam == "H" else gens["N"]
        add(f"{fam}.grade-number", "[g,N] = 0", cm(g, num), 0, nrm(num))
        if "ginv" in gens:
            add(f"{fam}.grade-inverse", "g * g^-1 = I", mul(g, gens["ginv"]) - eye, 0)
        if fam == "H":
            add("H.grade-reflection", "[g,K] = 0", cm(g, gens["K"]), 0, nrm(gens["K"]))
    return out


def rep_generator_images(rep: FockRep) -> dict:
    gens = {name: rep.generator(name) for name in rep.generator_names()}
    gens["I"] = rep.identity
    return gens


def check_defining_relations(rep: FockRep, tol: float = DEFAULT_TOL):
    """Windowed residual of every defining relation; failures are reported, not raised."""
    reports = []
    for ident_id, ref, residual_mat, degree, scale in relation_residuals(
            rep.spec, rep_generator_images(rep)):
        window = validity_window(rep, degree)
        res = windowed_norm(residual_mat, window.projector) / scale
        reports.append(check_report(rep.spec, rep.dim, f"relations.{ident_id}",
                                    ref, res, tol, degree))
    return reports
