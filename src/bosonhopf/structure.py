"""Distinguished elements, embedded realizations, Casimir spectra and the
boson <-> Heisenberg generator maps.

The graded family carries a grade-odd element L (plus its extension by the
grade element) whose square is central; the reflection family carries the
number element M rebuilt from K.  Both give rise to closed coproduct forms,
a characteristic polynomial identity, classical and deformed (super)algebra
realizations with computable Casimir spectra, and a pair of mutually
inverse generator maps between the two families that exist exactly when
alpha = 2*delta.  Every norm is taken on level sectors by the tensor
module's one kernel; the coproduct of L+ is a sum of Sweedler terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (AlgebraSpec, DEFAULT_TOL, FockRep, SpecError, acomm,
                   comm, diag_function, relation_residuals)
from .hopf import Atom, HopfTables, Term, terms_operator
from .report import CheckReport, windowed_row
from .scalars import q_bracket
from .tensor import level_sectors, spectral_norm

# The structure element's coefficients in the structure and iso suites: L+
# is lam1 L + lam4 g.
LAM1 = 1.0
LAM4 = 0.5


@dataclass(frozen=True)
class StructureElement:
    coefficients: tuple
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RealizationMap:
    target: str                   # "osp12", "sl2", "slq2", "ospq12"
    generator_images: dict = field(repr=False)
    normalization: float


def _norm(rep: FockRep, mat) -> float:
    """Spectral norm of a one-site operator of ``rep``, on its level sectors."""
    return spectral_norm(mat, sectors=level_sectors(rep.dim, 1))


# -- the grade-odd element L --------------------------------------------------

def solve_lambda_constraints(alpha: float, beta: float, lam1: float):
    """The linear system fixing lam2, lam3 from lam1 for the grade-odd element."""
    lam2 = -alpha * lam1 / 2.0
    lam3 = lam1 * (alpha - 2.0 * beta) / 4.0
    return lam2, lam3


def build_L(rep: FockRep, lam1: float, lam4: float = 0.0) -> StructureElement:
    """lam1*(ad a - (alpha/2) N + (alpha/4 - beta/2) I) + lam4 * g.

    Grade-odd for any coefficients satisfying the lambda constraints; acts
    diagonally as (lam1(alpha/4 - beta/2) + lam4*(-1)^(beta/alpha))(-1)^n.
    """
    if rep.spec.family not in ("B",):
        raise SpecError("the grade-odd element lives on the undeformed graded family")
    if lam1 == 0 and lam4 == 0:
        raise SpecError("the zero element is excluded; give a nonzero lambda")
    spec = rep.spec
    lam2, lam3 = solve_lambda_constraints(spec.alpha, spec.beta, lam1)
    mat = (lam1 * rep.raising @ rep.lowering
           + lam2 * rep.number + lam3 * rep.identity).astype(complex)
    if lam4 != 0.0:
        mat = mat + lam4 * rep.grade_plus
    return StructureElement(coefficients=(lam1, lam2, lam3, lam4), matrix=mat)


def check_L_properties(elem: StructureElement, rep: FockRep,
                       tables: HopfTables, tol: float = DEFAULT_TOL) -> list:
    """Anticommutators with the ladder, the closed coproduct form, S and eps."""
    lam1, lam2, lam3, lam4 = elem.coefficients
    spec = rep.spec
    alpha, beta = spec.alpha, spec.beta
    out = []
    for name, ident in (("a", "structure.anticommute.low"),
                        ("ad", "structure.anticommute.raise")):
        gen = rep.generator(name)
        out.append(windowed_row(spec, rep.dim, ident, "{L,a} = {L,ad} = 0",
                                acomm(elem.matrix, gen), tol, 1, _norm(rep, elem.matrix @ gen)))

    # Delta(L+) homomorphically from the generators' coproducts, against its
    # closed form as a Sweedler sum: both are two-site sector operators
    dim = rep.dim
    delta = {name: tables.delta_image(name) for name in ("a", "ad", "N", "g")}
    one = terms_operator([Term(1.0, ((), ()))], dim)
    hom = (lam1 * delta["ad"] @ delta["a"] + lam2 * delta["N"] + lam3 * one
           + lam4 * delta["g"])
    g, ginv, a, ad = (tables.atom(name) for name in ("g", "ginv", "a", "ad"))
    l0 = Atom("L0", elem.matrix - lam4 * rep.grade_plus)   # the lam4-free part
    closed = terms_operator([
        Term(1.0, ((l0,), ())), Term(1.0, ((), (l0,))), Term(-lam1 * alpha / 4.0, ((), ())),
        Term(lam4, ((g,), (g,))), Term(-lam1, ((g, ad), (a,))), Term(lam1, ((ginv, a), (ad,)))],
        dim)
    out.append(windowed_row(spec, dim, "structure.delta-closed-form",
                            "homomorphic Delta(L+) matches its closed form",
                            hom - closed, tol, 1, closed))

    # S(L+) = L+ (anti-homomorphic image) and eps(L+) = lam1*alpha/4 + lam4
    s_img = (lam1 * tables.antipode("a") @ tables.antipode("ad")
             + lam2 * tables.antipode("N") + lam3 * rep.identity
             + lam4 * tables.antipode("g"))
    eps = (lam1 * tables.counit("a") * tables.counit("ad")
           + lam2 * tables.counit("N") + lam3 + lam4 * tables.counit("g"))
    eps_expected = lam1 * alpha / 4.0 + lam4
    out.append(windowed_row(spec, rep.dim, "structure.antipode-fixed",
                            "S(L+) = L+ and eps(L+) = lam1*alpha/4 + lam4",
                            (s_img - elem.matrix, abs(eps - eps_expected)), tol, 1,
                            _norm(rep, elem.matrix)))
    return out


def characteristic_identity_residual(rep: FockRep, lam1: float,
                                     tol: float = DEFAULT_TOL) -> CheckReport:
    """C (C + (alpha/2 - beta) I) + (alpha/4 - beta/2)^2 I = (eta/lam1^2) I.

    C = ad a - (alpha/2) N.  eta is not free: it is the square of the
    diagonal eigenvalue of the grade-odd element, eta/lam1^2 =
    (alpha/4 - beta/2)^2.
    """
    if lam1 == 0:
        raise SpecError("the characteristic identity needs lam1 != 0")
    spec = rep.spec
    alpha, beta = spec.alpha, spec.beta
    c_mat = rep.raising @ rep.lowering - (alpha / 2.0) * rep.number
    eta_over = (alpha / 4.0 - beta / 2.0) ** 2
    lhs = (c_mat @ (c_mat + (alpha / 2.0 - beta) * rep.identity)
           + (alpha / 4.0 - beta / 2.0) ** 2 * rep.identity)
    return windowed_row(spec, rep.dim, "structure.characteristic",
                        "C(C + (alpha/2-beta)) + (alpha/4-beta/2)^2 = eta/lam1^2",
                        lhs - eta_over * rep.identity, tol, 1, _norm(rep, lhs),
                        branch_note={"eta_over_lam1_sq": eta_over})


def bh_form_check(rep: FockRep, lam1: float, tol: float = DEFAULT_TOL) -> CheckReport:
    """[a, ad] = -(2/lam1) L + (alpha/2) I, with L rebuilt from lam1."""
    if lam1 == 0:
        raise SpecError("need lam1 != 0")
    elem = build_L(rep, lam1, 0.0)
    lhs = comm(rep.lowering, rep.raising)
    rhs = -(2.0 / lam1) * elem.matrix + (rep.spec.alpha / 2.0) * rep.identity
    return windowed_row(rep.spec, rep.dim, "structure.bh-form",
                        "[a,ad] = -(2/lam1) L + alpha/2", lhs - rhs, tol, 1, _norm(rep, rhs))


# -- the reflection-family number element M -----------------------------------

def _m_element(rep: FockRep) -> StructureElement:
    """(1/delta) bd b + (nu/(2 delta)) K + rho I on a reflection-family rep."""
    spec = rep.spec
    if spec.family != "H":
        raise SpecError("the rebuilt number element lives on the reflection family")
    coefficients = (1.0 / spec.delta, spec.nu / (2.0 * spec.delta), spec.rho)
    mat = (coefficients[0] * rep.raising @ rep.lowering
           + coefficients[1] * rep.k_op + spec.rho * rep.identity).astype(complex)
    return StructureElement(coefficients=coefficients, matrix=mat)


def build_M(rep: FockRep, tol: float = DEFAULT_TOL) -> tuple:
    """M (:func:`_m_element`) with its two number-ladder reports.

    Returns (StructureElement, [CheckReport, CheckReport]).
    """
    elem = _m_element(rep)
    mat = elem.matrix
    reports = []
    for gen_name, sign, ident in (("b", +1, "structure.m-element.low"),
                                  ("bd", -1, "structure.m-element.raise")):
        gen = rep.generator(gen_name)
        reports.append(windowed_row(rep.spec, rep.dim, ident, "[M,b] = -b, [M,bd] = bd",
                                    comm(mat, gen) + sign * gen, tol,
                                    1 if gen_name == "bd" else 0, _norm(rep, mat @ gen)))
    return elem, reports


def com_check(rep: FockRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """{b, bd} = 2 delta M + delta (1 - 2 rho) I."""
    spec = rep.spec
    lhs = acomm(rep.lowering, rep.raising)
    rhs = (2.0 * spec.delta * _m_element(rep).matrix
           + spec.delta * (1.0 - 2.0 * spec.rho) * rep.identity)
    return windowed_row(spec, rep.dim, "structure.com",
                        "{b,bd} = 2*delta*M + delta*(1-2*rho)", lhs - rhs, tol, 1,
                        _norm(rep, rhs))


# -- embedded realizations ----------------------------------------------------

def _split(product: float):
    """Symmetric square-root split of a product constraint, sign on the f side."""
    mag = math.sqrt(abs(product))
    return mag, math.copysign(mag, product) if product >= 0 else -mag


def build_realization(rep: FockRep, target: str) -> RealizationMap:
    """Images of the target (super)algebra generators inside the rep.

    osp12 from the graded or reflection family, sl2 from any undeformed
    family, ospq12/slq2 from the matching deformed family.  Only the product
    of the two normalization constants is constrained; the split is the
    symmetric square root with the sign carried by f.
    """
    spec = rep.spec
    fam = spec.family
    eye = rep.identity
    if target == "osp12" and fam == "B":
        prod = 2.0 / spec.alpha
        mu, lam = _split(prod)
        images = {"e": mu * rep.raising, "f": lam * rep.lowering,
                  "h": 2.0 * rep.number + (2.0 * spec.beta / spec.alpha) * eye}
    elif target == "osp12" and fam == "H":
        prod = 1.0 / spec.delta
        mu, lam = _split(prod)
        images = {"e": mu * rep.raising, "f": lam * rep.lowering,
                  "h": (spec.nu / spec.delta) * rep.k_op
                  + (2.0 / spec.delta) * rep.raising @ rep.lowering + eye}
    elif target == "sl2" and fam == "B":
        base = build_realization(rep, "osp12")
        mup, lamp = _split(-0.25)
        e2 = mup * base.generator_images["e"] @ base.generator_images["e"]
        f2 = lamp * base.generator_images["f"] @ base.generator_images["f"]
        hp = 0.5 * base.generator_images["h"]
        images = {"e": e2, "f": f2, "h": hp,
                  "J0": 0.5 * hp,
                  "Jplus": (1j / math.sqrt(2.0)) * e2,
                  "Jminus": (1j / math.sqrt(2.0)) * f2}
        prod = -0.25
    elif target == "sl2" and fam == "H":
        prod = -1.0 / (4.0 * spec.delta ** 2)
        mup, lamp = _split(prod)
        images = {"e": mup * rep.raising @ rep.raising,
                  "f": lamp * rep.lowering @ rep.lowering,
                  "h": (spec.nu / (2.0 * spec.delta)) * rep.k_op
                  + (1.0 / spec.delta) * rep.raising @ rep.lowering + 0.5 * eye}
    elif target == "sl2" and fam == "Bbar":
        if spec.sigma == 0:
            raise SpecError("the subalgebra embedding needs sigma != 0")
        prod = -2.0 / spec.sigma
        xi, zeta = _split(prod)
        images = {"e": xi * rep.raising, "f": zeta * rep.lowering,
                  "h": 2.0 * rep.number + (2.0 * spec.tau / spec.sigma) * eye}
    elif target == "ospq12" and fam == "Bq":
        prod = 1.0 / q_bracket(spec.alpha, spec.q).real
        mu, lam = _split(prod)
        images = {"e": mu * rep.raising, "f": lam * rep.lowering,
                  "h": rep.number + (spec.beta / spec.alpha) * eye}
    elif target == "slq2" and fam == "Bbarq":
        # only the reciprocal satisfies [e,f] = [h]_{q^(sigma/2)}; verified
        # by expanding [h]_{q'} = [sigma N + tau]_q / [sigma/2]_q
        prod = -1.0 / q_bracket(spec.sigma / 2.0, spec.q).real
        xi, zeta = _split(prod)
        images = {"e": xi * rep.raising, "f": zeta * rep.lowering,
                  "h": 2.0 * rep.number + (2.0 * spec.tau / spec.sigma) * eye}
    else:
        raise SpecError(f"no {target} embedding from family {fam}")
    return RealizationMap(target=target, generator_images=images,
                          normalization=prod)


def check_realization(realization: RealizationMap, rep: FockRep,
                      tol: float = DEFAULT_TOL) -> list:
    """The target algebra's defining relations on the embedded generators."""
    spec = rep.spec
    imgs = realization.generator_images
    e, f, h = imgs["e"], imgs["f"], imgs["h"]
    target = realization.target
    pairs = []
    if target in ("osp12", "ospq12"):
        if target == "osp12":
            pairs.append(("ef", "{e,f} = h", acomm(e, f) - h, 1))
            step = 2.0 if spec.family in ("B", "H") else 1.0
        else:
            qprime = spec.q ** spec.alpha
            rhs = diag_function(lambda v: q_bracket(v, qprime), h)
            pairs.append(("ef", "{e,f} = [h]_q'", acomm(e, f) - rhs, 1))
            step = 1.0
        pairs.append(("he", f"[h,e] = {step:g}*e", comm(h, e) - step * e, 1))
        pairs.append(("hf", f"[h,f] = -{step:g}*f", comm(h, f) + step * f, 0))
    else:
        if target == "slq2":
            qprime = spec.q ** (spec.sigma / 2.0)
            rhs = diag_function(lambda v: q_bracket(v, qprime), h)
            pairs.append(("ef", "[e,f] = [h]_q'", comm(e, f) - rhs, 2))
        else:
            pairs.append(("ef", "[e,f] = h", comm(e, f) - h, 2))
        pairs.append(("he", "[h,e] = 2e", comm(h, e) - 2.0 * e, 2))
        pairs.append(("hf", "[h,f] = -2f", comm(h, f) + 2.0 * f, 0))
    scale = max(_norm(rep, e @ f), _norm(rep, h))
    return [windowed_row(spec, rep.dim, f"structure.realization.{target}.{tag}", ref,
                         mat, tol, deg, scale)
            for tag, ref, mat, deg in pairs]


def casimir_spectrum(realization: RealizationMap, rep: FockRep,
                     which: str, tol: float = DEFAULT_TOL) -> CheckReport:
    """Casimir of the embedded algebra against its closed-form spectrum.

    which = "osp_i2": I2 = -e^2 f^2/4 - ef/4 + h^2/16 - h/8 is the constant
    beta^2/(4 alpha^2) - beta/(4 alpha).
    which = "sl2_c2": C2 = 2 J- J+ - J0^2 - J0 is constant on each parity
    sector with c_even = -beta^2/(4 alpha^2) + beta/(2 alpha) and
    c_odd = 1/4 - beta^2/(4 alpha^2).
    """
    spec = rep.spec
    if spec.family != "B":
        raise SpecError("closed-form Casimir spectra are for the undeformed graded family")
    alpha, beta = spec.alpha, spec.beta
    imgs = realization.generator_images
    if which == "osp_i2":
        e, f, h = imgs["e"], imgs["f"], imgs["h"]
        cas = (-0.25 * e @ e @ f @ f - 0.25 * e @ f
               + (1.0 / 16.0) * h @ h - 0.125 * h)
        i2 = beta ** 2 / (4.0 * alpha ** 2) - beta / (4.0 * alpha)
        degree = 0
        target = i2 * np.ones(rep.dim)
        note = {"i2": i2}
    elif which == "sl2_c2":
        j0, jp, jm = imgs["J0"], imgs["Jplus"], imgs["Jminus"]
        cas = 2.0 * jm @ jp - j0 @ j0 - j0
        c_even = -beta ** 2 / (4.0 * alpha ** 2) + beta / (2.0 * alpha)
        c_odd = 0.25 - beta ** 2 / (4.0 * alpha ** 2)
        degree = 2
        target = np.where(rep.levels % 2 == 0, c_even, c_odd)
        note = {"c_even": c_even, "c_odd": c_odd}
    else:
        raise SpecError(f"unknown Casimir selector {which!r}")
    # the diagonal against the target, the off-diagonal part against zero and
    # (sl2) the closed-form parity formula against the sector values
    diag = np.diag(cas)
    residuals = (np.diag(diag - target), cas - np.diag(diag))
    if which == "sl2_c2":
        formula = (0.5 - beta / (2.0 * alpha) - beta ** 2 / (4.0 * alpha ** 2)
                   + (2.0 * beta - alpha) / (8.0 * alpha)
                   * (3.0 + (-1.0) ** rep.levels))
        residuals += (np.diag(formula - target),)
    ident = "structure.casimir-osp" if which == "osp_i2" else "structure.casimir-sl2"
    ref = ("osp quadratic Casimir equals its constant closed form"
           if which == "osp_i2" else
           "sl2 Casimir is parity-sector constant, matching the closed forms")
    return windowed_row(spec, rep.dim, ident, ref, residuals, tol, degree,
                        branch_note=note)


# -- the boson <-> Heisenberg generator maps ----------------------------------

def phi_images(b_spec: AlgebraSpec, h_rep: FockRep) -> dict:
    """Images of the graded-family generators inside a reflection-family rep."""
    h_spec = h_rep.spec
    alpha, beta = b_spec.alpha, b_spec.beta
    eye = h_rep.identity
    n_img = ((2.0 / alpha) * h_rep.raising @ h_rep.lowering
             + (h_spec.nu / alpha) * h_rep.k_op
             + ((h_spec.delta - beta) / alpha) * eye)
    return {"a": h_rep.lowering, "ad": h_rep.raising, "N": n_img, "I": eye}


def phi_prime_images(h_spec: AlgebraSpec, b_rep: FockRep) -> dict:
    """Images of the reflection-family generators inside a graded-family rep."""
    b_spec = b_rep.spec
    delta, nu, rho = h_spec.delta, h_spec.nu, h_spec.rho
    eye = b_rep.identity
    k_img = (-(2.0 / nu) * b_rep.raising @ b_rep.lowering
             + (b_spec.alpha / nu) * b_rep.number
             + ((b_spec.beta - delta) / nu) * eye)
    m_img = ((1.0 / delta) * b_rep.raising @ b_rep.lowering
             + (nu / (2.0 * delta)) * k_img + rho * eye)
    return {"b": b_rep.lowering, "bd": b_rep.raising, "K": k_img,
            "M": m_img, "I": eye}


def iso_phi(b_spec: AlgebraSpec, h_rep: FockRep, tol: float = DEFAULT_TOL) -> list:
    """Graded-family relations on the forward-map images, plus the L image.

    Passes exactly when alpha = 2*delta; a mismatched pair yields a
    quantified nonzero residual.
    """
    h_spec = h_rep.spec
    gens = phi_images(b_spec, h_rep)
    out = []
    for ident, ref, mat, deg, scale in relation_residuals(
            b_spec, gens, level_sectors(h_rep.dim, 1)):
        out.append(windowed_row(h_spec, h_rep.dim, f"iso.phi.{ident}",
                                f"phi preserves {ref}", mat, tol, deg, scale))
    # the grade-odd element maps onto the reflection generator
    lam2, lam3 = solve_lambda_constraints(b_spec.alpha, b_spec.beta, LAM1)
    l_img = (LAM1 * gens["ad"] @ gens["a"] + lam2 * gens["N"]
             + lam3 * gens["I"])
    target = -(LAM1 * h_spec.nu / 2.0) * h_rep.k_op
    out.append(windowed_row(h_spec, h_rep.dim, "iso.phi-L", "phi(L) = -(lam1*nu/2) K",
                            l_img - target, tol, 1, _norm(h_rep, target)))
    return out


def iso_phi_prime(h_spec: AlgebraSpec, b_rep: FockRep,
                  tol: float = DEFAULT_TOL) -> list:
    """Reflection-family relations on the inverse-map images, the M image,
    and the round trip back to the graded generators."""
    b_spec = b_rep.spec
    gens = phi_prime_images(h_spec, b_rep)
    out = []
    for ident, ref, mat, deg, scale in relation_residuals(
            h_spec, gens, level_sectors(b_rep.dim, 1)):
        out.append(windowed_row(b_spec, b_rep.dim, f"iso.phi-prime.{ident}",
                                f"phi' preserves {ref}", mat, tol, deg, scale))
    # phi'(M) = N + (beta - delta)/(2 delta) + rho
    target = (b_rep.number + ((b_spec.beta - h_spec.delta)
                              / (2.0 * h_spec.delta) + h_spec.rho) * b_rep.identity)
    out.append(windowed_row(b_spec, b_rep.dim, "iso.phi-prime-M",
                            "phi'(M) = N + (beta-delta)/(2 delta) + rho",
                            gens["M"] - target, tol, 1, _norm(b_rep, target)))
    # round trip: the forward number image evaluated on the inverse images
    # must reproduce the number operator
    alpha, beta = b_spec.alpha, b_spec.beta
    rt = ((2.0 / alpha) * gens["bd"] @ gens["b"]
          + (h_spec.nu / alpha) * gens["K"]
          + ((h_spec.delta - beta) / alpha) * b_rep.identity)
    out.append(windowed_row(b_spec, b_rep.dim, "iso.roundtrip",
                            "phi' after phi fixes every generator", rt - b_rep.number,
                            tol, 1, _norm(b_rep, b_rep.number)))
    return out


def run_structure_checks(rep: FockRep, tables: HopfTables | None = None,
                         tol: float = DEFAULT_TOL) -> list:
    """The family-appropriate structure suite for one rep, with L+ = LAM1 L + LAM4 g."""
    spec = rep.spec
    out = []
    if spec.family == "B":
        # S(g) = g^-1, so the grade extension is antipode-fixed only
        # when the grade squares to the identity
        lam4 = LAM4 if spec.integer_grade_shift else 0.0
        elem = build_L(rep, LAM1, lam4)
        if tables is not None:
            out.extend(check_L_properties(elem, rep, tables, tol))
        out.append(characteristic_identity_residual(rep, LAM1, tol))
        out.append(bh_form_check(rep, LAM1, tol))
        osp = build_realization(rep, "osp12")
        out.extend(check_realization(osp, rep, tol))
        out.append(casimir_spectrum(osp, rep, "osp_i2", tol))
        sl2 = build_realization(rep, "sl2")
        out.extend(check_realization(sl2, rep, tol))
        out.append(casimir_spectrum(sl2, rep, "sl2_c2", tol))
    elif spec.family == "H":
        _, reports = build_M(rep, tol=tol)
        out.extend(reports)
        out.append(com_check(rep, tol))
        osp = build_realization(rep, "osp12")
        out.extend(check_realization(osp, rep, tol))
        sl2 = build_realization(rep, "sl2")
        out.extend(check_realization(sl2, rep, tol))
    elif spec.family == "Bbar":
        if spec.sigma != 0:
            sl2 = build_realization(rep, "sl2")
            out.extend(check_realization(sl2, rep, tol))
    elif spec.family == "Bq":
        osp = build_realization(rep, "ospq12")
        out.extend(check_realization(osp, rep, tol))
    elif spec.family == "Bbarq":
        sl2 = build_realization(rep, "slq2")
        out.extend(check_realization(sl2, rep, tol))
    return out
