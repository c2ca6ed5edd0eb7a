"""Distinguished elements, embedded realizations, Casimir spectra and the
boson <-> Heisenberg generator maps.

The graded family carries a grade-odd element L (plus its extension by the
grade element) whose square is central; the reflection family carries the
number element M rebuilt from K.  Both give rise to closed coproduct forms,
a characteristic polynomial identity, classical and deformed (super)algebra
realizations with computable Casimir spectra, and a pair of mutually
inverse generator maps between the two families that exist exactly when
alpha = 2*delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (AlgebraSpec, DEFAULT_TOL, FockRep, SpecError, acomm,
                   comm, diag_function, relation_residuals, validity_window)
from .hopf import HopfTables
from .report import CheckReport, check_report
from .scalars import q_bracket
from .tensor import kron, total_window_projector, windowed_norm


@dataclass(frozen=True)
class StructureElement:
    kind: str                     # "L", "Lplus" or "M"
    coefficients: tuple
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class RealizationMap:
    target: str                   # "osp12", "sl2", "slq2", "ospq12"
    generator_images: dict = field(repr=False)
    normalization: float


def _windowed(rep: FockRep, mat: np.ndarray, degree: int, scale: float = 1.0) -> float:
    proj = validity_window(rep, degree).projector
    return windowed_norm(mat, proj) / max(1.0, scale)


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
    kind = "L"
    if lam4 != 0.0:
        mat = mat + lam4 * rep.grade_plus
        kind = "Lplus"
    return StructureElement(kind=kind, coefficients=(lam1, lam2, lam3, lam4),
                            matrix=mat)


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
        res = _windowed(rep, acomm(elem.matrix, gen), 1,
                        float(np.linalg.norm(elem.matrix @ gen, 2)))
        out.append(check_report(spec, rep.dim, ident, "{L,a} = {L,ad} = 0",
                                res, tol, 1))

    # coproduct of the element, computed homomorphically from the generator
    # coproduct matrices, against its closed form
    da = tables.delta_matrix("a")
    dad = tables.delta_matrix("ad")
    dn = tables.delta_matrix("N")
    dg = tables.delta_matrix("g")
    eye2 = np.eye(rep.dim ** 2)
    hom = lam1 * dad @ da + lam2 * dn + lam3 * eye2 + lam4 * dg
    lmat0 = elem.matrix - lam4 * rep.grade_plus   # the lam4-free part
    closed = (kron(lmat0, rep.identity) + kron(rep.identity, lmat0)
              - lam1 * (alpha / 4.0) * eye2
              + lam4 * kron(rep.grade_plus, rep.grade_plus)
              - lam1 * (kron(rep.grade_plus @ rep.raising, rep.lowering)
                        - kron(rep.grade_minus @ rep.lowering, rep.raising)))
    proj = total_window_projector(rep.dim, 2, 1)
    scale = max(1.0, windowed_norm(closed, proj))
    res = windowed_norm(hom - closed, proj) / scale
    out.append(check_report(spec, rep.dim, "structure.delta-closed-form",
                            "homomorphic Delta(L+) matches its closed form",
                            res, tol, 1))

    # S(L+) = L+ (anti-homomorphic image) and eps(L+) = lam1*alpha/4 + lam4
    s_img = (lam1 * tables.antipode("a") @ tables.antipode("ad")
             + lam2 * tables.antipode("N") + lam3 * rep.identity
             + lam4 * tables.antipode("g"))
    res_s = _windowed(rep, s_img - elem.matrix, 1,
                      float(np.linalg.norm(elem.matrix, 2)))
    eps = (lam1 * tables.counit("a") * tables.counit("ad")
           + lam2 * tables.counit("N") + lam3 + lam4 * tables.counit("g"))
    eps_expected = lam1 * alpha / 4.0 + lam4
    res_eps = abs(eps - eps_expected)
    out.append(check_report(spec, rep.dim, "structure.antipode-fixed",
                            "S(L+) = L+ and eps(L+) = lam1*alpha/4 + lam4",
                            max(res_s, res_eps), tol, 1))
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
    res = _windowed(rep, lhs - eta_over * rep.identity, 1,
                    float(np.linalg.norm(lhs, 2)))
    return check_report(spec, rep.dim, "structure.characteristic",
                        "C(C + (alpha/2-beta)) + (alpha/4-beta/2)^2 = eta/lam1^2",
                        res, tol, 1, branch_note={"eta_over_lam1_sq": eta_over})


def bh_form_check(rep: FockRep, lam1: float, tol: float = DEFAULT_TOL) -> CheckReport:
    """[a, ad] = -(2/lam1) L + (alpha/2) I, with L rebuilt from lam1."""
    if lam1 == 0:
        raise SpecError("need lam1 != 0")
    if rep.spec.alpha == 0:
        raise SpecError("the commutator form needs alpha != 0 (the element "
                        "contains no number-operator monomial otherwise)")
    elem = build_L(rep, lam1, 0.0)
    lhs = comm(rep.lowering, rep.raising)
    rhs = -(2.0 / lam1) * elem.matrix + (rep.spec.alpha / 2.0) * rep.identity
    res = _windowed(rep, lhs - rhs, 1, float(np.linalg.norm(rhs, 2)))
    return check_report(rep.spec, rep.dim, "structure.bh-form",
                        "[a,ad] = -(2/lam1) L + alpha/2", res, tol, 1)


# -- the reflection-family number element M -----------------------------------

def build_M(rep: FockRep, rho: float | None = None,
            tol: float = DEFAULT_TOL) -> tuple:
    """(1/delta) bd b + (nu/(2 delta)) K + rho I, with its ladder reports.

    Returns (StructureElement, [CheckReport, CheckReport]) for the two
    number-ladder relations.
    """
    spec = rep.spec
    if spec.family != "H":
        raise SpecError("the rebuilt number element lives on the reflection family")
    if spec.delta == 0:
        raise SpecError("no number element exists for delta = 0")
    if rho is None:
        rho = spec.rho
    mat = ((1.0 / spec.delta) * rep.raising @ rep.lowering
           + (spec.nu / (2.0 * spec.delta)) * rep.k_op
           + rho * rep.identity).astype(complex)
    elem = StructureElement(kind="M", coefficients=(1.0 / spec.delta,
                                                    spec.nu / (2.0 * spec.delta), rho),
                            matrix=mat)
    reports = []
    for gen_name, sign, ident in (("b", +1, "structure.m-element.low"),
                                  ("bd", -1, "structure.m-element.raise")):
        gen = rep.generator(gen_name)
        res_mat = comm(mat, gen) + sign * gen
        deg = 1 if gen_name == "bd" else 0
        res = _windowed(rep, res_mat, deg, float(np.linalg.norm(mat @ gen, 2)))
        reports.append(check_report(spec, rep.dim, ident,
                                    "[M,b] = -b, [M,bd] = bd", res, tol, deg))
    return elem, reports


def com_check(rep: FockRep, tol: float = DEFAULT_TOL) -> CheckReport:
    """{b, bd} = 2 delta M + delta (1 - 2 rho) I."""
    spec = rep.spec
    elem, _ = build_M(rep)
    lhs = acomm(rep.lowering, rep.raising)
    rhs = (2.0 * spec.delta * elem.matrix
           + spec.delta * (1.0 - 2.0 * spec.rho) * rep.identity)
    res = _windowed(rep, lhs - rhs, 1, float(np.linalg.norm(rhs, 2)))
    return check_report(spec, rep.dim, "structure.com",
                        "{b,bd} = 2*delta*M + delta*(1-2*rho)", res, tol, 1)


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
        if spec.alpha == 0:
            raise SpecError("the superalgebra embedding needs alpha != 0")
        prod = 2.0 / spec.alpha
        mu, lam = _split(prod)
        images = {"e": mu * rep.raising, "f": lam * rep.lowering,
                  "h": 2.0 * rep.number + (2.0 * spec.beta / spec.alpha) * eye}
    elif target == "osp12" and fam == "H":
        if spec.delta == 0:
            raise SpecError("the superalgebra embedding needs delta != 0")
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
        if spec.delta == 0:
            raise SpecError("the subalgebra embedding needs delta != 0")
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
        if spec.alpha == 0:
            raise SpecError("the deformed superalgebra embedding needs alpha != 0")
        prod = 1.0 / q_bracket(spec.alpha, spec.q).real
        mu, lam = _split(prod)
        images = {"e": mu * rep.raising, "f": lam * rep.lowering,
                  "h": rep.number + (spec.beta / spec.alpha) * eye}
    elif target == "slq2" and fam == "Bbarq":
        if spec.sigma == 0:
            raise SpecError("the deformed subalgebra embedding needs sigma != 0")
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
    out = []
    for tag, ref, mat, deg in pairs:
        scale = max(float(np.linalg.norm(e @ f, 2)), float(np.linalg.norm(h, 2)))
        res = _windowed(rep, mat, deg, scale)
        out.append(check_report(spec, rep.dim,
                                f"structure.realization.{target}.{tag}",
                                ref, res, tol, deg))
    return out


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
    proj = validity_window(rep, degree).projector
    keep = np.diag(proj).real > 0.5
    diag = np.diag(cas)
    dev_diag = float(np.max(np.abs(diag[keep] - target[keep])))
    off = cas - np.diag(diag)
    dev_off = windowed_norm(off, proj)
    # closed-form parity formula must agree with the sector values
    formula = (0.5 - beta / (2.0 * alpha) - beta ** 2 / (4.0 * alpha ** 2)
               + (2.0 * beta - alpha) / (8.0 * alpha)
               * (3.0 + (-1.0) ** rep.levels))
    dev_formula = 0.0
    if which == "sl2_c2":
        dev_formula = float(np.max(np.abs(formula[keep] - target[keep])))
    residual = max(dev_diag, dev_off, dev_formula)
    ident = "structure.casimir-osp" if which == "osp_i2" else "structure.casimir-sl2"
    ref = ("osp quadratic Casimir equals its constant closed form"
           if which == "osp_i2" else
           "sl2 Casimir is parity-sector constant, matching the closed forms")
    return check_report(spec, rep.dim, ident, ref, residual, tol, degree,
                        branch_note=note)


# -- the boson <-> Heisenberg generator maps ----------------------------------

def phi_images(b_spec: AlgebraSpec, h_rep: FockRep) -> dict:
    """Images of the graded-family generators inside a reflection-family rep."""
    if b_spec.alpha == 0:
        raise SpecError("the forward map needs alpha != 0")
    h_spec = h_rep.spec
    alpha, beta = b_spec.alpha, b_spec.beta
    eye = h_rep.identity
    n_img = ((2.0 / alpha) * h_rep.raising @ h_rep.lowering
             + (h_spec.nu / alpha) * h_rep.k_op
             + ((h_spec.delta - beta) / alpha) * eye)
    return {"a": h_rep.lowering, "ad": h_rep.raising, "N": n_img, "I": eye}


def phi_prime_images(h_spec: AlgebraSpec, b_rep: FockRep) -> dict:
    """Images of the reflection-family generators inside a graded-family rep."""
    if h_spec.nu == 0:
        raise SpecError("the inverse map needs nu != 0")
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


def iso_phi(b_spec: AlgebraSpec, h_rep: FockRep, lam1: float = 1.0,
            tol: float = DEFAULT_TOL) -> list:
    """Graded-family relations on the forward-map images, plus the L image.

    Passes exactly when alpha = 2*delta; a mismatched pair yields a
    quantified nonzero residual.
    """
    h_spec = h_rep.spec
    gens = phi_images(b_spec, h_rep)
    out = []
    for ident, ref, mat, deg, scale in relation_residuals(b_spec, gens):
        res = _windowed(h_rep, mat, deg, scale)
        out.append(check_report(h_spec, h_rep.dim, f"iso.phi.{ident}",
                                f"phi preserves {ref}", res, tol, deg))
    # the grade-odd element maps onto the reflection generator
    lam2, lam3 = solve_lambda_constraints(b_spec.alpha, b_spec.beta, lam1)
    l_img = (lam1 * gens["ad"] @ gens["a"] + lam2 * gens["N"]
             + lam3 * gens["I"])
    target = -(lam1 * h_spec.nu / 2.0) * h_rep.k_op
    res = _windowed(h_rep, l_img - target, 1,
                    float(np.linalg.norm(target, 2)))
    out.append(check_report(h_spec, h_rep.dim, "iso.phi-L",
                            "phi(L) = -(lam1*nu/2) K", res, tol, 1))
    return out


def iso_phi_prime(h_spec: AlgebraSpec, b_rep: FockRep,
                  tol: float = DEFAULT_TOL) -> list:
    """Reflection-family relations on the inverse-map images, the M image,
    and the round trip back to the graded generators."""
    b_spec = b_rep.spec
    gens = phi_prime_images(h_spec, b_rep)
    out = []
    for ident, ref, mat, deg, scale in relation_residuals(h_spec, gens):
        res = _windowed(b_rep, mat, deg, scale)
        out.append(check_report(b_spec, b_rep.dim, f"iso.phi-prime.{ident}",
                                f"phi' preserves {ref}", res, tol, deg))
    # phi'(M) = N + (beta - delta)/(2 delta) + rho
    target = (b_rep.number + ((b_spec.beta - h_spec.delta)
                              / (2.0 * h_spec.delta) + h_spec.rho) * b_rep.identity)
    res = _windowed(b_rep, gens["M"] - target, 1,
                    float(np.linalg.norm(target, 2)))
    out.append(check_report(b_spec, b_rep.dim, "iso.phi-prime-M",
                            "phi'(M) = N + (beta-delta)/(2 delta) + rho",
                            res, tol, 1))
    # round trip: the forward number image evaluated on the inverse images
    # must reproduce the number operator
    alpha, beta = b_spec.alpha, b_spec.beta
    rt = ((2.0 / alpha) * gens["bd"] @ gens["b"]
          + (h_spec.nu / alpha) * gens["K"]
          + ((h_spec.delta - beta) / alpha) * b_rep.identity)
    res = _windowed(b_rep, rt - b_rep.number, 1,
                    float(np.linalg.norm(b_rep.number, 2)))
    out.append(check_report(b_spec, b_rep.dim, "iso.roundtrip",
                            "phi' after phi fixes every generator", res, tol, 1))
    return out


def run_structure_checks(rep: FockRep, tables: HopfTables | None = None,
                         lam1: float = 1.0, lam4: float = 0.5,
                         tol: float = DEFAULT_TOL) -> list:
    """The family-appropriate structure suite for one rep."""
    spec = rep.spec
    out = []
    if spec.family == "B":
        if spec.alpha != 0:
            # S(g) = g^-1, so the grade extension is antipode-fixed only
            # when the grade squares to the identity
            if not float(spec.beta / spec.alpha).is_integer():
                lam4 = 0.0
            elem = build_L(rep, lam1, lam4)
            if tables is not None:
                out.extend(check_L_properties(elem, rep, tables, tol))
            out.append(characteristic_identity_residual(rep, lam1, tol))
            out.append(bh_form_check(rep, lam1, tol))
            osp = build_realization(rep, "osp12")
            out.extend(check_realization(osp, rep, tol))
            out.append(casimir_spectrum(osp, rep, "osp_i2", tol))
            sl2 = build_realization(rep, "sl2")
            out.extend(check_realization(sl2, rep, tol))
            out.append(casimir_spectrum(sl2, rep, "sl2_c2", tol))
    elif spec.family == "H":
        if spec.delta != 0:
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
        if spec.alpha != 0:
            osp = build_realization(rep, "ospq12")
            out.extend(check_realization(osp, rep, tol))
    elif spec.family == "Bbarq":
        if spec.sigma != 0:
            sl2 = build_realization(rep, "slq2")
            out.extend(check_realization(sl2, rep, tol))
    return out
