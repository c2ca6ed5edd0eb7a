"""The dense oracle of the corpus's definitions and maps, and of the
antipode images.

Each image is formed by hand from a rep's dense generator matrices, as the
lab formed them before the identity corpus stated them, with each
realization's whole normalization product on f (e is the plain raising
image).  ``test_structure.py`` checks every map's images, and L, L+, C and
the rebuilt number element, against these.  :func:`antipode_images` forms
each Hopf atom's S and S^-1 by hand, family by family, as the lab formed
them before one rule stated them as words; ``test_hopf.py`` checks the
tables' images against it.
"""

from types import SimpleNamespace

import numpy as np

from bosonhopf.scalars import q_bracket


def _dense(rep):
    """rep's images as dense matrices, under the names of its fields."""
    names = ("lowering", "raising", "number", "identity", "grade_plus", "grade_minus", "k_op")
    return SimpleNamespace(spec=rep.spec, **{
        name: None if getattr(rep, name) is None else getattr(rep, name).to_dense()
        for name in names})


def grade_odd(rep, lam1=1.0, lam4=0.0):
    """lam1 (ad a - (alpha/2) N + (alpha/4 - beta/2) I) + lam4 g on a graded rep."""
    alpha, beta = rep.spec.alpha, rep.spec.beta
    rep = _dense(rep)
    mat = lam1 * (rep.raising @ rep.lowering - (alpha / 2.0) * rep.number
                  + (alpha / 4.0 - beta / 2.0) * rep.identity)
    return mat + lam4 * rep.grade_plus


def casimir_base(rep):
    """C = ad a - (alpha/2) N on a graded rep."""
    rep = _dense(rep)
    return rep.raising @ rep.lowering - (rep.spec.alpha / 2.0) * rep.number


def number_element(rep):
    """bd b / delta + nu K / (2 delta) + rho I on a reflection-family rep."""
    spec, rep = rep.spec, _dense(rep)
    return (rep.raising @ rep.lowering / spec.delta + spec.nu * rep.k_op / (2.0 * spec.delta)
            + spec.rho * rep.identity)


def realization(rep, target):
    """e, f, h of ``target`` in rep: e the raising image, f carries the
    product of the two normalization constants."""
    rep = _dense(rep)
    spec, fam, eye = rep.spec, rep.spec.family, rep.identity
    ad, a = rep.raising, rep.lowering
    if fam in ("B", "Bq", "Bbar", "Bbarq"):
        c1, c2 = (spec.alpha, spec.beta) if fam in ("B", "Bq") else (spec.sigma, spec.tau)
        n = rep.number
    if (target, fam) == ("osp12", "B"):
        return {"e": ad, "f": (2.0 / c1) * a, "h": 2.0 * n + (2.0 * c2 / c1) * eye}
    if (target, fam) == ("sl2", "B"):
        return {"e": ad @ ad, "f": -(1.0 / c1 ** 2) * a @ a, "h": n + (c2 / c1) * eye}
    if (target, fam) == ("osp12", "H"):
        return {"e": ad, "f": a / spec.delta,
                "h": (spec.nu / spec.delta) * rep.k_op + (2.0 / spec.delta) * ad @ a + eye}
    if (target, fam) == ("sl2", "H"):
        return {"e": ad @ ad, "f": -a @ a / (4.0 * spec.delta ** 2),
                "h": (spec.nu / (2.0 * spec.delta)) * rep.k_op + ad @ a / spec.delta + 0.5 * eye}
    if (target, fam) == ("sl2", "Bbar"):
        return {"e": ad, "f": -(2.0 / c1) * a, "h": 2.0 * n + (2.0 * c2 / c1) * eye}
    if (target, fam) == ("ospq12", "Bq"):
        return {"e": ad, "f": a / q_bracket(c1, spec.q), "h": n + (c2 / c1) * eye}
    if (target, fam) == ("slq2", "Bbarq"):
        return {"e": ad, "f": -a / q_bracket(c1 / 2.0, spec.q),
                "h": 2.0 * n + (2.0 * c2 / c1) * eye}
    raise KeyError((target, fam))


def phi(b_spec, h_rep):
    """The graded family's a, ad and N inside a reflection-family rep."""
    alpha, beta = b_spec.alpha, b_spec.beta
    h, h_rep = h_rep.spec, _dense(h_rep)
    n_img = ((2.0 / alpha) * h_rep.raising @ h_rep.lowering + (h.nu / alpha) * h_rep.k_op
             + ((h.delta - beta) / alpha) * h_rep.identity)
    return {"a": h_rep.lowering, "ad": h_rep.raising, "N": n_img}


def phi_prime(h_spec, b_rep):
    """The reflection family's b, bd, K and M inside a graded-family rep."""
    delta, nu, rho = h_spec.delta, h_spec.nu, h_spec.rho
    b, b_rep = b_rep.spec, _dense(b_rep)
    k_img = (-(2.0 / nu) * b_rep.raising @ b_rep.lowering + (b.alpha / nu) * b_rep.number
             + ((b.beta - delta) / nu) * b_rep.identity)
    m_img = ((1.0 / delta) * b_rep.raising @ b_rep.lowering + (nu / (2.0 * delta)) * k_img
             + rho * b_rep.identity)
    return {"b": b_rep.lowering, "bd": b_rep.raising, "K": k_img, "M": m_img}


def antipode_images(rep):
    """{atom name: (S image, S^-1 image)} of every Hopf atom of rep's
    family, as dense matrices formed by hand."""
    spec, fam, dim, rep = rep.spec, rep.spec.family, rep.dim, _dense(rep)
    a, ad, n, unit = rep.lowering, rep.raising, rep.number, rep.identity
    g, gi = rep.grade_plus, rep.grade_minus
    if fam == "H":
        s_m = -n + (2 * spec.rho - 1) * unit
        return {"M": (s_m, s_m), "K": (rep.k_op, rep.k_op), "b": (-gi @ a, gi @ a),
                "bd": (ad @ g, -ad @ g), "g": (gi, gi), "ginv": (g, g)}
    c1, c2 = (spec.alpha, spec.beta) if fam in ("B", "Bq") else (spec.sigma, spec.tau)
    s_n = -n - 2 * (c2 / c1) * unit
    out = {"N": (s_n, s_n)}
    graded = fam in ("B", "Bq")
    if graded:
        out.update(g=(gi, gi), ginv=(g, g))
    if not spec.is_deformed:
        if graded:
            out.update(a=(-gi @ a, gi @ a), ad=(ad @ g, -ad @ g))
        else:
            out.update(a=(-a, -a), ad=(-ad, -ad))
        return out
    q = spec.q
    exponent = (c1 * np.arange(dim, dtype=float) + c2) / 2.0
    half = np.diag(np.power(q, exponent).astype(complex))
    half_inv = np.diag(np.power(q, -exponent).astype(complex))
    out.update(qhalf=(half_inv, half_inv), qhalfinv=(half, half))
    if graded:
        out.update(a=(-q ** (-c1 / 2.0) * (gi @ a), q ** (c1 / 2.0) * (gi @ a)),
                   ad=(q ** (c1 / 2.0) * (ad @ g), -q ** (-c1 / 2.0) * (ad @ g)))
    else:
        out.update(a=(-q ** (-c1 / 2.0) * a, -q ** (c1 / 2.0) * a),
                   ad=(-q ** (c1 / 2.0) * ad, -q ** (-c1 / 2.0) * ad))
    return out
