"""Scalar kernel: q-brackets, phase powers and bracket factorials.

Everything downstream (Fock matrices, coproduct tables, R-matrices) is
assembled from these three functions, so the branch conventions fixed here
propagate to the whole package.  All non-integer powers of -1 are taken on
the principal branch exp(i*pi*x), which is the unique choice making
phase_pow(x) * phase_pow(-x) == 1 hold identically.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class ScalarDomainError(ValueError):
    """Raised for scalar arguments outside the valid domain (q <= 0, q == 1, ...)."""


def check_q(q: float) -> float:
    """Validate a deformation parameter: q > 0 and q != 1."""
    if q <= 0:
        raise ScalarDomainError(f"deformation parameter must be positive, got q={q}")
    if q == 1:
        raise ScalarDomainError("q = 1 is excluded (classical values are limits, not members)")
    return q


# Below this |log q| the difference form of q_bracket loses more than a few
# ulps: q - 1/q cancels to about eps / (2 |log q|) relative.
Q_NEAR_ONE = 0.1


def q_bracket(x, q: float):
    """The symmetric q-bracket (q^x - q^-x) / (q - 1/q).

    Odd in x, invariant under q -> 1/q, and -> x as q -> 1.  Accepts real or
    complex x (complex x arises from phase-shifted number operators), and
    arrays of either.  Within ``Q_NEAR_ONE`` of log q = 0 it is computed as
    sinh(x log q) / sinh(log q) (cmath for a complex scalar, numpy
    otherwise), which does not cancel; further out the difference form is
    exact to a few ulps and is kept, so residuals there do not move.
    """
    check_q(q)
    log_q = math.log(q)
    if abs(log_q) < Q_NEAR_ONE:
        if isinstance(x, complex):
            return cmath.sinh(x * log_q) / math.sinh(log_q)
        return np.sinh(np.multiply(x, log_q)) / math.sinh(log_q)
    if isinstance(x, complex):
        num = cmath.exp(x * cmath.log(q)) - cmath.exp(-x * cmath.log(q))
    else:
        num = q**x - q**(-x)
    return num / (q - 1.0 / q)


def phase_pow(x) -> complex:
    """(-1)**x on the principal branch: exp(i*pi*x).

    Multiplicative in the exponent, so phase_pow(x) * phase_pow(-x) == 1 up
    to rounding; this is what the antipode axioms for the grade elements
    (-1)^{+-(N + shift)} rely on.
    """
    return cmath.exp(1j * cmath.pi * x)


def bracket_factorial(l: int, x: complex) -> complex:
    """Product of base-x brackets [m]_x = (x^m - x^-m)/(x - 1/x) for m = 1..l.

    The empty product (l = 0) is 1.  The base may be complex: the deformed
    R-matrix uses x = i * q^(-alpha/2), the principal square root of
    -q^(-alpha).
    """
    if l < 0:
        raise ScalarDomainError(f"bracket factorial needs l >= 0, got {l}")
    if x == 0 or x == 1 or x == -1:
        raise ScalarDomainError(f"bracket factorial base x={x} makes a denominator vanish")
    den = x - 1.0 / x
    out = 1.0 + 0j
    for m in range(1, l + 1):
        num = x**m - x ** (-m)
        out *= num / den
        if out == 0:
            # A vanishing factor [m]_x (x a 2m-th root of unity) would make
            # every later division by the factorial blow up.
            raise ScalarDomainError(f"bracket factor [{m}]_x vanishes for base x={x}")
    return out
