import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosonhopf.scalars import (ScalarDomainError, bracket_factorial, check_q,
                               phase_pow, q_bracket)

finite_x = st.floats(min_value=-20, max_value=20)
valid_q = st.floats(min_value=0.3, max_value=3.0).filter(
    lambda q: abs(q - 1.0) > 1e-3)


def test_q_bracket_fixed_values():
    # (1.3^5 - 1.3^-5) / (1.3 - 1/1.3), worked out by hand
    assert q_bracket(5, 1.3) == pytest.approx(6.4879437729, abs=1e-9)
    assert q_bracket(3, 0.7) == pytest.approx(3.5308163265, abs=1e-9)
    assert q_bracket(1, 1.3) == pytest.approx(1.0, abs=1e-14)
    assert q_bracket(0, 1.3) == 0.0


@given(x=finite_x, q=valid_q)
def test_q_bracket_odd(x, q):
    assert q_bracket(-x, q) == pytest.approx(-q_bracket(x, q), abs=1e-9)


@given(x=finite_x, q=valid_q)
def test_q_bracket_q_inversion(x, q):
    assert q_bracket(x, 1.0 / q) == pytest.approx(q_bracket(x, q),
                                                  rel=1e-9, abs=1e-9)


@given(x=st.floats(min_value=-10, max_value=10))
def test_q_bracket_classical_limit(x):
    assert q_bracket(x, 1.0001) == pytest.approx(x, abs=1e-2)


def test_q_bracket_near_q_one_keeps_full_precision():
    """At q = 1 + 1e-8 the difference form (q^x - q^-x) / (q - 1/q) loses
    5.6e-9 relative at x = 0.5 to cancellation.  The bracket matches
    sinh(x log q) / sinh(log q) to rounding, and so does its array form
    and a complex argument's."""
    q, x = 1 + 1e-8, 0.5
    log_q = math.log(q)
    expected = math.sinh(x * log_q) / math.sinh(log_q)
    assert q_bracket(x, q) == pytest.approx(expected, rel=1e-15)
    assert q_bracket(np.array([x, -x]), q) == pytest.approx([expected, -expected], rel=1e-15)
    z = x + 0.25j
    assert q_bracket(z, q) == pytest.approx(cmath.sinh(z * log_q) / math.sinh(log_q),
                                            rel=1e-15)


def test_q_bracket_complex_argument():
    z = 2.0 + 1.0j
    expected = (cmath.exp(z * math.log(1.3))
                - cmath.exp(-z * math.log(1.3))) / (1.3 - 1 / 1.3)
    assert q_bracket(z, 1.3) == pytest.approx(expected)


def test_check_q_rejects_bad_values():
    for q in (0.0, -1.0, 1.0):
        with pytest.raises(ScalarDomainError):
            check_q(q)
    assert check_q(0.7) == 0.7


@given(n=st.integers(min_value=-8, max_value=8))
def test_phase_pow_integers(n):
    assert phase_pow(n) == pytest.approx((-1.0) ** n, abs=1e-12)


@given(x=finite_x)
def test_phase_pow_inverse_pair(x):
    assert phase_pow(x) * phase_pow(-x) == pytest.approx(1.0, abs=1e-12)


@given(x=finite_x, y=finite_x)
def test_phase_pow_multiplicative_in_exponent(x, y):
    assert phase_pow(x + y) == pytest.approx(phase_pow(x) * phase_pow(y),
                                             abs=1e-9)


def test_bracket_factorial_base_cases():
    assert bracket_factorial(0, 1.3) == 1.0
    assert bracket_factorial(1, 1.3) == pytest.approx(1.0)
    # [1]_x [2]_x [3]_x at x = 1.3, each bracket worked out directly
    b2 = (1.3**2 - 1.3**-2) / (1.3 - 1 / 1.3)
    b3 = (1.3**3 - 1.3**-3) / (1.3 - 1 / 1.3)
    assert bracket_factorial(3, 1.3) == pytest.approx(b2 * b3)


def test_bracket_factorial_complex_base():
    # x = i / 0.7: [2]_x = (x^2 - x^-2)/(x - 1/x) stays finite and nonzero
    x = 1j / 0.7
    expected = bracket_factorial(1, x) * (x**2 - x**-2) / (x - 1 / x)
    assert bracket_factorial(2, x) == pytest.approx(expected)


def test_bracket_factorial_domain_errors():
    with pytest.raises(ScalarDomainError):
        bracket_factorial(-1, 1.3)
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ScalarDomainError):
            bracket_factorial(2, bad)
    # x = i makes [2]_x vanish, poisoning every later quotient
    with pytest.raises(ScalarDomainError):
        bracket_factorial(2, 1j)


@given(l=st.integers(min_value=1, max_value=6), q=valid_q)
def test_bracket_factorial_recursion(l, q):
    assert bracket_factorial(l, q) == pytest.approx(
        bracket_factorial(l - 1, q) * q_bracket(l, q), rel=1e-9)
