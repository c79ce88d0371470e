"""Independent oracle shared by the test modules: the classical
tangent-secant numbers as exact Taylor coefficients of tanh + sech."""

from fractions import Fraction
from math import factorial


def classical_tangent_secant_series(n_max):
    """[E_0, ..., E_{n_max}] at q = 1, computed over Fractions."""
    order = n_max + 1
    cosh = [Fraction(1 if k % 2 == 0 else 0, factorial(k)) for k in range(order)]
    sinh = [Fraction(1 if k % 2 == 1 else 0, factorial(k)) for k in range(order)]
    sech = [Fraction(1)]
    for m in range(1, order):
        sech.append(-sum(cosh[k] * sech[m - k] for k in range(1, m + 1)))
    tanh = [sum(sinh[k] * sech[m - k] for k in range(m + 1)) for m in range(order)]
    values = [(tanh[m] + sech[m]) * factorial(m) for m in range(n_max + 1)]
    assert all(v.denominator == 1 for v in values)
    return [int(v) for v in values]
