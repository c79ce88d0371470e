"""Eulerian and q-Eulerian polynomials by definition and by recurrence.

The recurrence route is the production path (polynomial time in n); the
brute-force definition route exists as its oracle.  The classical (q = 1)
polynomials come from their own integer recurrence on Eulerian numbers, not
from the q-recurrence.
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import BiPoly, ONE, Q, T, gauss_binomial
from .permstat import statistic_sum


def q_eulerian_by_definition(n, bound=None):
    """Sum of q^(maj-exc) t^exc over all permutations of [n]."""
    return statistic_sum(n, lambda s: (s.maj - s.exc, s.exc), bound)


@lru_cache(maxsize=None)
def q_eulerian_by_recurrence(n):
    """A_n(q,t) from h_n = sum_k [n over k]_q h_k prod_{i=1}^{n-1-k} (t - q^i)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ONE
    total = BiPoly()
    for k in range(n):
        prod = ONE
        for i in range(1, n - k):
            prod = prod * (T - Q**i)
        total = total + gauss_binomial(n, k) * q_eulerian_by_recurrence(k) * prod
    return total


@lru_cache(maxsize=None)
def classical_eulerian(n):
    """A_n(t) = sum_k A(n, k) t^k, row by row from the Eulerian numbers'
    A(m, k) = (k + 1) A(m - 1, k) + (m - k) A(m - 1, k - 1), A(0, 0) = 1.

    >>> classical_eulerian(4).to_text()
    '1 + 11*t + 11*t^2 + t^3'
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    row = [1]
    for m in range(1, n + 1):
        row = [(k + 1) * a + (m - k) * b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return BiPoly({(0, k): a for k, a in enumerate(row)})
