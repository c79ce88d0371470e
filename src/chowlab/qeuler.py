"""Eulerian and q-Eulerian polynomials by definition, by recurrence, and by
truncated generating-function identities.

The recurrence route is the production path (polynomial time in n); the
brute-force definition route exists as its oracle.  Both EGF identities are
verified with denominators cleared, so every check runs in integer BiPoly
arithmetic: multiplying the generating function through by its denominator
series turns the identity at order x^m into

    sum_a [m over a]_q A_a(q,t) (t - t^(m-a)) == t - 1        (q-version)
    t*A_m(t) == sum_a C(m,a) A_a(t) (t-1)^(m-a), m >= 1       (q = 1)
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import BiPoly, ONE, Q, T, binomial, gauss_binomial
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


class EulerianTable:
    """Memoized table of A_n(q,t) for 0 <= n <= n_max (recurrence route)."""

    def __init__(self, n_max):
        self.n_max = n_max
        self.polys = [q_eulerian_by_recurrence(n) for n in range(n_max + 1)]

    def __getitem__(self, n):
        return self.polys[n]

    def q_eulerian_number(self, n, j):
        """<n over j>_q, the coefficient of t^j in A_n(q,t)."""
        return self.polys[n].coefficient_in_t(j)


@lru_cache(maxsize=None)
def classical_eulerian(n):
    """A_n(t) = sum_k C(n,k) A_k(t) (t-1)^(n-1-k), the classical recurrence."""
    if not 0 <= n <= 12:
        raise ValueError(f"classical route needs 0 <= n <= 12, got {n}")
    if n == 0:
        return ONE
    total = BiPoly()
    for k in range(n):
        total = total + binomial(n, k) * classical_eulerian(k) * (T - ONE) ** (n - 1 - k)
    return total


def classical_recurrence_check(n, bound=None):
    """Recurrence value against the brute-force excedance sum."""
    return classical_eulerian(n) == statistic_sum(n, lambda s: (0, s.exc), bound)


def egf_identity_check(n_max, q_one=False):
    """Truncated generating-function identity, checked through x^n_max.

    With q symbolic this is the q-exponential identity for A_n(q,t); with
    q_one it is the classical exponential form against (t-1)/(t-e^(x(t-1))).
    """
    if q_one:
        for m in range(1, n_max + 1):
            rhs = BiPoly()
            for a in range(m + 1):
                rhs = rhs + binomial(m, a) * classical_eulerian(a) * (T - ONE) ** (m - a)
            if T * classical_eulerian(m) != rhs:
                return False
        return True
    for m in range(n_max + 1):
        lhs = BiPoly()
        for a in range(m + 1):
            lhs = lhs + gauss_binomial(m, a) * q_eulerian_by_recurrence(a) * (
                T - BiPoly.term(1, 0, m - a)
            )
        if lhs != T - ONE:
            return False
    return True
