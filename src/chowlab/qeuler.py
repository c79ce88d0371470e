"""Eulerian, q-Eulerian and derangement polynomials.

A_n(q,t) and D_n(q,t) come from their q-exponential generating functions
with the denominators cleared, built bottom-up in n (polynomial time); the
brute-force definition of A_n exists as its oracle.  The classical (q = 1)
polynomials come from their own integer recurrence on Eulerian numbers, not
from the q-recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul

from .exactalg import BiPoly, ONE, Q, T, gauss_binomial, sum_of_products, t_quantum
from .permstat import statistic_sum


def q_eulerian_by_definition(n, bound=None):
    """Sum of q^(maj-exc) t^exc over all permutations of [n]."""
    return statistic_sum(n, lambda s: (s.maj - s.exc, s.exc), bound)


def _q_egf_entry(table, n, factors):
    """x_n of x_m = sum_{a < m} [m over a]_q x_a f_(m - a), extending
    `table` (m -> x_m as far as computed) through n by key, so threads that
    extend it at once write equal values; `factors(n)` is the list f_0, ...,
    f_n, built only when the table grows."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n not in table:
        f = factors(n)
        for m in range(len(table), n + 1):
            table[m] = sum_of_products((gauss_binomial(m, a), table[a], f[m - a]) for a in range(m))
    return table[n]


_Q_EULERIAN = {0: ONE}
_DERANGEMENTS = {0: ONE}


def q_eulerian_by_recurrence(n):
    """A_n(q,t) from h_n = sum_k [n over k]_q h_k prod_{i=1}^{n-1-k} (t - q^i)."""
    return _q_egf_entry(_Q_EULERIAN, n, _t_minus_q_powers)


def _t_minus_q_powers(n):
    """[f_0, ..., f_n] with f_k = prod_{i=1}^{k-1} (t - q^i), each one multiply from the last."""
    return [ONE, *accumulate((T - Q**i for i in range(1, n)), mul, initial=ONE)]


def derangement_polynomial(n):
    """D_n(q,t): the sum of q^(maj-exc) t^exc over the derangements of [n].

    Shareshian-Wachs give sum_n D_n z^n/[n]_q! = (1-t)/(e_q(tz) - t e_q(z));
    with the denominators cleared, D_m = sum_{a < m} [m over a]_q D_a t [m-a-1]_t
    (the a = m-1 term is 0, as [0]_t = 0).

    >>> derangement_polynomial(4).to_text()
    't + (2 + q + 2*q^2 + q^3 + q^4)*t^2 + t^3'
    """
    return _q_egf_entry(_DERANGEMENTS, n, lambda top: [T * t_quantum(k - 1) for k in range(top + 1)])


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
