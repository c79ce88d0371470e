"""Eulerian, q-Eulerian and derangement polynomials.

A_n(q,t) and D_n(q,t) come from their q-exponential generating functions
with the denominators cleared, built bottom-up in n (polynomial time) on
packed integers: one `exactalg.Layout`, fixed from the top n by norm and
degree bounds taken from the recurrence itself, holds every entry; the
Gaussian binomials are the rows of the q-Pascal rule at the layout's q,
each [m over a]_q x_a is one integer product, and the sum over a runs in
Horner form, where a multiply by t - q^i or by t is a shift.  Only A_n is
read back; the table D_0, ..., D_n is read back whole, each entry once,
or, for the closed form and the difference series of `chow`, built at the
layout of their sum and never read back itself.  The brute-force
definition of A_n exists as its oracle.  The classical (q = 1)
polynomials come from their own integer recurrence on Eulerian numbers,
not from the q-recurrence.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice
from math import comb
from operator import mul

from .exactalg import BiPoly, Layout
from .permstat import statistic_sum


def q_eulerian_by_definition(n, bound=None):
    """Sum of q^(maj-exc) t^exc over all permutations of [n]."""
    return statistic_sum(n, lambda s: (s.maj - s.exc, s.exc), bound)


def _q_egf_bounds(n_max, g):
    """Bounds (B_m, d_m) with B_m >= ||x_m||_1 and d_m >= deg_q x_m for
    0 <= m <= n_max, fixed before any x_m is computed, for the recurrence
    x_m = sum_{a < m} [m over a]_q x_a g_(m - a) from x_0 = 1, where
    g(k) gives (||g_k||_1, deg_q g_k).  Since ||[m over a]_q||_1 = C(m, a)
    and ||fg||_1 <= ||f||_1 ||g||_1, the same sum of binomials without signs
    bounds the norms, and q-degrees add through each product:

    >>> _q_egf_bounds(4, _f_size)
    ([1, 1, 4, 22, 160], [0, 0, 1, 3, 6])
    >>> _q_egf_bounds(4, _t_quantum_size)
    ([1, 0, 1, 2, 9], [0, 0, 0, 0, 4])
    """
    norms, degrees = [1], [0]
    for m in range(1, n_max + 1):
        norm = degree = 0
        for a in range(m):
            g_norm, g_degree = g(m - a)
            if norms[a] and g_norm:  # a zero term adds no degree
                norm += comb(m, a) * norms[a] * g_norm
                degree = max(degree, a * (m - a) + degrees[a] + g_degree)
        norms.append(norm)
        degrees.append(degree)
    return norms, degrees


def _f_size(k):
    """(||f_k||_1, deg_q f_k) <= (2^(k-1), k(k-1)/2) for f_k = prod_{0<i<k} (t - q^i)."""
    return 1 << (k - 1), k * (k - 1) // 2


def _t_quantum_size(k):
    """(||t [k-1]_t||_1, deg_q) = (k - 1, 0)."""
    return k - 1, 0


def _eulerian_horner(m, c, qs, ts):
    """A_m = c_(m-1) + (t - q)(c_(m-2) + (t - q^2)(... + (t - q^(m-1)) c_0)),
    the sum of c_a f_(m-a) in Horner form: each multiply by t - q^i is two
    shifts and a subtraction."""
    x = 0
    for a, c_a in enumerate(c):
        x = c_a + (x << ts) - (x << qs * (m - a))
    return x


def _derangement_horner(m, c, qs, ts):
    """D_m = sum_{a <= m-2} c_a t [m-a-1]_t = t sum_k P_k t^(m-2-k), in Horner
    form in t alone, with P_k = c_0 + ... + c_k the prefix sums."""
    x = 0
    for p in accumulate(islice(c, m - 1)):
        x = (x << ts) + p
    return x << ts


def q_pascal_rows(qs, width=None):
    """Rows of Gaussian binomials at q = 2^qs: row m holds [m over 0]_q, ...,
    [m over m]_q, for m = 0, 1, 2, ..., each row from the one before by the
    q-Pascal rule [m over a]_q = [m-1 over a-1]_q + q^a [m-1 over a]_q, one
    shift and one add per entry.  With a `width`, each row is cut to its
    first `width` entries, which the rule computes from the rows above cut
    the same way.  At qs = 0, that is q = 1, the rows are Pascal's triangle:

    >>> rows = q_pascal_rows(0)
    >>> [next(rows) for _ in range(5)][-1]
    [1, 4, 6, 4, 1]
    >>> next(islice(q_pascal_rows(4), 4, None))  # [4 over 2]_q = 1 + q + 2q^2 + q^3 + q^4 at q = 16
    [1, 4369, 70161, 4369, 1]
    >>> next(islice(q_pascal_rows(4, width=3), 4, None))
    [1, 4369, 70161]
    """
    row = [1]
    while True:
        yield row
        row = [1, *(lo + (hi << qs * a) for a, (lo, hi) in enumerate(zip(row, row[1:]), 1)), 1][:width]


def _q_egf(n, horner, layout):
    """The packings x_0, ..., x_n of x_m = sum_{a < m} [m over a]_q x_a g_(m - a)
    from x_0 = 1, at the caller's `layout`.

    - Layout.  The caller fixes it from (B_m, d_m) of `_q_egf_bounds(n, g)`
      for what it reads back: an x_m itself, which fits, as deg_q x_m <= d_m,
      its t-degree is at most m, and each coefficient is at most B_m, or a
      sum of products of them.  Nothing else need fit (see `Layout`).
    - Recurrence.  Row m of `q_pascal_rows(qs)` holds every [m over a]_q
      packed, each c_a = [m over a]_q x_a is one integer product, and
      `horner` sums the c_a times g_(m - a) with shifts and adds.  Nothing
      is read back here.
    """
    packed = [1]
    for m, row in enumerate(islice(q_pascal_rows(layout.qs), 1, n + 1), 1):
        packed.append(horner(m, map(mul, row, packed), layout.qs, layout.ts))
    return packed


@lru_cache(maxsize=None)
def q_eulerian_by_recurrence(n):
    """A_n(q,t) from h_n = sum_k [n over k]_q h_k prod_{i=1}^{n-1-k} (t - q^i):
    A_0, ..., A_n packed at the layout of n, and only A_n read back."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    layout = Layout(*map(max, _q_egf_bounds(n, _f_size)))
    return layout.read(_q_egf(n, _eulerian_horner, layout)[n], n + 1)


@lru_cache(maxsize=None)
def derangement_polynomials(n):
    """(D_0, ..., D_n), packed at the layout of n and each read back once.

    Shareshian-Wachs give sum_n D_n z^n/[n]_q! = (1-t)/(e_q(tz) - t e_q(z));
    with the denominators cleared, D_m = sum_{a < m} [m over a]_q D_a t [m-a-1]_t
    (the a = m-1 term is 0, as [0]_t = 0).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    layout = Layout(*map(max, _q_egf_bounds(n, _t_quantum_size)))
    return tuple(layout.read(x, m + 1) for m, x in enumerate(_q_egf(n, _derangement_horner, layout)))


def derangement_polynomial(n):
    """D_n(q,t): the sum of q^(maj-exc) t^exc over the derangements of [n],
    the last entry of `derangement_polynomials(n)`.

    >>> derangement_polynomial(4).to_text()
    't + (2 + q + 2*q^2 + q^3 + q^4)*t^2 + t^3'
    """
    return derangement_polynomials(n)[-1]


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
