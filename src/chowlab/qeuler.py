"""Eulerian, q-Eulerian and derangement polynomials.

A_n(q,t) and D_n(q,t) come from their q-exponential generating functions
with the denominators cleared, built bottom-up in n (polynomial time) on
packed integers at one `exactalg.Layout`, fixed by what is read back, each
entry kept as its t-rows; the Gaussian binomials are the rows of the
q-Pascal rule at the layout's q, each [m over a]_q x_a is one product a
t-row, and the sum over a runs in Horner form, where a multiply by t - q^i
or by t is a shift.  A_n and D_n are each built at the layout of the top
entry alone and only it is read back; for the closed form and the
difference series of `chow`, the D table is built at the layout of their
sum and never read back.  `chow`'s Hilbert diagonal runs on the same
loop, `_q_egf`, and bound declaration, `_q_egf_bounds`.
The brute-force definition of A_n exists as its oracle.  The classical
(q = 1) polynomials come from their own integer recurrence on Eulerian
numbers, not from the q-recurrence.
"""

from functools import lru_cache
from itertools import accumulate, chain, count, islice
from math import comb, factorial
from operator import add, lshift, mul

from .exactalg import BiPoly, Layout, join_rows, recurrence_bounds, t_horner


def q_eulerian_by_definition(n, bound=None):
    """Sum of q^(maj-exc) t^exc over all permutations of [n]."""
    from .permstat import statistic_sum  # the oracle's enumeration, loaded only when it runs

    return statistic_sum(n, lambda s: (s.maj - s.exc, s.exc), bound)


@lru_cache(maxsize=None)
def _q_egf_bounds(n_max, d=0, base=0):
    """Bounds (B_m, d_m) on ||x_m||_1 and deg_q x_m, 0 <= m <= n_max, for
    the x_m of `_q_egf(n_max, _derangement_horner, layout, d, base)`:
    `recurrence_bounds`, each term c_a t [m-a-1]_t of norm m - 1 at a = 0,
    else C(d+m, d+a) (m-a-1), and q-degree 0, else (m-a)(d+a), kept per
    argument.  D_m's at d = 0, base = 0; `chow._diagonal`'s at base 1:

    >>> _q_egf_bounds(4)
    ((1, 0, 1, 2, 9), (0, 0, 0, 0, 4))
    """

    def edges(m):
        for a in range(m - 1):
            yield (a, comb(d + m, d + a) * (m - a - 1), (m - a) * (d + a)) if a else (0, m - 1, 0)

    norms, degrees = recurrence_bounds(range(n_max + 1), lambda m: base if m else 1, edges)
    return tuple(norms.values()), tuple(degrees.values())


def _eulerian_horner(m, c, layout):
    """A_m = c_(m-1) + (t - q)(c_(m-2) + (t - q^2)(... + (t - q^(m-1)) c_0)),
    the sum of c_a f_(m-a) by `t_horner` with k_a = m - a: each multiply by
    t - q^i is two shifts and a subtraction."""
    return t_horner(layout, c, range(m, 0, -1))


def _derangement_horner(m, c, layout):
    """D_m = sum_{a <= m-2} c_a t [m-a-1]_t = t sum_k P_k t^(m-2-k), in Horner
    form in t alone, with P_k = c_0 + ... + c_k the prefix sums."""
    return t_horner(layout, chain(accumulate(islice(c, m - 1)), [0]))


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
        row = [1, *map(add, row, map(lshift, row[1:], count(qs, qs))), 1][:width]


def _q_egf(n, horner, layout, d=0, base=0):
    """x_0, ..., x_n of x_m = base + sum_{a < m} c_a g_(m - a) from x_0 = 1,
    c_0 = 1 and c_a = [d+m over d+a]_q x_a: at d = 0, base = 0 the cleared
    q-EGF recurrence of A_n and D_n, at base = 1 `chow._diagonal`.  Each x_m
    is kept as its t-rows where qs > 0 (`exactalg.t_horner`) at the
    caller's `layout`, fixed for what it reads back (see `Layout`); nothing
    is read back here.  Each binomial is read as [d+m over m-a]_q from rows
    d + 1, ..., d + n of `q_pascal_rows(qs, width=n)`, and each c_a is one
    product a t-row, taken lazily: `horner(m, c, layout)`, which sums the
    c_a g_(m - a) by shifts and adds, takes only the products it reads.
    """
    packed = [1]
    for m, row in enumerate(islice(q_pascal_rows(layout.qs, width=n), d + 1, d + n + 1), 1):
        packed.append(base + horner(m, chain([1], map(mul, row[m - 1 : 0 : -1], packed[1:])), layout))
    return packed


@lru_cache(maxsize=None)
def q_eulerian_by_recurrence(n):
    """A_n(q,t) from h_n = sum_k [n over k]_q h_k prod_{i=1}^{n-1-k} (t - q^i):
    A_0, ..., A_n at the layout of A_n alone, whose nonnegative coefficients
    sum to n! and whose q-degree is at most C(n, 2), and only A_n read back."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    layout = Layout(factorial(n), comb(n, 2))
    return layout.read(join_rows(_q_egf(n, _eulerian_horner, layout)[n], layout.ts), n + 1)


@lru_cache(maxsize=None)
def derangement_polynomial(n):
    """D_n(q,t): the sum of q^(maj-exc) t^exc over the derangements of [n].

    Shareshian-Wachs give sum_n D_n z^n/[n]_q! = (1-t)/(e_q(tz) - t e_q(z));
    with the denominators cleared, D_m = sum_{a < m} [m over a]_q D_a t [m-a-1]_t
    (the a = m-1 term is 0, as [0]_t = 0).  D_0, ..., D_n at the layout of
    D_n alone, (B_n, d_n) of `_q_egf_bounds`, and only D_n read back:

    >>> derangement_polynomial(4).to_text()
    't + (2 + q + 2*q^2 + q^3 + q^4)*t^2 + t^3'
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    norms, degrees = _q_egf_bounds(n)
    layout = Layout(norms[n], degrees[n])
    return layout.read(join_rows(_q_egf(n, _derangement_horner, layout)[n], layout.ts), n + 1)


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
