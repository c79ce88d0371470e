"""Hilbert series of Chow rings by four independent routes, plus the
difference series between consecutive ranks.

Routes
------
chain sum    : sum over strictly increasing rank tuples, each weighted by
               its chain count and the product of t*[gap-1]_t factors
               (level homogeneity collapses chains to rank profiles);
recurrence   : peel the lattice at each level and recurse into the upper
               interval, on the same diagonal n - r: one packed Horner sum
               per rank, bottom-up, and only rank r read back;
closed form  : A_n(q,t) minus the difference series of the ranks above r,
               added up as one sum of [n over m]_q times a t-reversed
               D_m(q,t) times a [n - k]_t;
monomial oracle : count flag-supported basis monomials with rank-gap
               exponent bounds directly on an explicit lattice.

All four must agree; the first three symbolically in q, the oracle after
evaluating q at the lattice's field size (q = 1 for uniform).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb
from operator import mul

from .exactalg import BiPoly, Layout, ONE, T, gauss_binomial, sum_of_products, t_quantum
from .flats import UNIFORM, FamilySpec, build_explicit, chains_above
from .qeuler import (
    _derangement_horner,
    classical_eulerian,
    derangement_polynomials,
    q_eulerian_by_recurrence,
    q_pascal_rows,
)


def hilbert_chain_sum(spec):
    """Hilbert series as the rank-tuple chain sum.  The kept tuples, those
    whose gaps from 0 up are all at least 2, are rank_i = pick_i + i for the
    increasing m-tuples of picks in 1 .. r - m, so m <= r // 2."""
    r = spec.r
    gap_factor = {gap: T * t_quantum(gap - 1) for gap in range(2, r + 1)}
    products = []
    for m in range(1, r // 2 + 1):
        for picks in combinations(range(1, r - m + 1), m):
            ranks = [pick + i for i, pick in enumerate(picks, 1)]
            steps = list(zip([0] + ranks, ranks))
            products.append(
                [chains_above(spec, lower, upper) for lower, upper in steps]
                + [gap_factor[upper - lower] for lower, upper in steps]
            )
    return ONE + sum_of_products(products)


@lru_cache(maxsize=None)
def hilbert_recurrence(spec):
    """Hilbert series via the upper-interval recursion, as one packed Horner
    sum per rank along the diagonal d = n - r (`_diagonal`), with only H_r
    read back: deg_q H_r <= d_r, deg_t H_r < r, and each coefficient is at
    most B_r, so it fits the layout."""
    packed, layout = _diagonal(spec, _derangement_horner)
    return layout.read(packed, spec.r)


def _diagonal(spec, horner):
    """The packing of H_r = H(n, r) by the recurrence along the diagonal
    d = n - r, and its `Layout`; nothing is read back.

    Peeling the rank-i flats of (n, r) leaves the interval (n - i, r - i),
    on the same diagonal.  With H_m = H(d + m, m), H_0 = 1 and a = r - i:

        H_m = [m]_t + sum_{1 <= a <= m-2} [d+m over d+a]_q H_a t [m-a-1]_t,

    where [m]_t = 1 + t [m-1]_t H_0 comes from the top level, one flat
    (i = m).

    - Layout.  As in `qeuler._q_egf`: one `Layout` for H_1, ..., H_r, fixed
      from `_diagonal_bounds` before any product.  For the uniform family
      every d_m is 0, so the layout's q is 1.
    - Recurrence.  Each binomial is read as [d+m over d+a]_q =
      [d+m over m-a]_q, with 2 <= m - a < r, from the rows d + 1, ..., d + r
      of `qeuler.q_pascal_rows(qs)` cut to their first r entries (Pascal's
      triangle for the uniform family), so a long diagonal costs r entries
      a row.  Each c_a = [d+m over d+a]_q H_a is one integer product, with
      c_0 = 1, and `horner(m, c, qs, ts)` is the packing of the sum of
      c_a t [m-a-1]_t over a <= m - 2: `qeuler._derangement_horner` for the
      series itself, or the same sum at any value of t, since substituting
      one is a ring homomorphism.  Adding 1 then gives the [m]_t term.
      H_(r-1) is not needed.  The loop does not recurse.
    """
    d, r = spec.n - spec.r, spec.r
    layout = Layout(*map(max, _diagonal_bounds(spec)))
    packed = [1]  # H_0; H_(r-1) is never read, so it is left at 0
    for m, row in enumerate(islice(q_pascal_rows(layout.qs, width=r), d + 1, d + r + 1), 1):
        if m == r - 1:
            packed.append(0)
            continue
        c = chain([1], map(mul, row[m - 1 : 1 : -1], packed[1 : m - 1]))
        packed.append(1 + horner(m, c, layout.qs, layout.ts))
    return packed[r], layout


def _diagonal_bounds(spec):
    """Bounds (B_m, d_m) for H_m = H(d + m, m), 0 <= m <= r, on the diagonal
    d = n - r of `spec`, fixed before any H_m is computed.  The recurrence of
    `_diagonal` at q = t = 1 gives

        B_m = m + sum_{1 <= a <= m-2} C(d+m, d+a) B_a (m-a-1),

    and every coefficient of H_m is nonnegative, so B_m = H_m(1, 1) exactly.
    q-degrees add through each product: d_m = max_a (m-a)(d+a) + d_a, and
    every d_m is 0 for the uniform family:

    >>> _diagonal_bounds(FamilySpec.vector(7, 5))
    ([1, 1, 2, 13, 74, 523], [0, 0, 0, 6, 9, 16])
    >>> _diagonal_bounds(FamilySpec.uniform(7, 5))
    ([1, 1, 2, 13, 74, 523], [0, 0, 0, 0, 0, 0])
    """
    d = spec.n - spec.r
    vector = spec.kind != UNIFORM
    norms, degrees = [1], [0]
    for m in range(1, spec.r + 1):
        norm, degree = m, 0
        for a in range(1, m - 1):
            norm += comb(d + m, d + a) * norms[a] * (m - a - 1)
            degree = max(degree, vector * (m - a) * (d + a) + degrees[a])
        norms.append(norm)
        degrees.append(degree)
    return norms, degrees


def hilbert_closed_form(spec):
    """Full-rank polynomial minus the difference series of the ranks above r.

    Over j = r .. n-1 the m-th terms of `delta_series(n, j)` add up to
    [n over m]_q t^k D_m(q, 1/t) [n - k]_t, k = max(m, r): one sum of n
    products.  For the vector family the full-rank polynomial is A_n(q,t);
    the uniform family takes the classical A_n(t) and the sum at q = 1.
    """
    n, r = spec.n, spec.r
    deltas = sum_of_products(
        (gauss_binomial(n, m), _reversed(d, max(m, r)), t_quantum(n - max(m, r)))
        for m, d in enumerate(derangement_polynomials(n - 1))
    )
    if spec.kind == UNIFORM:
        return classical_eulerian(n) - deltas.subs_q_int(1)
    return q_eulerian_by_recurrence(n) - deltas


def delta_series(n, r):
    """Difference of Hilbert series between ranks r+1 and r: the sum of
    q^(maj-exc) t^(r-exc) over permutations with at least n-r fixed points,
    which is sum_{m <= r} [n over m]_q t^r D_m(q, 1/t)."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return sum_of_products((gauss_binomial(n, m), _reversed(d, r)) for m, d in enumerate(derangement_polynomials(r)))


def _reversed(poly, k):
    """t^k poly(q, 1/t), for k at least the t-degree of poly."""
    return BiPoly({(qd, k - td): c for (qd, td), c in poly.terms.items()})


# -- brute-force oracle on explicit lattices ------------------------------


def basis_monomial_oracle(lat, r):
    """The graded dimensions of the Chow ring of an explicit lattice, as the
    t-polynomial sum_k dim_k t^k, by counting basis monomials per degree.

    A monomial is a descending chain of non-bottom flats with exponents
    1 <= a_i <= rank(F_i) - rank(F_next) - 1, the bottom closing the chain;
    the degree-k dimension is the number of monomials of total degree k.
    The monomials topped by flat i, as a t-polynomial, are

        c_i = sum_{j < i} c_j t [rank i - rank j - 1]_t,   c_bottom = 1,

    the bottom's 1 being the empty monomial, and dims = sum_i c_i, read up
    to degree r - 1.  Each c_j is a packed `int` at `Layout(bound, 0)`, and
    the c_j below i are added by rank gap before the gap's factor
    multiplies them.  bound = 2^N R^R, R the lattice's rank: a monomial is
    a chain of the N elements with at most R exponents, each below R, and
    every count is nonnegative, so every coefficient of dims is at most
    the bound.
    """
    layout = Layout(2 ** len(lat) * lat.rank**lat.rank, 0)
    factor = [sum(1 << a * layout.ts for a in range(1, gap)) for gap in range(lat.rank + 1)]  # t [gap - 1]_t
    counts = [0] * len(lat)
    counts[lat.bottom] = 1
    for i in sorted(range(len(lat)), key=lat.ranks.__getitem__):
        rank_i = lat.ranks[i]
        by_rank = [0] * rank_i
        for j in lat.below[i]:
            by_rank[lat.ranks[j]] += counts[j]
        counts[i] += sum(c * factor[rank_i - k] for k, c in enumerate(by_rank) if c)
    return layout.read(sum(counts) & ((1 << r * layout.ts) - 1), r)


# -- route dispatch --------------------------------------------------------


def hilbert(spec, method="recurrence", p=None):
    """Hilbert series by the named route: chain | recurrence | closed | oracle."""
    if method == "chain":
        return hilbert_chain_sum(spec)
    if method == "recurrence":
        return hilbert_recurrence(spec)
    if method == "closed":
        return hilbert_closed_form(spec)
    if method == "oracle":
        return basis_monomial_oracle(build_explicit(spec, p), spec.r)
    raise ValueError(f"unknown method {method!r}")

