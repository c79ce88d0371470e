"""Hilbert series of Chow rings by four independent routes, plus the
difference series between consecutive ranks.

Routes
------
chain sum    : sum over strictly increasing rank tuples, each weighted by
               its chain count and the product of t*[gap-1]_t factors
               (level homogeneity collapses chains to rank profiles);
recurrence   : peel the lattice at each level and recurse into the upper
               interval (filled bottom-up along each diagonal n - r);
closed form  : A_n(q,t) minus the difference series of the ranks above r,
               each a sum of [n over m]_q times a t-reversed D_m(q,t);
monomial oracle : count flag-supported basis monomials with rank-gap
               exponent bounds directly on an explicit lattice.

All four must agree; the first three symbolically in q, the oracle after
evaluating q at the lattice's field size (q = 1 for uniform).
"""

from __future__ import annotations

from itertools import combinations

from .exactalg import BiPoly, ONE, T, gauss_binomial, sum_of_products, t_quantum
from .flats import UNIFORM, FamilySpec, build_explicit, chains_above, level_size
from .qeuler import classical_eulerian, derangement_polynomial, q_eulerian_by_recurrence


def hilbert_chain_sum(spec):
    """Hilbert series as the rank-tuple chain sum."""
    gap_factor = {gap: T * t_quantum(gap - 1) for gap in range(2, spec.r + 1)}
    products = []
    for m in range(1, spec.r + 1):
        for ranks in combinations(range(1, spec.r + 1), m):
            steps = list(zip((0,) + ranks, ranks))
            if all(upper - lower >= 2 for lower, upper in steps):
                products.append(
                    [chains_above(spec, lower, upper) for lower, upper in steps]
                    + [gap_factor[upper - lower] for lower, upper in steps]
                )
    return ONE + sum_of_products(products)


# (kind, n - r) -> {r: H(kind, n, r)} along that diagonal.
_DIAGONALS = {}


def hilbert_recurrence(spec):
    """Hilbert series via the upper-interval recursion.

    H(n, r) needs H(n - i, r - i) for 2 <= i < r: every rank up to r - 2 on
    the diagonal n - r.  They are computed bottom-up in a loop and kept.
    """
    d = spec.n - spec.r
    memo = _DIAGONALS.setdefault((spec.kind, d), {})
    for r in (*range(1, spec.r - 1), spec.r):
        if r not in memo:
            level = FamilySpec(spec.kind, d + r, r)
            products = ((T * t_quantum(i - 1), level_size(level, i), memo[r - i]) for i in range(2, r))
            memo[r] = t_quantum(r) + sum_of_products(products)
    return memo[spec.r]


def hilbert_closed_form(spec):
    """Full-rank polynomial minus the difference series of the ranks above r.

    For the vector family the full-rank polynomial is A_n(q,t); the uniform
    family takes the classical A_n(t) and the difference series at q = 1.
    """
    deltas = sum((delta_series(spec.n, j) for j in range(spec.r, spec.n)), BiPoly())
    if spec.kind == UNIFORM:
        return classical_eulerian(spec.n) - deltas.subs_q_int(1)
    return q_eulerian_by_recurrence(spec.n) - deltas


def delta_series(n, r):
    """Difference of Hilbert series between ranks r+1 and r: the sum of
    q^(maj-exc) t^(r-exc) over permutations with at least n-r fixed points,
    which is sum_{m <= r} [n over m]_q t^r D_m(q, 1/t)."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return sum_of_products(
        (gauss_binomial(n, m), BiPoly({(qd, r - td): c for (qd, td), c in derangement_polynomial(m).terms.items()}))
        for m in range(r + 1)
    )


# -- brute-force oracle on explicit lattices ------------------------------


def basis_monomial_oracle(lat, r):
    """The graded dimensions of the Chow ring of an explicit lattice, as the
    t-polynomial sum_k dim_k t^k, by counting basis monomials per degree.

    A monomial is a descending chain of non-bottom flats with exponents
    1 <= a_i <= rank(F_i) - rank(F_next) - 1, the bottom closing the chain;
    the degree-k dimension is the number of monomials of total degree k.
    """
    counts = [[0] * r for _ in range(len(lat))]

    # counts[i][d]: monomial tails of degree d whose topmost flat is element i.
    for i in sorted(range(len(lat)), key=lambda i: lat.ranks[i]):
        if i == lat.bottom:
            continue
        rank_i = lat.ranks[i]
        for alpha in range(1, rank_i):  # the tail ending at the bottom
            counts[i][alpha] += 1
        for j in lat.below[i]:
            if j == lat.bottom:
                continue
            for alpha in range(1, rank_i - lat.ranks[j]):
                for d, c in enumerate(counts[j]):
                    if c and d + alpha < r:
                        counts[i][d + alpha] += c
    dims = [0] * r
    dims[0] = 1  # the empty monomial
    for i in range(len(lat)):
        for d, c in enumerate(counts[i]):
            dims[d] += c
    return BiPoly({(0, k): d for k, d in enumerate(dims)})


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

