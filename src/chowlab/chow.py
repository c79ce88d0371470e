"""Hilbert series of Chow rings by four independent routes, plus the
difference series between consecutive ranks and its derangement data.

Routes
------
chain sum    : sum over strictly increasing rank tuples, each weighted by
               its chain count and the product of t*[gap-1]_t factors
               (level homogeneity collapses chains to rank profiles);
recurrence   : peel the lattice at each level and recurse into the upper
               interval (filled bottom-up along each diagonal n - r);
closed form  : the full-rank polynomial minus the fixed-point permutation
               sums, with the inner exponent t^(j-exc);
monomial oracle : count flag-supported basis monomials with rank-gap
               exponent bounds directly on an explicit lattice.

All four must agree; the first three symbolically in q, the oracle after
evaluating q at the lattice's field size (q = 1 for uniform).
"""

from __future__ import annotations

from itertools import combinations

from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly, ONE, T, diff_terms, gauss_binomial, t_quantum
from .flats import UNIFORM, FamilySpec, build_explicit, chains_above, level_size
from .permstat import statistic_sum
from .qeuler import classical_eulerian, q_eulerian_by_recurrence

ORACLE_MAX_ELEMENTS = 200


def hilbert_chain_sum(spec):
    """Hilbert series as the rank-tuple chain sum."""
    total = ONE
    for m in range(1, spec.r + 1):
        for ranks in combinations(range(1, spec.r + 1), m):
            term = ONE
            lower = 0
            for upper in ranks:
                gap = upper - lower
                if gap < 2:
                    term = BiPoly()
                    break
                term = term * chains_above(spec, lower, upper) * T * t_quantum(gap - 1)
                lower = upper
            total = total + term
    return total


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
            total = t_quantum(r)
            for i in range(2, r):
                total = total + T * level_size(level, i) * t_quantum(i - 1) * memo[r - i]
            memo[r] = total
    return memo[spec.r]


def hilbert_closed_form(spec, bound=None):
    """Full-rank polynomial minus the minimum-fixed-point sums.

    For the vector family the full-rank polynomial is A_n(q,t); the uniform
    family is the same computation with q fixed to 1 throughout.
    """
    n = spec.n
    if spec.kind == UNIFORM:
        total, q_exp = classical_eulerian(n), lambda s: 0
    else:
        total, q_exp = q_eulerian_by_recurrence(n), lambda s: s.maj - s.exc
    for j in range(spec.r, n):
        total = total - statistic_sum(n, lambda s: (q_exp(s), j - s.exc) if s.fix >= n - j else None, bound)
    return total


def delta_series(n, r, bound=None):
    """Difference of Hilbert series between ranks r+1 and r, as the sum of
    q^(maj-exc) t^(r-exc) over permutations with at least n-r fixed points."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return statistic_sum(n, lambda s: (s.maj - s.exc, r - s.exc) if s.fix >= n - r else None, bound)


def q_derangement_number(n, k, bound=None):
    """Sum of q^(maj-exc) over derangements of [n] with exc = n-k."""
    return statistic_sum(n, lambda s: (s.maj - s.exc, 0) if s.fix == 0 and s.exc == n - k else None, bound)


def delta_coefficient(n, r, k, bound=None):
    """Coefficient of t^k in the rank-(r+1) vs rank-r difference series,
    assembled from Gaussian binomials and derangement sums.

    Cross-checked against the direct permutation sum; a mismatch is an
    internal invariant violation.
    """
    total = BiPoly()
    for i in range(r + 1):
        if k - i < 0:
            continue
        total = total + gauss_binomial(n, r - i) * q_derangement_number(r - i, k - i, bound)
    direct = delta_series(n, r, bound).coefficient_in_t(k)
    if total != direct:
        raise RouteDisagreementError(
            f"delta coefficient (n={n}, r={r}, k={k})",
            total.to_text(),
            direct.to_text(),
            str(diff_terms(total, direct)),
        )
    return total


# -- brute-force oracle on explicit lattices ------------------------------


def basis_monomial_oracle(lat, r):
    """The graded dimensions of the Chow ring of an explicit lattice, as the
    t-polynomial sum_k dim_k t^k, by counting basis monomials per degree.

    A monomial is a descending chain of non-bottom flats with exponents
    1 <= a_i <= rank(F_i) - rank(F_next) - 1, the bottom closing the chain;
    the degree-k dimension is the number of monomials of total degree k.
    """
    if len(lat) > ORACLE_MAX_ELEMENTS:
        raise ResourceBoundError(
            f"lattice with {len(lat)} elements exceeds oracle cap {ORACLE_MAX_ELEMENTS}"
        )
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


def hilbert(spec, method="recurrence", bound=None, p=None):
    """Hilbert series by the named route: chain | recurrence | closed | oracle."""
    if method == "chain":
        return hilbert_chain_sum(spec)
    if method == "recurrence":
        return hilbert_recurrence(spec)
    if method == "closed":
        return hilbert_closed_form(spec, bound)
    if method == "oracle":
        return basis_monomial_oracle(build_explicit(spec, p), spec.r)
    raise ValueError(f"unknown method {method!r}")

