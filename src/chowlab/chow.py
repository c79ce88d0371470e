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
closed form  : one packed sum over the fixed-point fibers m < r of
               [n over m]_q D_m(q,t) [r - m]_t, from the bottom;
monomial oracle : count flag-supported basis monomials with rank-gap
               exponent bounds directly on an explicit lattice.

All four must agree; the first three symbolically in q, the oracle after
evaluating q at the lattice's field size (q = 1 for uniform).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import mul

from .exactalg import Layout
from .flats import UNIFORM, FamilySpec, build_explicit, chains_above
from .qeuler import _derangement_horner, _q_egf, _q_egf_bounds, _t_quantum_size, q_pascal_rows


def hilbert_chain_sum(spec):
    """Hilbert series as the sum over the rank tuples 0 = e_0 < e_1 < ...
    < e_m <= r, every gap at least 2, of the products of
    chains_above(e_(i-1), e_i) t [e_i - e_(i-1) - 1]_t.  Every tuple is
    visited, each one `int` product: its parent's (the tuple without e_m)
    times the packed factor of its last step.  Walked in order of the last
    rank, a parent comes before its children, and `ending[lower]` is freed
    after its pass.  The layout is `_chain_sum_bounds`; one read back."""
    r = spec.r
    layout = Layout(*_chain_sum_bounds(spec))
    ending = [[1]] + [[] for _ in range(r)]  # ending[e]: the products of the tuples with last rank e
    total = 0
    for lower in (0, *range(2, r + 1)):  # no tuple ends at rank 1
        parents, ending[lower] = ending[lower], None
        total += sum(parents)
        for upper in range(lower + 2, r + 1):
            binomial = layout.pack(chains_above(spec, lower, upper).terms, 1)
            step = sum(binomial << a * layout.ts for a in range(1, upper - lower))  # times t [upper - lower - 1]_t
            ending[upper] += map(mul, parents, repeat(step))
    return layout.read(total, r)


def _chain_sum_bounds(spec):
    """Bounds (N, D) for `hilbert_chain_sum`, fixed before any product: N is
    the sum of its products' l1 norms, each step a factor ||chains_above||_1
    (gap - 1), and D their largest q-degree, each step adding that of
    chains_above, by one pass from r down over the tails of the tuples from
    `lower` up.  Every coefficient is nonnegative, so N = H(1, 1):

    >>> _chain_sum_bounds(FamilySpec.vector(5, 5)), _chain_sum_bounds(FamilySpec.uniform(5, 5))
    ((120, 8), (120, 0))
    """
    norms, degrees = {}, {}
    for lower in range(spec.r, -1, -1):
        steps = [(upper, chains_above(spec, lower, upper)) for upper in range(lower + 2, spec.r + 1)]
        norms[lower] = 1 + sum(f.eval(1, 1) * (upper - lower - 1) * norms[upper] for upper, f in steps)
        degrees[lower] = max((f.q_degree() + degrees[upper] for upper, f in steps), default=0)
    return norms[0], degrees[0]


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
    """H(n, r) = sum_{m < r} [n over m]_q D_m(q, t) [r - m]_t by `_fiber_sum`,
    from D_0, ..., D_(r-1) alone.  It is H(n, 1) = 1 plus delta_series(n, j)
    for 1 <= j < r, whose m-th terms add up to [n over m]_q D_m [r - m]_t,
    the 1 completing the m = 0 term as D_0 = 1.  Uniform is it at q = 1."""
    return _fiber_sum(spec.n, spec.r - 1, q_one=spec.kind == UNIFORM, cumulative=True)


def delta_series(n, r):
    """Difference of Hilbert series between ranks r+1 and r: the sum of
    q^(maj-exc) t^(r-exc) over permutations with at least n-r fixed points,
    which is sum_{m <= r} [n over m]_q t^r D_m(q, 1/t), and
    sum_{m <= r} [n over m]_q D_m(q, t) t^(r-m), as t^m D_m(q, 1/t) = D_m(q, t)
    (Shareshian and Wachs, Adv. Math. 225, 2010).  See `_fiber_sum`."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return _fiber_sum(n, r, q_one=False, cumulative=False)


def _fiber_sum(n, top, q_one, cumulative):
    """sum_{m <= top} [n over m]_q D_m(q, t) w_m(t), w_m = t^(top - m), or
    [top + 1 - m]_t when `cumulative`; with `q_one`, its value at q = 1.

    The layout holds the sum: norm sum_m C(n, m) B_m ||w_m||_1 and q-degree
    max_m m(n - m) + d_m (0 with `q_one`), (B_m, d_m) from `_q_egf_bounds`.
    D_0, ..., D_top are built at it by `_q_egf` and never read back (see
    `Layout`).  Each c_m = [n over m]_q D_m is one `int` product, with the
    binomials from row n of `q_pascal_rows(qs)`, and the sum is in Horner
    form in t, of the c_m or, when `cumulative`, of their prefix sums, as
    sum_m c_m [top + 1 - m]_t = sum_j t^j (c_0 + ... + c_(top - j)).
    """
    norms, degrees = _q_egf_bounds(top, _t_quantum_size)
    norm = sum(comb(n, m) * b * (top + 1 - m if cumulative else 1) for m, b in enumerate(norms))
    layout = Layout(norm, 0 if q_one else max(m * (n - m) + d for m, d in enumerate(degrees)))
    binomials = next(islice(q_pascal_rows(layout.qs, width=top + 1), n, None))
    c = map(mul, binomials, _q_egf(top, _derangement_horner, layout))
    x = 0
    for c_m in accumulate(c) if cumulative else c:
        x = (x << layout.ts) + c_m
    return layout.read(x, top + 1)


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

