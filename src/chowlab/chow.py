"""Hilbert series of Chow rings by four independent routes, plus the
difference series between consecutive ranks.

Routes
------
chain sum    : sum over strictly increasing rank tuples, each weighted by
               its chain count and the product of t*[gap-1]_t factors
               (level homogeneity collapses chains to rank profiles); the
               same walk at t = -1 is the cd chain route of `charney`;
recurrence   : peel the lattice at each level and recurse into the upper
               interval, on the same diagonal n - r: `qeuler._q_egf`, the
               loop of A_n and D_n, with only rank r read back;
closed form  : one packed sum over the fixed-point fibers m < r of
               [n over m]_q D_m(q,t) [r - m]_t, from the bottom;
monomial oracle : count flag-supported basis monomials with rank-gap
               exponent bounds directly on an explicit lattice.

All four must agree; the first three symbolically in q, the oracle after
evaluating q at the lattice's field size (q = 1 for uniform).
"""

from functools import lru_cache
from itertools import accumulate, islice
from math import comb
from operator import mul

from .errors import RouteTable
from .exactalg import Layout, join_rows, recurrence_bounds, t_horner, tuple_sum
from .flats import UNIFORM, FamilySpec, build_explicit
from .qeuler import _derangement_horner, _q_egf, _q_egf_bounds, q_pascal_rows


def hilbert_chain_sum(spec):
    """Hilbert series by the chain walk, `_chain_walk(spec)`."""
    return _chain_walk(spec)


def _chain_walk(spec, t=None):
    """H(q, t), or with an `int` t its value there, as the sum over the rank
    tuples 0 = e_0 < e_1 < ... < e_m <= r of the products of their steps
    (`_chain_steps`): one `tuple_sum` of the packed steps at the layout of
    `_chain_bounds`, each binomial read from the rows of
    `qeuler.q_pascal_rows(qs, width=r)`, and one read back, r rows, or 1 at
    an `int` t.  At t = -1 it is `charney`'s unsigned cd chain sum."""
    steps = _chain_steps(spec, t)
    layout = Layout(*_chain_bounds(spec, steps))
    rows = list(islice(q_pascal_rows(layout.qs, width=spec.r), spec.n + 1))
    packed = {lower: [(upper, sum(c * rows[m][k] << j * layout.ts for j, c in enumerate(factor) if c))
                      for upper, (m, k), factor in pairs] for lower, pairs in steps.items()}
    return layout.read(tuple_sum(packed), spec.r if t is None else 1)


def _chain_steps(spec, t=None):
    """Each step of the chain walk, declared once: steps[lower] lists
    (upper, (m, k), factor) for lower + 2 <= upper <= r, where [m over k]_q
    is the number of rank-upper flats above a rank-lower one, (0, 0) at
    upper = r, and factor the t-coefficients of t [g - 1]_t, g = upper -
    lower, or with an `int` t its value there.  A step whose factor is 0 is
    dropped: at t = -1, those of odd g.  Only the lowers a tuple reaches
    are keys, ascending: never rank 1, nor at t = -1 an odd rank.

    >>> _chain_steps(FamilySpec.vector(4, 4))[0], _chain_steps(FamilySpec.vector(4, 4), -1)[0]
    ([(2, (4, 2), [0, 1]), (3, (4, 3), [0, 1, 1]), (4, (0, 0), [0, 1, 1, 1])], [(2, (4, 2), [-1]), (4, (0, 0), [-1])])
    >>> list(_chain_steps(FamilySpec.vector(4, 4))), list(_chain_steps(FamilySpec.vector(9, 9), -1))
    ([0, 2, 3, 4], [0, 2, 4, 6, 8])
    """
    n, r = spec.n, spec.r
    factors = [[0] + [1] * (g - 1) if t is None else [sum(t**a for a in range(1, g))] for g in range(r + 1)]
    steps, reached = {}, {0}
    for lower in filter(reached.__contains__, range(r + 1)):
        steps[lower] = [(upper, (n - lower, upper - lower) if upper < r else (0, 0), factors[upper - lower])
                        for upper in range(lower + 2, r + 1) if any(factors[upper - lower])]
        reached.update(upper for upper, *_ in steps[lower])
    return steps


def _chain_bounds(spec, steps):
    """Bounds (N, D) for the walk over `steps`: `recurrence_bounds` over the
    reached ranks from the top down, each step of norm C(m, k) ||factor||_1
    and q-degree k (m - k), 0 for uniform.  With t symbolic, N = H(1, 1):

    >>> v, u = FamilySpec.vector(5, 5), FamilySpec.uniform(5, 5)
    >>> [_chain_bounds(spec, _chain_steps(spec, t)) for t in (None, -1) for spec in (v, u)]
    [(120, 8), (120, 0), (46, 8), (46, 0)]
    """
    vector = spec.kind != UNIFORM
    norms, degrees = recurrence_bounds(sorted(steps, reverse=True), lambda lower: 1, lambda lower: (
        (upper, comb(m, k) * sum(map(abs, factor)), vector * k * (m - k)) for upper, (m, k), factor in steps[lower]))
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
    (i = m).  That is `qeuler._q_egf` at d and base 1, its c_0 = 1 the top
    flat, at one `Layout` for H_1, ..., H_r fixed from `_diagonal_bounds`
    before any product; the uniform family's d_m are 0, so its q is 1.
    `horner(m, c, layout)` is the sum of c_a t [m-a-1]_t over a <= m - 2:
    `qeuler._derangement_horner` for the series itself, or the same sum at
    any value of t, since substituting one is a ring homomorphism.  H_(r-1)
    is not needed, so it is left at its base, with no product taken.
    """
    r = spec.r
    layout = Layout(*map(max, _diagonal_bounds(spec)))
    packed = _q_egf(r, lambda m, c, layout: 0 if m == r - 1 else horner(m, c, layout), layout, spec.n - r, base=1)
    return join_rows(packed[r], layout.ts), layout


def _diagonal_bounds(spec):
    """Bounds (B_m, d_m) for H_m = H(d + m, m), 0 <= m <= r, on the diagonal
    d = n - r of `spec`: `qeuler._q_egf_bounds` at d and base 1, with the
    q-degrees 0 for uniform.  Every coefficient of H_m is nonnegative, so
    B_m = H_m(1, 1):

    >>> _diagonal_bounds(FamilySpec.vector(7, 5))
    ((1, 1, 2, 13, 74, 523), (0, 0, 0, 6, 9, 16))
    >>> _diagonal_bounds(FamilySpec.uniform(7, 5))
    ((1, 1, 2, 13, 74, 523), (0, 0, 0, 0, 0, 0))
    """
    norms, degrees = _q_egf_bounds(spec.r, spec.n - spec.r, 1)
    return norms, degrees if spec.kind != UNIFORM else (0,) * len(degrees)


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
    `Layout`).  Each c_m = [n over m]_q D_m is one product a t-row, with the
    binomials from row n of `q_pascal_rows(qs)`, and the sum is `t_horner`
    of the c_m or, when `cumulative`, of their prefix sums, as
    sum_m c_m [top + 1 - m]_t = sum_j t^j (c_0 + ... + c_(top - j)).
    """
    norms, degrees = _q_egf_bounds(top)
    norm = sum(comb(n, m) * b * (top + 1 - m if cumulative else 1) for m, b in enumerate(norms))
    layout = Layout(norm, 0 if q_one else max(m * (n - m) + d for m, d in enumerate(degrees)))
    binomials = next(islice(q_pascal_rows(layout.qs, width=top + 1), n, None))
    c = map(mul, binomials, _q_egf(top, _derangement_horner, layout))
    x = t_horner(layout, accumulate(c) if cumulative else c)
    return layout.read(join_rows(x, layout.ts), top + 1)


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


# -- routes ----------------------------------------------------------------


# The routes by `--method` name, in `--help` order, each taking (spec, p) and
# looking its function up when called, so a function rebound here is the one
# that runs.  The ORACLE builds an explicit lattice, at the prime p for vector.
ORACLE = "oracle"
ROUTES = RouteTable({
    "chain": lambda spec, p=None: hilbert_chain_sum(spec),
    "recurrence": lambda spec, p=None: hilbert_recurrence(spec),
    "closed": lambda spec, p=None: hilbert_closed_form(spec),
    ORACLE: lambda spec, p=None: basis_monomial_oracle(build_explicit(spec, p), spec.r),
})


def hilbert(spec, method="recurrence", p=None):
    """Hilbert series by the route `ROUTES[method]`; `p` is the oracle's prime."""
    return ROUTES[method](spec, p)
