"""Charney-Davis quantities by independent routes, and the classical and
q-analog tangent-secant numbers that govern them.

For odd rank r the unsigned quantity is H(A, -1) and the signed quantity
carries the prefactor (-1)^((r-1)/2); both are always reported because the
uniform-specialization statement matches the unsigned value while the
q-statement matches the signed one.  Even rank always gives zero.

Every route computes in Z[q], or in Z for the uniform family, never in
Z[q, t].  The direct route is the Hilbert recurrence with t = -1
substituted before any product, which is exact because substitution is a
ring homomorphism; the chain route visits every tuple of even ranks, each
one `int` product from its parent's.

The paper writes the odd-rank quantity as a sum of determinants T(n, 2a)
of Gaussian-binomial matrices, or as a sum of q-secant numbers.  The two
are one sum: both matrices rescale one Toeplitz matrix in 1/(q;q)_2k, so
T(n, 2a) = [n over 2a]_q E_2a, and the `det` and `qsecant` methods both
sum [n over 2a]_q E_2a over 2a < r (over Z for the uniform family).  The
table of E_n is built by two routes independent in substance (see
`tangent_secant`), and the `tangent-secant` suite of `chowlab.checks`
checks the paper's determinants against it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import comb
from operator import mul

from .errors import require_equal
from .exactalg import ZERO, BiPoly, Layout, gauss_binomial
from .chow import _diagonal
from .flats import UNIFORM
from .qeuler import q_pascal_rows


class CDResult(namedtuple("CDResult", "unsigned signed parity")):
    """`unsigned` is H(A, -1) as a q-polynomial, `signed` is (-1)^((r-1)/2)
    times it for odd r and 0 for even r, and `parity` is r mod 2."""

    __slots__ = ()


def _signed(unsigned, r):
    if r % 2 == 0:
        return CDResult(unsigned, unsigned, 0)
    return CDResult(unsigned, -unsigned if (r - 1) // 2 % 2 else unsigned, 1)


def cd_direct(spec):
    """H(A, -1) by the diagonal recurrence of `chow.hilbert_recurrence`
    with t = -1 substituted before any product (`_at_t_minus_one`).
    Substitution is a ring homomorphism Z[q, t] -> Z[q], so the one t-row
    read back is H(q, -1) exactly.  The layout is the recurrence's own: B_r
    is the sum of the nonnegative coefficients of H_r(q, t), so it bounds
    every coefficient of H_r(q, -1), and for the uniform family it has
    q-degree 0, so the route is plain integer arithmetic.  H_r reads only
    the H_m with m = r (mod 2), so a row m of the other parity returns 0 at
    once, without taking any product: those rows hold placeholders."""
    r = spec.r
    packed, layout = _diagonal(spec, lambda m, c, qs, ts: 0 if (r - m) % 2 else _at_t_minus_one(m, c, qs, ts))
    return _signed(layout.read(packed, 1), r)


def _at_t_minus_one(m, c, qs, ts):
    """The sum of c_a t [m-a-1]_t over a <= m - 2 at t = -1, where t [k]_t
    is -1 for odd k and 0 for even k: minus the c_a with m - a even."""
    return -sum(islice(c, m % 2, m - 1, 2))


def _require_odd_rank(n, r):
    if r % 2 == 0:
        raise ValueError(f"rank {r} is even; this formula needs odd rank")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")


def _chain_bounds(n, r, q_one):
    """Bounds (N, D) for the chain sum of `cd_chain_alternating`, fixed
    before any product: N is the sum over the tuples of their products'
    l1 norms, each a product of C(n - lower, upper - lower), and D the
    largest q-degree of a product, each binomial adding
    (upper - lower)(n - upper).  Both by one pass over `lower` from r - 1
    down, where norms[lower] and degrees[lower] cover the tails of the
    tuples from `lower` up:

    >>> _chain_bounds(5, 5, False), _chain_bounds(5, 5, True)
    ((46, 8), (46, 0))
    """
    norms, degrees = {}, {}
    for lower in range(r - 1, -1, -2):
        uppers = range(lower + 2, r, 2)
        norms[lower] = 1 + sum(comb(n - lower, upper - lower) * norms[upper] for upper in uppers)
        degrees[lower] = max(((upper - lower) * (n - upper) + degrees[upper] for upper in uppers), default=0)
    return norms[0], 0 if q_one else degrees[0]


def cd_chain_alternating(n, r, q_one=False):
    """Unsigned quantity as the alternating sum over the tuples of even
    ranks 0 < e_1 < ... < e_m < r of the products of
    [n - e_(i-1) over e_i - e_(i-1)]_q, e_0 = 0, signed (-1)^m; with
    `q_one`, its value at q = 1, over Z.

    Every tuple is visited, 2^((r-1)/2) in all, and each costs one `int`
    product: its parent's (the tuple without e_m) times one packed
    binomial, read from row n - e_(m-1) of `qeuler.q_pascal_rows(qs)`, and
    negated, so the signs alternate with depth.  The tuples are walked in
    order of their last rank, so a parent always comes before its children
    and those of one parent and one last rank are one `map`.  The layout is
    `_chain_bounds`, so the sum is read back once.
    """
    _require_odd_rank(n, r)
    layout = Layout(*_chain_bounds(n, r, q_one))
    rows = list(islice(q_pascal_rows(layout.qs, width=r), n + 1))
    ending = [[] for _ in range(r)]  # ending[e]: the signed products of the tuples with last rank e
    ending[0].append(1)
    total = 0
    for lower in range(0, r, 2):
        parents, row = ending[lower], rows[n - lower]
        total += sum(parents)
        for upper in range(lower + 2, r, 2):
            ending[upper] += map(mul, parents, repeat(-row[upper - lower]))
    return layout.read(total, 1)


# -- tangent-secant numbers ------------------------------------------------


class TangentSecantTable(namedtuple("TangentSecantTable", "n_max entries classical")):
    """E_{n,q} for 0 <= n <= n_max, both routes verified at build time.

    `entries` holds the BiPoly q-polynomials and `classical` their integer
    values at q = 1; `table[n]` is `entries[n]`.
    """

    __slots__ = ()

    def __getitem__(self, n):
        return self.entries[n]


def _secant_norm_bounds(n_max):
    """Bounds B_n >= ||E_n||_1 for 0 <= n <= n_max, fixed before any E_n is computed.

    cosh_q sech_q = 1 and tanh_q = sinh_q sech_q give E_n as the sum of
    [n over 2j]_q E_(2j) over 2j < n, negated at even n > 0; since
    ||[n over k]_q||_1 = C(n, k) and ||fg||_1 <= ||f||_1 ||g||_1, the same
    sums on the rows of Pascal's triangle, without signs, bound the norms:

    >>> _secant_norm_bounds(6)
    [1, 1, 1, 4, 7, 46, 121]
    """
    bounds = []
    for n, row in enumerate(islice(q_pascal_rows(0), n_max + 1)):
        bounds.append(sum(map(mul, row[:n:2], bounds[::2])) if n else 1)
    return bounds


def _secant_by_recurrence(n_max, qs):
    """E_0, ..., E_(n_max) packed at q = 2^qs by the recurrence of
    `_secant_norm_bounds`, with each [n over 2j]_q read from row n of
    `q_pascal_rows(qs)`, so every term is one `int` product."""
    packed = []
    for n, row in enumerate(islice(q_pascal_rows(qs), n_max + 1)):
        s = sum(map(mul, row[:n:2], packed[::2]))  # the sum over 2j < n of [n over 2j]_q E_(2j)
        packed.append(1 if n == 0 else s if n % 2 else -s)
    return packed


def _secant_by_triangle(n_max, qs):
    """E_0, ..., E_(n_max) packed at q = 2^qs, as (-1)^(n // 2) times the sum
    of q^inv(w) over the up-down permutations w_1 < w_2 > w_3 < ... of [n]
    (Stanley's q-analogue of sec + tan), by the q-weighted Seidel-Entringer
    triangle.  Deleting the last entry k of such a w keeps it up-down and
    removes n - k inversions, so U(n, k), the sum over those ending in k, is
    q^(n-k) times the sum of U(n-1, j) over j < k for even n and over j >= k
    for odd n, from U(1, 1) = 1: each row is prefix sums and shifts."""
    packed, row = [1, 1][: n_max + 1], [1]  # E_0, E_1, and row 1 of U
    for n in range(2, n_max + 1):
        sums = accumulate(row, initial=0) if n % 2 == 0 else reversed(list(accumulate(reversed(row), initial=0)))
        row = [s << qs * (n - k) for k, s in enumerate(sums, 1)]
        packed.append(-sum(row) if n // 2 % 2 else sum(row))
    return packed


@lru_cache(maxsize=None)
def tangent_secant(n_max):
    """Build the table, once per n_max, by two packed-integer routes that
    must agree: the recurrence (`_secant_by_recurrence`) and the q-weighted
    Seidel-Entringer triangle (`_secant_by_triangle`).

    Both run at one `Layout`, and each entry is read back once.  The layout
    holds the largest B_n of `_secant_norm_bounds`, which bounds every
    coefficient of whatever the recurrence computes, and q-degree
    C(n_max, 2), the largest inversion count.  The triangle only adds and
    shifts, so up to the sign (-1)^(n // 2) its coefficients are
    nonnegative, and they sum to the zigzag number z_n = |E_n(1)| <=
    ||E_n||_1 <= B_n.  So each route's integer is the packing of one
    polynomial that fits the layout: the integers are equal exactly when
    the polynomials are.  Each is read with as many rows as its size needs,
    so a wrong route's value, even one past the layout, reads back as a
    polynomial and the disagreement is a `RouteDisagreementError`.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    layout = Layout(max(_secant_norm_bounds(n_max)), comb(n_max, 2))
    entries = []
    routes = zip(_secant_by_recurrence(n_max, layout.qs), _secant_by_triangle(n_max, layout.qs))
    for n, (by_recurrence, by_triangle) in enumerate(routes):
        entries.append(layout.read(by_recurrence))
        if by_triangle != by_recurrence:
            require_equal(f"E_{n} by recurrence vs q-Seidel-Entringer triangle", entries[n], layout.read(by_triangle))
    return TangentSecantTable(n_max, tuple(entries), tuple(e.eval(1, 1) for e in entries))


def t_term(n, a):
    """T(n, 2a) = [n over 2a]_q E_2a, with E_2a from the verified tangent-secant table."""
    if not 0 <= 2 * a <= n:
        raise ValueError(f"need 0 <= 2a <= n, got a={a}, n={n}")
    return gauss_binomial(n, 2 * a) * tangent_secant(2 * a)[2 * a]


def cd_qsecant(n, r, q_one=False):
    """Signed and unsigned quantities as sum_(2a < r) T(n, 2a), the
    paper's determinant sum and q-secant sum at once; with `q_one`, its
    value at q = 1, the sum of C(n, 2a) E_2a(1) over Z."""
    _require_odd_rank(n, r)
    table = tangent_secant(r - 1)
    ks = range((r - 1) // 2 + 1)
    if q_one:
        unsigned = BiPoly.const(sum(comb(n, 2 * k) * table.classical[2 * k] for k in ks))
    else:
        unsigned = sum((gauss_binomial(n, 2 * k) * table[2 * k] for k in ks), ZERO)
    return _signed(unsigned, r)


def cd(spec, method="direct"):
    """Charney-Davis result by the named route: direct | chain | det | qsecant,
    where det and qsecant name the one secant sum of `cd_qsecant`.

    A uniform spec gets the value of vector(n, r) at q = 1, as the paper
    states its formulas once, in q; every route computes it over Z.
    """
    q_one = spec.kind == UNIFORM
    if method == "direct":
        return cd_direct(spec)
    if method == "chain":
        return _signed(cd_chain_alternating(spec.n, spec.r, q_one), spec.r)
    if method in ("det", "qsecant"):
        return cd_qsecant(spec.n, spec.r, q_one)
    raise ValueError(f"unknown method {method!r}")
