"""Charney-Davis quantities by independent routes, and the classical and
q-analog tangent-secant numbers that govern them.

For odd rank r the unsigned quantity is H(A, -1) and the signed quantity
carries the prefactor (-1)^((r-1)/2); both are always reported because the
uniform-specialization statement matches the unsigned value while the
q-statement matches the signed one.  Even rank always gives zero.

The paper writes the odd-rank quantity as a sum of determinants T(n, 2a)
of Gaussian-binomial matrices, or as a sum of q-secant numbers.  The two
are one sum: both matrices rescale one Toeplitz matrix in 1/(q;q)_2k, so
T(n, 2a) = [n over 2a]_q E_2a, and the `det` and `qsecant` methods both
sum [n over 2a]_q E_2a over 2a < r.  The q-tangent-secant numbers E_n
are checked three ways: their own recurrence, the leading minors of two
Bareiss eliminations (one matrix for the even E_n, the T(2a, 2a) matrix
reflected through its anti-diagonal, and one for the odd E_n, the Hessenberg
determinant of tanh_q), and the Taylor coefficients of sech_q + tanh_q
evaluated in exact integer arithmetic at the one point q0 = 2^(8 nb), where
a norm bound fixed in advance makes every coefficient fit an nb-byte slot,
so the value read back slot by slot is the polynomial itself.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import RouteDisagreementError, require_equal
from .exactalg import MINUS_ONE, BiPoly, ONE, ZERO, gauss_binomial, leading_principal_minors, sum_of_products
from .exactalg.bipoly import _unpack
from .chow import hilbert_recurrence
from .flats import UNIFORM


class CDResult(namedtuple("CDResult", "unsigned signed parity")):
    """`unsigned` is H(A, -1) as a q-polynomial, `signed` is (-1)^((r-1)/2)
    times it for odd r and 0 for even r, and `parity` is r mod 2."""

    __slots__ = ()


def _signed(unsigned, r):
    if r % 2 == 0:
        return CDResult(unsigned, unsigned, 0)
    sign = -1 if ((r - 1) // 2) % 2 else 1
    return CDResult(unsigned, sign * unsigned, 1)


def cd_direct(spec):
    """Substitute t = -1 into the Hilbert series."""
    return _signed(hilbert_recurrence(spec).subs_t_int(-1), spec.r)


def _require_odd_rank(n, r):
    if r % 2 == 0:
        raise ValueError(f"rank {r} is even; this formula needs odd rank")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")


def cd_chain_alternating(n, r):
    """Unsigned quantity as the even-gap alternating rank-tuple sum."""
    _require_odd_rank(n, r)
    products = []
    for m in range(1, r // 2 + 1):
        for gaps in combinations(range(1, (r - 1) // 2 + 1), m):
            ranks = [2 * g for g in gaps]  # tuples of even ranks below r
            factors = [gauss_binomial(n - lower, upper - lower) for lower, upper in zip([0] + ranks, ranks)]
            products.append(factors + [MINUS_ONE] if m % 2 else factors)
    return ONE + sum_of_products(products)


# -- tangent-secant numbers ------------------------------------------------


class TangentSecantTable(namedtuple("TangentSecantTable", "n_max entries classical")):
    """E_{n,q} for 0 <= n <= n_max, all three routes verified at build time.

    `entries` holds the BiPoly q-polynomials and `classical` their integer
    values at q = 1; `table[n]` is `entries[n]`.
    """

    __slots__ = ()

    def __getitem__(self, n):
        return self.entries[n]


def _secant_by_recurrence(n_max):
    even = [ONE]  # E_0
    for m in range(1, n_max // 2 + 1):
        even.append(-sum_of_products((gauss_binomial(2 * m, 2 * k), even[m - k]) for k in range(1, m + 1)))
    return [
        even[n // 2] if n % 2 == 0 else sum_of_products((gauss_binomial(n, 2 * j), even[j]) for j in range(n // 2 + 1))
        for n in range(n_max + 1)
    ]


def _secant_determinants(n_max):
    """{n: E_n} for n <= n_max from two eliminations, one per parity.

    The k x k matrix of parity p (0 even, 1 odd) has ones in its first
    column, [2i - p over 2j - 2 - p]_q at 2 <= j <= i + 1 (1-indexed) and
    zeros above the superdiagonal; then E_(2k - p) = (-1)^(k - p) M_k for
    its leading minors M_k.  The even matrix is the paper's T(2a, 2a)
    matrix reflected through its anti-diagonal, and the odd one
    the Hessenberg determinant of tanh_q with its rows scaled by
    (q;q)_(2i-1).  A zero pivot leaves the entries past it out.  Every
    minor is some +-E_n, so the slots need hold only the largest norm bound
    of `_secant_norm_bounds`, not the Hadamard bound of the matrix.
    """
    by_det = {0: ONE}
    bound = max(_secant_norm_bounds(n_max))
    for odd in (0, 1):
        size = (n_max + odd) // 2
        if not size:
            continue
        matrix = [
            [ONE] + [gauss_binomial(2 * i - odd, 2 * j - 2 - odd) if j <= i + 1 else ZERO for j in range(2, size + 1)]
            for i in range(1, size + 1)
        ]
        for k, minor in enumerate(leading_principal_minors(matrix, bound), 1):
            by_det[2 * k - odd] = -minor if (k - odd) % 2 else minor
    return by_det


def _secant_norm_bounds(n_max):
    """Bounds B_n >= ||E_n||_1 for 0 <= n <= n_max, fixed before any E_n is computed.

    cosh_q sech_q = 1 and tanh_q = sinh_q sech_q give E_(2m) as minus the
    sum of [2m over 2k]_q E_(2m - 2k) over 1 <= k <= m, and odd E_n as the
    sum of [n over 2j]_q E_(2j); since ||[n over k]_q||_1 = C(n, k) and
    ||fg||_1 <= ||f||_1 ||g||_1, the same sums of binomials without signs
    bound the norms:

    >>> _secant_norm_bounds(6)
    [1, 1, 1, 4, 7, 46, 121]
    """
    even = [1]
    for m in range(1, n_max // 2 + 1):
        even.append(sum(comb(2 * m, 2 * k) * even[m - k] for k in range(1, m + 1)))
    return [
        even[n // 2] if n % 2 == 0 else sum(comb(n, 2 * j) * even[j] for j in range(n // 2 + 1))
        for n in range(n_max + 1)
    ]


def _secant_series_at(q0, n_max):
    """E_0(q0) .. E_{n_max}(q0) as (q0;q0)_n [x^n](sech_q + tanh_q).

    cosh_q and sinh_q carry 1/(q;q)_k at even and odd x^k respectively; at an
    integer q0 >= 2 no (q0;q0)_k vanishes.  Every coefficient of sech_q is
    kept as its numerator over the common denominator P = (q0;q0)_{n_max},
    so the arithmetic is in int; each division is checked to be exact.
    """
    poch = [1]
    for k in range(1, n_max + 1):
        poch.append(poch[-1] * (1 - q0**k))

    def exact(num, den):
        quot, rem = divmod(num, den)
        if rem:
            raise RouteDisagreementError(f"q-secant series at q = {q0}", f"{num} / {den}", "an integer")
        return quot

    sech = [poch[n_max]]  # sech[m] is P [x^m] sech_q
    for m in range(1, n_max + 1):
        sech.append(-sum(exact(sech[m - k], poch[k]) for k in range(2, m + 1, 2)))
    values = []
    for n in range(n_max + 1):
        tanh = sum(exact(sech[n - k], poch[k]) for k in range(1, n + 1, 2))
        values.append(exact(sech[n] + tanh, exact(poch[n_max], poch[n])))
    return values


def _verify_secant_by_series(entries):
    """Check E_0 .. E_n against the series at the one point q0 = 2^(8 nb).

    Every coefficient of the true E_n is below 2^(8 nb - 1) in absolute
    value by `_secant_norm_bounds`, so E_n(q0) has one reading in nb-byte
    slots, and `_unpack` recovers E_n from it; the integer's bit length
    gives enough slots for any integer of its size.
    """
    n_max = len(entries) - 1
    nb = max(_secant_norm_bounds(n_max)).bit_length() // 8 + 1
    q0 = 1 << (8 * nb)
    for n, (entry, value) in enumerate(zip(entries, _secant_series_at(q0, n_max))):
        by_series = BiPoly(_unpack(value, 1, value.bit_length() // (8 * nb) + 2, nb))
        require_equal(f"E_{n} by recurrence vs series at q = 2^{8 * nb}", entry, by_series)


@lru_cache(maxsize=None)
def tangent_secant(n_max):
    """Build the table, once per n_max; recurrence, determinant, and series
    routes must agree."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    by_rec = _secant_by_recurrence(n_max)
    by_det = _secant_determinants(n_max)
    for n, entry in enumerate(by_rec):
        what = f"E_{n} by recurrence vs determinant"
        if n not in by_det:
            raise RouteDisagreementError(what, entry.to_text(), "none: zero pivot before this minor")
        require_equal(what, entry, by_det[n])
    _verify_secant_by_series(by_rec)
    classical = tuple(e.eval(1, 1) for e in by_rec)
    return TangentSecantTable(n_max, tuple(by_rec), classical)


def t_term(n, a):
    """T(n, 2a) = [n over 2a]_q E_2a, with E_2a from the verified tangent-secant table."""
    if not 0 <= 2 * a <= n:
        raise ValueError(f"need 0 <= 2a <= n, got a={a}, n={n}")
    return gauss_binomial(n, 2 * a) * tangent_secant(2 * a)[2 * a]


def cd_qsecant(n, r):
    """Signed and unsigned quantities as sum_(2a < r) T(n, 2a), the
    paper's determinant sum and q-secant sum at once."""
    _require_odd_rank(n, r)
    table = tangent_secant(r - 1)
    unsigned = sum_of_products((gauss_binomial(n, 2 * k), table[2 * k]) for k in range((r - 1) // 2 + 1))
    return _signed(unsigned, r)


def cd(spec, method="direct"):
    """Charney-Davis result by the named route: direct | chain | det | qsecant,
    where det and qsecant name the one secant sum of `cd_qsecant`.

    A uniform spec gets the value of vector(n, r) at q = 1, as the paper
    states its formulas once, in q.
    """
    if method == "direct":
        result = cd_direct(spec)
    elif method == "chain":
        result = _signed(cd_chain_alternating(spec.n, spec.r), spec.r)
    elif method in ("det", "qsecant"):
        result = cd_qsecant(spec.n, spec.r)
    else:
        raise ValueError(f"unknown method {method!r}")
    if spec.kind == UNIFORM:
        result = CDResult(result.unsigned.subs_q_int(1), result.signed.subs_q_int(1), result.parity)
    return result
