"""Charney-Davis quantities by independent routes, and the classical and
q-analog tangent-secant numbers that govern them.

For odd rank r the unsigned quantity is H(A, -1) and the signed quantity
carries the prefactor (-1)^((r-1)/2); both are always reported because the
uniform-specialization statement matches the unsigned value while the
q-statement matches the signed one.  Even rank always gives zero.

The building block T(n, 2a) is kept in integer q-polynomial arithmetic:
its recurrence

    T(2a) = - sum_{b<a} [n-2b over 2a-2b]_q T(2b),    T(0) = 1

is the production path, verified against the fraction-free (Bareiss)
determinant of the Gaussian-binomial matrix.  Each smaller T(n, 2a) matrix is
a leading principal submatrix of the largest, so one elimination without row
swaps yields all of them as its pivots.  The q-tangent-secant numbers
E_n are checked three ways: their own recurrence, the same Bareiss
determinants (E_{2a} = T(2a, 2a), odd E_n the full-rank telescoping sum),
and the Taylor coefficients of sech_q + tanh_q evaluated in exact integer
arithmetic at enough integer points to pin every polynomial down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import RouteDisagreementError, require_equal
from .exactalg import MINUS_ONE, BiPoly, ONE, gauss_binomial, leading_principal_minors, sum_of_products
from .chow import hilbert_recurrence


@dataclass(frozen=True)
class CDResult:
    unsigned: BiPoly  # H(A, -1) as a q-polynomial
    signed: BiPoly  # (-1)^((r-1)/2) * unsigned for odd r; 0 for even r
    parity: int  # r mod 2


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


@lru_cache(maxsize=None)
def _t_terms(n, a):
    """(T(0), T(2), ..., T(2a)) by the linear recurrence; a tuple, since it is cached."""
    terms = [ONE]
    for j in range(1, a + 1):
        terms.append(-sum_of_products((gauss_binomial(n - 2 * b, 2 * j - 2 * b), terms[b]) for b in range(j)))
    return tuple(terms)


def _t_determinants(n, a):
    """[T(0), T(2), ..., T(2a)] from one elimination of the a x a matrix.

    T(2j) is (-1)^j times its j-th leading principal minor.  The list is
    shorter when a zero pivot stops the elimination.
    """
    matrix = []
    for i in range(a):
        row = []
        for j in range(a):
            if j <= i:
                row.append(gauss_binomial(n - 2 * j, 2 * (i - j + 1)))
            elif j == i + 1:
                row.append(ONE)
            else:
                row.append(BiPoly())
        matrix.append(row)
    minors = leading_principal_minors(matrix) if a else []
    return [ONE] + [-m if j % 2 else m for j, m in enumerate(minors, 1)]


def _verified_t_terms(n, a):
    """[T(0), ..., T(2a)] by the recurrence, each checked against the determinant."""
    by_rec = _t_terms(n, a)
    by_det = _t_determinants(n, a)
    for j, value in enumerate(by_rec):
        what = f"T({n}, {2 * j}) recurrence vs determinant"
        if j == len(by_det):
            raise RouteDisagreementError(what, value.to_text(), "none: zero pivot before this minor")
        require_equal(what, value, by_det[j])
    return by_rec


def t_term(n, a):
    """T(n, 2a), verified between the recurrence and the Bareiss determinant."""
    if not 0 <= 2 * a <= n:
        raise ValueError(f"need 0 <= 2a <= n, got a={a}, n={n}")
    return _verified_t_terms(n, a)[a]


def cd_determinant(n, r):
    """Signed and unsigned quantities as the telescoping sum of T(n, 2a).

    One elimination of the largest matrix yields every T(n, 2a) as a pivot,
    and each is checked against the recurrence.
    """
    _require_odd_rank(n, r)
    unsigned = BiPoly()
    for term in _verified_t_terms(n, (r - 1) // 2):
        unsigned = unsigned + term
    return _signed(unsigned, r)


# -- tangent-secant numbers ------------------------------------------------


@dataclass(frozen=True)
class TangentSecantTable:
    """E_{n,q} for 0 <= n <= n_max, all three routes verified at build time."""

    n_max: int
    entries: tuple  # BiPoly q-polynomials
    classical: tuple  # integer values at q = 1

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


def _secant_degree_bounds(n_max):
    """q-degree bounds for E_0 .. E_{n_max}, fixed before any E_n is computed.

    They follow the shape of the recurrence with deg [n over k]_q = k(n - k).
    """
    even = [0]
    for m in range(1, n_max // 2 + 1):
        even.append(max(2 * k * (2 * m - 2 * k) + even[m - k] for k in range(1, m + 1)))
    return [
        even[n // 2] if n % 2 == 0 else max(2 * j * (n - 2 * j) + even[j] for j in range(n // 2 + 1))
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
    """Check E_0 .. E_n against the series at the points q0 = 2 .. D + 2.

    D bounds every deg E_n in advance, so agreement at D + 1 points proves
    the polynomials equal.
    """
    n_max = len(entries) - 1
    bounds = _secant_degree_bounds(n_max)
    for n, (entry, bound) in enumerate(zip(entries, bounds)):
        if entry.q_degree() > bound:
            raise RouteDisagreementError(
                f"deg E_{n} by recurrence vs its a priori bound", str(entry.q_degree()), str(bound)
            )
    for q0 in range(2, max(bounds) + 3):
        for n, value in enumerate(_secant_series_at(q0, n_max)):
            at_q0 = entries[n].eval(q0, 1)
            if at_q0 != value:
                raise RouteDisagreementError(f"E_{n} by recurrence vs series at q = {q0}", str(at_q0), str(value))


def tangent_secant(n_max):
    """Build the table; recurrence, determinant, and series routes must agree."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    by_rec = _secant_by_recurrence(n_max)
    for n, entry in enumerate(by_rec):
        by_det = t_term(n, n // 2) if n % 2 == 0 else cd_determinant(n, n).unsigned
        require_equal(f"E_{n} by recurrence vs determinant", entry, by_det)
    _verify_secant_by_series(by_rec)
    classical = tuple(e.eval(1, 1) for e in by_rec)
    return TangentSecantTable(n_max, tuple(by_rec), classical)


def cd_qsecant(n, r, table=None):
    """Signed and unsigned quantities via the q-secant-number sum."""
    _require_odd_rank(n, r)
    if table is None or table.n_max < r - 1:
        table = tangent_secant(r - 1)
    unsigned = sum_of_products((gauss_binomial(n, 2 * k), table[2 * k]) for k in range((r - 1) // 2 + 1))
    return _signed(unsigned, r)


def cd(spec, method="direct"):
    """Charney-Davis result by the named route: direct | chain | det | qsecant."""
    if method == "direct":
        return cd_direct(spec)
    if method == "chain":
        return _signed(cd_chain_alternating(spec.n, spec.r), spec.r)
    if method == "det":
        return cd_determinant(spec.n, spec.r)
    if method == "qsecant":
        return cd_qsecant(spec.n, spec.r)
    raise ValueError(f"unknown method {method!r}")


def uniform_cd(result):
    """The q = 1 specialization of a CDResult."""
    return CDResult(
        result.unsigned.subs_q_int(1), result.signed.subs_q_int(1), result.parity
    )

