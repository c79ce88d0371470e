"""q-Eulerian polynomials: definition vs recurrence, classical values,
generating-function identities, derangement polynomials."""

import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from math import comb, factorial

import pytest

import chowlab.chow as chow_module
from chowlab import checks, qeuler
from chowlab.charney import cd_direct
from chowlab.chow import delta_series, hilbert_closed_form, hilbert_recurrence
from chowlab.exactalg import BiPoly, Layout, ONE, T, ZERO, gauss_binomial, join_rows
from chowlab.flats import FamilySpec
from chowlab.permstat import statistic_sum
from chowlab.qeuler import (
    classical_eulerian,
    derangement_polynomial,
    q_eulerian_by_definition,
    q_eulerian_by_recurrence,
)


def test_base_cases():
    assert q_eulerian_by_definition(0) == ONE
    assert q_eulerian_by_definition(2) == ONE + T
    assert q_eulerian_by_recurrence(1) == ONE


def test_definition_matches_recurrence_through_8(holds):
    holds(checks.q_eulerian_definition(range(9)), [f"q-Eulerian definition vs recurrence (n={n})" for n in range(9)])


def test_classical_values():
    assert classical_eulerian(3) == ONE + 4 * T + T**2
    assert classical_eulerian(4) == ONE + 11 * T + 11 * T**2 + T**3
    for n in range(9):
        assert classical_eulerian(n).eval(1, 1) == factorial(n)


def test_classical_recurrence_check():
    # the Eulerian-number rows against the brute-force excedance sum
    for n in range(8):
        assert classical_eulerian(n) == statistic_sum(n, lambda s: (0, s.exc))


def test_q_one_specialization_matches_classical():
    for n in range(9):
        assert q_eulerian_by_recurrence(n).subs_q_int(1) == classical_eulerian(n)


def test_row_and_column_structure():
    for n in range(1, 9):
        poly = q_eulerian_by_recurrence(n)
        assert poly.coefficient_in_t(0) == ONE
        assert poly.coefficient_in_t(n - 1) == ONE
        assert poly.is_palindromic_in_t(n - 1)
        assert poly.subs_q_int(1).eval(1, 1) == factorial(n)


def test_derangement_routes_through_7(holds):
    # q-EGF recurrence = fiber inversion of A_n = enumeration over fix = 0
    holds(checks.derangement_routes(range(8)), [f"derangement polynomial routes (n={n})" for n in range(8)])


def test_egf_identities(holds):
    holds(checks.egf_identity(0), ["q-exponential identity through x^0"])
    holds(checks.egf_identity(4), ["q-exponential identity through x^4"])
    holds(checks.egf_identity(6, q_one=True), ["classical exponential identity through x^6"])


def test_classical_eulerian_has_no_cap():
    assert classical_eulerian(13) == q_eulerian_by_recurrence(13).subs_q_int(1)
    # a recursion down the rows would nest far more than 50 frames here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        a = classical_eulerian(300)
    finally:
        sys.setrecursionlimit(limit)
    assert a.eval(1, 1) == factorial(300)
    assert a.is_palindromic_in_t(299)
    assert a.coefficient_in_t(1).constant() == 2**300 - 301  # the Eulerian number <300 over 1>
    with pytest.raises(ValueError):
        classical_eulerian(-1)


@pytest.mark.parametrize("route", [q_eulerian_by_recurrence, derangement_polynomial])
def test_threads_building_one_entry_agree(route):
    # four threads build the entry at 13 at once from an empty memo, with a
    # thread switch every microsecond
    expected = route(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            route.cache_clear()
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(route, [13] * 4))
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


@lru_cache(maxsize=None)
def _through_30(route):
    """route(0), ..., route(30), each table read back from one `_q_egf` build
    at n = 30, at a layout that holds every entry: that of A_30 for A_0, ...,
    A_30, and the largest (B_m, d_m) of `_q_egf_bounds` for D_0, ..., D_30.
    Both routes are memoised per n, each built at the layout of its top entry
    alone, and 31 builds would take several times as long."""
    if route is derangement_polynomial:
        horner, layout = qeuler._derangement_horner, Layout(*map(max, qeuler._q_egf_bounds(30)))
    else:
        horner, layout = qeuler._eulerian_horner, Layout(factorial(30), comb(30, 2))
    table = qeuler._q_egf(30, horner, layout)
    return [layout.read(join_rows(x, layout.ts), n + 1) for n, x in enumerate(table)]


def _eulerian_layouts(n_max):
    """(n!, C(n, 2)) for n <= n_max: the layout `q_eulerian_by_recurrence`
    builds A_n at."""
    return tuple(map(factorial, range(n_max + 1))), tuple(comb(n, 2) for n in range(n_max + 1))


@pytest.mark.parametrize("route, bounds", [(q_eulerian_by_recurrence, _eulerian_layouts),
                                           (derangement_polynomial, qeuler._q_egf_bounds)])
def test_q_egf_bounds_cover_every_entry(route, bounds):
    norms, degrees = bounds(30)
    assert len(norms) == len(degrees) == 31
    for n, (norm, degree, entry) in enumerate(zip(norms, degrees, _through_30(route), strict=True)):
        assert sum(map(abs, entry.terms.values())) <= norm, n
        assert entry.q_degree() <= degree and entry.t_degree() <= n, n


def test_tables_through_30_against_independent_routes():
    # the entries the bound test reads are right: A_n at q = 1 is the
    # Eulerian-number recurrence, A_30 is the route's own value, and the
    # fiber identity A_30 = sum_k [30 over k]_q D_k ties the two packed
    # recurrences together
    eulerian = _through_30(q_eulerian_by_recurrence)
    for n in range(31):
        assert eulerian[n].subs_q_int(1) == classical_eulerian(n), n
    fibers = sum((gauss_binomial(30, k) * d for k, d in enumerate(_through_30(derangement_polynomial))), ZERO)
    assert eulerian[30] == q_eulerian_by_recurrence(30) == fibers
    assert _through_30(derangement_polynomial)[30] == derangement_polynomial(30)


def test_derangement_polynomials_are_palindromic():
    # t^m D_m(q, 1/t) = D_m(q, t) (Shareshian-Wachs), on which the closed
    # form and the difference series of `chow` rest
    for m, d in enumerate(_through_30(derangement_polynomial)):
        assert d.is_palindromic_in_t(m), m


@pytest.mark.parametrize("qs", [0, 8, 104])
def test_q_pascal_rows_are_gaussian_binomials(qs):
    cut = qeuler.q_pascal_rows(qs, width=7)
    for m, row, row_cut in zip(range(31), qeuler.q_pascal_rows(qs), cut):
        assert row == [gauss_binomial(m, a).eval(2**qs, 1) for a in range(m + 1)], m
        assert row_cut == row[:7], m
        if qs == 0:
            assert row == [comb(m, a) for a in range(m + 1)], m


def test_tables_are_built_without_polynomial_products(monkeypatch):
    # a count, not a timing: every product is one int product at the packed
    # layout, every multiply by (t - q^i) or t a shift, and no Gaussian
    # binomial is built and nothing packed in either loop; A_n is read back
    # once, and D_n once
    calls = []
    real_mul = BiPoly.__mul__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, lambda *args: calls.append("__mul__") or real_mul(*args))
    for name in ("read", "pack"):
        real = getattr(Layout, name)
        monkeypatch.setattr(Layout, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    q_eulerian_by_recurrence.cache_clear()
    derangement_polynomial.cache_clear()
    binomials = gauss_binomial.cache_info()
    assert q_eulerian_by_recurrence(14).eval(1, 1) == factorial(14)
    assert calls == ["read"]
    assert derangement_polynomial(14).eval(1, 1) == 32071101049  # the derangements of [14]
    assert calls == ["read"] * 2
    after = gauss_binomial.cache_info()
    assert after.hits + after.misses == binomials.hits + binomials.misses
    for route in (q_eulerian_by_recurrence, derangement_polynomial):
        with pytest.raises(ValueError):
            route(-1)


def test_derangement_polynomial_reads_back_once(monkeypatch):
    # a count: D_16 is read back alone, at its own layout, and is the table's entry
    expected = _through_30(derangement_polynomial)[16]
    reads = []
    real_read = Layout.read
    monkeypatch.setattr(Layout, "read", lambda *args: reads.append(args) or real_read(*args))
    derangement_polynomial.cache_clear()
    assert derangement_polynomial(16) == expected
    assert len(reads) == 1


@pytest.mark.parametrize("route, spec", [(delta_series, (12, 7)), (hilbert_closed_form, (FamilySpec.vector(12, 7),))])
def test_sums_over_the_derangement_table_build_it_once(monkeypatch, route, spec):
    # a count: the sum builds the D table once, not once per D_m
    builds = []
    real = qeuler._q_egf
    for module in (qeuler, chow_module):
        monkeypatch.setattr(module, "_q_egf", lambda *args: builds.append(args[1]) or real(*args))
    derangement_polynomial.cache_clear()
    route(*spec)
    assert builds.count(qeuler._derangement_horner) == 1


V97 = FamilySpec.vector(9, 7)


@pytest.mark.parametrize("route, arg", [(hilbert_recurrence, V97), (cd_direct, V97), (derangement_polynomial, 9),
                                        (q_eulerian_by_recurrence, 9), (hilbert_closed_form, V97)])
def test_each_packed_recurrence_is_one_run_of_the_one_loop(monkeypatch, route, arg):
    # a count: the Hilbert diagonal, its value at t = -1, D_n, A_n and the
    # sum over the D table each run `qeuler._q_egf` once, and no other loop
    builds = []
    real = qeuler._q_egf
    for module in (qeuler, chow_module):
        monkeypatch.setattr(module, "_q_egf", lambda *args, **kw: builds.append(args[0]) or real(*args, **kw))
    for cached in (hilbert_recurrence, derangement_polynomial, q_eulerian_by_recurrence):
        cached.cache_clear()
    route(arg)
    assert len(builds) == 1
