"""Hilbert series route agreement, the monomial-basis oracle, difference
series, and derangement polynomials."""

import inspect
import math
import sys
import tracemalloc

import pytest

import chowlab.chow as chow_module
from chowlab import checks, qeuler
from chowlab.chow import (
    basis_monomial_oracle,
    delta_series,
    hilbert,
    hilbert_chain_sum,
    hilbert_closed_form,
    hilbert_recurrence,
)
from chowlab.errors import ResourceBoundError, RouteDisagreementError
from chowlab.exactalg import BiPoly, Layout, ONE, T, gauss_binomial, tuple_sum
from chowlab.flats import FamilySpec, build_explicit
from chowlab.permstat import permutations_of
from chowlab.qeuler import classical_eulerian, derangement_polynomial, q_eulerian_by_recurrence


def test_small_values():
    assert hilbert_chain_sum(FamilySpec.uniform(3, 3)) == ONE + 4 * T + T**2
    assert hilbert_chain_sum(FamilySpec.vector(3, 2)) == ONE + T
    assert hilbert_chain_sum(FamilySpec.vector(3, 3)) == BiPoly(
        {(0, 0): 1, (0, 1): 2, (1, 1): 1, (2, 1): 1, (0, 2): 1}
    )
    assert hilbert_recurrence(FamilySpec.uniform(5, 1)) == ONE
    assert hilbert_recurrence(FamilySpec.uniform(4, 4)) == classical_eulerian(4)


def test_full_rank_is_q_eulerian():
    for n in range(1, 7):
        assert hilbert_recurrence(FamilySpec.vector(n, n)) == q_eulerian_by_recurrence(n)
        assert hilbert_recurrence(FamilySpec.uniform(n, n)) == classical_eulerian(n)


def test_full_rank_recurrence_is_q_eulerian_through_20():
    # the paper's full-rank theorem through both t-row loops, at every slot
    # width of A_n's layout from 1 to 8 bytes (7 -> 8 at n = 19)
    for n in range(1, 21):
        assert hilbert_recurrence(FamilySpec.vector(n, n)) == q_eulerian_by_recurrence(n), n


def _slot_crossings(n_max):
    """{nb: the pairs (vector(n, r - 1), vector(n, r)), n <= n_max, between
    which the slots of the recurrence's layout grow from nb - 1 to nb bytes}."""
    def nb(spec):
        return Layout(*map(max, chow_module._diagonal_bounds(spec))).nb

    crossings = {}
    for n in range(2, n_max + 1):
        for r in range(2, n + 1):
            lower, upper = FamilySpec.vector(n, r - 1), FamilySpec.vector(n, r)
            if nb(lower) < nb(upper):
                crossings.setdefault(nb(upper), []).append((lower, upper))
    return crossings


def test_recurrence_against_the_chain_sum_where_slots_grow_a_byte():
    crossings = _slot_crossings(14)
    assert sorted(crossings) == [2, 3, 4, 5]
    for pairs in crossings.values():
        for spec in (spec for pair in pairs for spec in pair):
            assert hilbert_recurrence(spec) == hilbert_chain_sum(spec), spec


def test_closed_form_against_the_recurrence_where_slots_grow_a_byte():
    # each crossing at its smallest and its largest n up to 24
    crossings = _slot_crossings(24)
    assert sorted(crossings) == list(range(2, 12))
    for pairs in crossings.values():
        for spec in pairs[0] + pairs[-1]:
            assert hilbert_closed_form(spec) == hilbert_recurrence(spec), spec


def test_uniform_is_q_one_specialization():
    for n in range(1, 7):
        for r in range(1, n + 1):
            vec = hilbert_recurrence(FamilySpec.vector(n, r))
            uni = hilbert_recurrence(FamilySpec.uniform(n, r))
            assert vec.subs_q_int(1) == uni


def test_graded_dims_examples():
    assert basis_monomial_oracle(build_explicit(FamilySpec.uniform(3, 3)), 3) == ONE + 4 * T + T**2
    assert basis_monomial_oracle(build_explicit(FamilySpec.uniform(4, 2)), 2) == ONE + T
    assert basis_monomial_oracle(build_explicit(FamilySpec.vector(3, 3), 2), 3) == ONE + 8 * T + T**2


def test_oracle_agrees_with_symbolic_series():
    # agreement with the series is criterion 4 of tests/test_acceptance.py
    for kind, p, top in (("uniform", None, 6), ("vector", 2, 4), ("vector", 3, 3)):
        for n in range(1, top + 1):
            for r in range(1, n + 1):
                dims = basis_monomial_oracle(build_explicit(FamilySpec(kind, n, r), p), r)
                assert dims.coefficient_in_t(0) == ONE and dims.coefficient_in_t(r - 1) == ONE
                assert dims.is_palindromic_in_t(r - 1)


def _monomial_walk(lat):
    """Graded dimensions by walking every basis monomial: a descending chain
    of non-bottom flats with exponents 1 <= a <= (rank gap to the next flat
    down, or to the bottom) - 1, one at a time."""
    dims = [0] * lat.rank

    def walk(i, degree):  # the chain so far ends at flat i, of total degree `degree`
        for j in lat.below[i]:  # the bottom among them closes the chain
            for a in range(1, lat.ranks[i] - lat.ranks[j]):
                if j == lat.bottom:
                    dims[degree + a] += 1
                else:
                    walk(j, degree + a)

    dims[0] = 1
    for i in range(len(lat)):
        if i != lat.bottom:
            walk(i, 0)
    return BiPoly({(0, k): d for k, d in enumerate(dims)})


def test_oracle_is_the_monomial_walk():
    # the packed sums by rank gap against one monomial at a time
    cases = [(FamilySpec.uniform(n, r), None) for n in range(1, 8) for r in range(1, n + 1)]
    cases += [(FamilySpec.vector(3, 3), 2), (FamilySpec.vector(3, 2), 3), (FamilySpec.vector(4, 4), 2)]
    for spec, p in cases:
        lat = build_explicit(spec, p)
        assert basis_monomial_oracle(lat, spec.r) == _monomial_walk(lat), (spec, p)
    assert max(_monomial_walk(build_explicit(FamilySpec.uniform(7, 7))).terms.values()) == 2416


def test_oracle_size_cap():
    # 256 flats: refused before any label is built, so the oracle never sees it
    with pytest.raises(ResourceBoundError, match="uniform\\(8,8\\) has over 200 flats"):
        build_explicit(FamilySpec.uniform(8, 8))
    with pytest.raises(ResourceBoundError, match="has over 200 flats"):
        hilbert(FamilySpec.uniform(8, 8), "oracle")


def test_oracle_at_p_5_and_7(holds):
    # every vector lattice with at most 200 points at p = 5 (n <= 3) and p = 7 (n <= 2)
    for p, top in ((5, 3), (7, 2)):
        names = [f"monomial oracle vector({n},{r}) at q={p}" for n in range(1, top + 1) for r in range(1, n + 1)]
        holds(checks.monomial_oracle("vector", p, range(1, top + 1)), names)
    assert hilbert(FamilySpec.vector(3, 3), "oracle", p=5) == hilbert_recurrence(FamilySpec.vector(3, 3)).subs_q_int(5)


def test_delta_series():
    assert delta_series(3, 2) == BiPoly({(0, 2): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1})
    for n in range(1, 7):
        for r in range(1, n + 1):
            poly = delta_series(n, r)
            # top coefficient is 1 (only the identity has no excedance)
            assert poly.coefficient_in_t(r) == ONE
            # total count at q = t = 1 is the number of permutations with
            # at least n - r fixed points
            count = sum(1 for v in permutations_of(n) if sum(a == i for i, a in enumerate(v, 1)) >= n - r)
            assert poly.eval(1, 1) == count
    with pytest.raises(ValueError):
        delta_series(3, 0)


def test_delta_telescopes_to_full_rank(holds):
    holds(checks.rank_telescoping(range(1, 7)), [f"rank telescoping to full rank (n={n})" for n in range(1, 7)])


def test_delta_matches_hilbert_difference():
    for n in range(1, 7):
        for r in range(1, n):
            diff = hilbert_recurrence(FamilySpec.vector(n, r + 1)) - hilbert_recurrence(
                FamilySpec.vector(n, r)
            )
            assert diff == delta_series(n, r), (n, r)


def test_q_derangement_numbers():
    # the coefficient of t^k in D_n sums q^(maj-exc) over the derangements with exc = k
    assert derangement_polynomial(3).coefficient_in_t(2) == ONE
    assert derangement_polynomial(3).coefficient_in_t(1) == ONE
    for n in range(1, 8):
        assert derangement_polynomial(n).coefficient_in_t(n) == BiPoly()  # no derangement has exc = n
        assert derangement_polynomial(n).coefficient_in_t(0) == BiPoly()  # nor exc = 0
    assert derangement_polynomial(1) == BiPoly()
    assert derangement_polynomial(0) == ONE
    with pytest.raises(ValueError):
        derangement_polynomial(-1)


def test_delta_coefficient_assembly(holds):
    holds(checks.delta_assembly(range(1, 7)), [f"difference-coefficient assembly (n={n})" for n in range(1, 7)])


def test_delta_coefficient_detects_tampering(monkeypatch):
    import chowlab.chow as chow_module

    real = chow_module.delta_series

    def tampered(n, r):
        return real(n, r) + ONE

    monkeypatch.setattr(chow_module, "delta_series", tampered)
    with pytest.raises(RouteDisagreementError):
        list(checks.delta_assembly([3]))


def test_full_rank_dims_are_q_eulerian_numbers():
    for n in range(1, 7):
        poly = hilbert_recurrence(FamilySpec.vector(n, n))
        for k in range(n):
            assert poly.coefficient_in_t(k) == q_eulerian_by_recurrence(n).coefficient_in_t(k)


def test_recurrence_does_not_recurse():
    # a memoised recursion down the diagonal would nest more than 50 frames here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        h = hilbert_recurrence(FamilySpec.uniform(60, 60))
    finally:
        sys.setrecursionlimit(limit)
    assert h.eval(1, 1) == math.factorial(60)
    assert h.is_palindromic_in_t(59)
    assert h.coefficient_in_t(1) == BiPoly.const(2**60 - 61)  # the Eulerian number <60 over 1>


def test_hilbert_dispatch():
    # `hilbert` is one lookup in the route table, whose names are the
    # `--method` choices in `--help` order; an unknown name is a ValueError
    spec = FamilySpec.vector(3, 3)
    assert list(chow_module.ROUTES) == ["chain", "recurrence", "closed", "oracle"]
    assert hilbert(spec, "chain") == hilbert(spec, "recurrence") == hilbert(spec, "closed")
    assert hilbert(spec, "oracle", p=2) == hilbert(spec, "recurrence").subs_q_int(2)
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        hilbert(spec, "magic")


def test_closed_form_needs_no_enumeration_bound():
    for spec in (FamilySpec.vector(12, 3), FamilySpec.uniform(12, 3)):
        assert hilbert_closed_form(spec) == hilbert_recurrence(spec)


def test_uniform_closed_form_is_one_sum_at_q_one(monkeypatch):
    # a count: the uniform closed form runs at layouts of q-degree 0 only,
    # builds neither A_n nor the classical A_n(t) nor a read-back D table,
    # and reads its one packed sum back once
    expected = hilbert_recurrence(FamilySpec.uniform(40, 20))
    calls, q_degrees = [], []
    for name in ("q_eulerian_by_recurrence", "classical_eulerian", "derangement_polynomial"):
        for module in (qeuler, chow_module):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name), raising=False)
    real_read, real_init = Layout.read, Layout.__init__
    monkeypatch.setattr(Layout, "read", lambda *args: calls.append("read") or real_read(*args))
    monkeypatch.setattr(Layout, "__init__", lambda self, norm, q_degree: q_degrees.append(q_degree) or
                        real_init(self, norm, q_degree))
    assert hilbert_closed_form(FamilySpec.uniform(40, 20)) == expected
    assert calls == ["read"] and q_degrees == [0]


@pytest.mark.parametrize("spec", [FamilySpec.vector(12, 12), FamilySpec.uniform(12, 9), FamilySpec.vector(9, 2)])
def test_chain_sum_is_one_packed_walk(monkeypatch, spec):
    # a count: the steps' binomials are read off the packed q-Pascal rows,
    # so nothing is packed from a polynomial; every tuple is one int
    # product of one walk, with no polynomial product, and the sum is read
    # back once
    expected = hilbert_recurrence(spec)
    calls = []
    real_read, real_pack, real_mul, real_walk = Layout.read, Layout.pack, BiPoly.__mul__, chow_module.tuple_sum
    monkeypatch.setattr(Layout, "read", lambda *args: calls.append("read") or real_read(*args))
    monkeypatch.setattr(Layout, "pack", lambda *args: calls.append("pack") or real_pack(*args))
    monkeypatch.setattr(chow_module, "tuple_sum", lambda steps: calls.append("tuple_sum") or real_walk(steps))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, lambda *args: calls.append("__mul__") or real_mul(*args))
    assert hilbert_chain_sum(spec) == expected
    assert calls == ["tuple_sum", "read"]


@pytest.mark.parametrize("t, counts", [(None, {6: 13, 10: 89, 14: 610}), (-1, {7: 8, 11: 32, 15: 128})])
def test_chain_walk_visits_only_the_nonzero_steps(t, counts):
    # the tuples the walk visits, counted by `tuple_sum` on its own step
    # table with every factor 1: F(r + 1) with t symbolic, every gap at
    # least 2, and 2^((r - 1)/2) at t = -1, where the odd gaps are 0 and
    # dropped, leaving the tuples of even ranks below r
    for r, count in counts.items():
        for spec in (FamilySpec.vector(r, r), FamilySpec.uniform(r + 3, r)):
            steps = chow_module._chain_steps(spec, t)
            assert tuple_sum({lower: [(upper, 1) for upper, *_ in pairs] for lower, pairs in steps.items()}) == count, (spec, t)


def test_chain_walk_at_an_integer_t_is_the_series_there():
    for spec in (FamilySpec.vector(7, 7), FamilySpec.vector(8, 5), FamilySpec.uniform(9, 6)):
        for t in (-1, 0, 1, 2):
            assert chow_module._chain_walk(spec, t) == hilbert_recurrence(spec).subs_t_int(t), (spec, t)


def test_chain_sum_bounds_are_the_chain_counts_summed():
    # the bounds from `comb` and k (n - lower - k) against the same pass
    # over the chain counts as q-polynomials, the Gaussian binomials
    # [n - lower over upper - lower]_q and 1 at upper = r, evaluated and
    # their degrees read (q-degree 0 for uniform)
    def by_polynomials(spec):
        norms, degrees = {}, {}
        for lower in range(spec.r, -1, -1):
            steps = [(upper, ONE if upper == spec.r else gauss_binomial(spec.n - lower, upper - lower))
                     for upper in range(lower + 2, spec.r + 1)]
            norms[lower] = 1 + sum(f.eval(1, 1) * (upper - lower - 1) * norms[upper] for upper, f in steps)
            degrees[lower] = max((f.q_degree() + degrees[upper] for upper, f in steps), default=0)
        return norms[0], degrees[0] if spec.kind == "vector" else 0

    for kind in ("uniform", "vector"):
        for n in range(1, 13):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                assert chow_module._chain_bounds(spec, chow_module._chain_steps(spec)) == by_polynomials(spec), spec


def test_chain_sum_keeps_one_path_of_products():
    # depth-first, the walk holds the children of one path of tuples; kept
    # by last rank until that rank's pass, the products of vector(16, 16)
    # peaked near 10 MB
    spec = FamilySpec.vector(16, 16)
    expected = hilbert_recurrence(spec)
    tracemalloc.start()
    try:
        assert hilbert_chain_sum(spec) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("route", [hilbert_closed_form, hilbert_chain_sum, lambda spec: delta_series(spec.n, spec.r)])
def test_packed_sums_are_sized_by_their_value_at_one(monkeypatch, route):
    # every coefficient is nonnegative, so each sum's norm bound is its value
    # at q = t = 1 exactly: a bound that lost a factor would show here before
    # a coefficient overflowed its slot
    specs = [FamilySpec.vector(9, 6), FamilySpec.vector(7, 7), FamilySpec.uniform(12, 5), FamilySpec.vector(5, 1)]
    expected = [route(spec).eval(1, 1) for spec in specs]
    norms = []
    real_init = Layout.__init__
    monkeypatch.setattr(Layout, "__init__", lambda self, norm, q_degree: norms.append(norm) or
                        real_init(self, norm, q_degree))
    for spec, value in zip(specs, expected):
        norms.clear()
        route(spec)
        assert norms == [value], spec


def test_recurrence_unpacks_once_per_group_per_rank(monkeypatch):
    # a count, not a timing: the whole diagonal of vector(14, 14) is one
    # layout group, summed packed with no polynomial product, and only the
    # rank asked for is read back
    expected = q_eulerian_by_recurrence(14)
    calls = []
    real_read, real_mul = Layout.read, BiPoly.__mul__
    monkeypatch.setattr(Layout, "read", lambda *args: calls.append("read") or real_read(*args))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, lambda *args: calls.append("__mul__") or real_mul(*args))
    hilbert_recurrence.cache_clear()
    assert hilbert_recurrence(FamilySpec.vector(14, 14)) == expected
    assert calls == ["read"]


@pytest.mark.parametrize("spec", [FamilySpec.uniform(300, 5), FamilySpec.vector(300, 5), FamilySpec.vector(16, 12)])
def test_recurrence_takes_binomials_from_q_pascal_rows(monkeypatch, spec):
    # counts, not timings: no Gaussian binomial is built and nothing is
    # packed on the diagonal, and each streamed row is cut to r entries, so
    # a long diagonal does not build rows hundreds of entries wide
    expected = hilbert_chain_sum(spec)
    packs, widths = [], []
    real_pack = Layout.pack
    monkeypatch.setattr(Layout, "pack", lambda *args: packs.append(args) or real_pack(*args))
    real_rows = qeuler.q_pascal_rows
    monkeypatch.setattr(
        qeuler, "q_pascal_rows", lambda *args, **kw: (widths.append(len(row)) or row for row in real_rows(*args, **kw))
    )
    hilbert_recurrence.cache_clear()
    binomials = gauss_binomial.cache_info()
    assert hilbert_recurrence(spec) == expected
    after = gauss_binomial.cache_info()
    assert packs == [] and after.hits + after.misses == binomials.hits + binomials.misses
    assert len(widths) == spec.n + 1 and max(widths) == spec.r


@pytest.mark.parametrize("n", [2, 3, 9, 16])
def test_recurrence_never_builds_rank_r_minus_one(monkeypatch, n):
    # H_(r-1) is never read, so no Horner sum runs for it: the diagonal's
    # loop sums the ranks 1, ..., r - 2 and r alone
    expected = q_eulerian_by_recurrence(n)
    ranks = []
    real = chow_module._derangement_horner
    monkeypatch.setattr(chow_module, "_derangement_horner", lambda m, c, layout: ranks.append(m) or real(m, c, layout))
    hilbert_recurrence.cache_clear()
    assert hilbert_recurrence(FamilySpec.vector(n, n)) == expected
    assert ranks == [*range(1, n - 1), n]


@pytest.mark.parametrize("kind, ranks", [("uniform", range(1, 31)), ("vector", (*range(1, 21), 30))])
def test_diagonal_bounds_are_norms_and_cover_degrees(kind, ranks):
    # every coefficient of H is nonnegative, so the bound from the recurrence
    # at q = t = 1 is the norm itself.  Too small a degree bound would wrap
    # q^w onto t, which keeps H(1, 1) and the read-back q-degree within the
    # bound, but moves terms between powers of t, so at q = 1 each vector H
    # is held to the uniform one, which has no q-degree to bound.
    for d in range(4):
        norms, degrees = chow_module._diagonal_bounds(FamilySpec(kind, d + 30, 30))
        assert len(norms) == len(degrees) == 31 and (norms[0], degrees[0]) == (1, 0)
        for m in ranks:
            h = hilbert_recurrence(FamilySpec(kind, d + m, m))
            assert h.eval(1, 1) == norms[m] and h.q_degree() <= degrees[m], (d, m)
            assert h.subs_q_int(1) == hilbert_recurrence(FamilySpec.uniform(d + m, m)), (d, m)


def test_recurrence_against_independent_routes_past_the_check_suites():
    # the paper's full-rank theorem, both sides computed independently
    assert hilbert_recurrence(FamilySpec.vector(30, 30)) == q_eulerian_by_recurrence(30)
    assert hilbert_recurrence(FamilySpec.uniform(200, 200)) == classical_eulerian(200)
    for n, r in ((20, 5), (30, 15)):
        spec = FamilySpec.vector(n, r)
        assert hilbert_recurrence(spec) == hilbert_closed_form(spec), (n, r)
