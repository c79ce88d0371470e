"""Order complexes: f-vectors by two routes, h-polynomials, conjecture
reports."""

from itertools import combinations
from math import comb

import pytest

from chowlab import checks
from chowlab.exactalg import ONE, T
from chowlab.flats import FamilySpec, build_explicit
from chowlab.ordercx import (
    FVector,
    bivariate_check,
    conjecture_check,
    h_polynomial,
    order_complex_fvector,
)
from chowlab.qeuler import classical_eulerian


def test_fvector_examples():
    assert order_complex_fvector(FamilySpec.uniform(3, 3)) == FVector((6, 6))
    assert order_complex_fvector(FamilySpec.uniform(5, 1)) == FVector(())
    assert order_complex_fvector(FamilySpec.uniform(4, 2)) == FVector((4,))


def test_fvector_hash_agrees_with_equality():
    assert len({FVector((6, 6)), FVector([6, 6])}) == 1
    assert hash(FVector((6, 6))) == hash(FVector([6, 6])) and len({FVector((6,)), FVector((6, 6))}) == 2


def test_fvector_route_agreement():
    for n in range(2, 7):
        for r in range(1, n + 1):
            spec = FamilySpec.uniform(n, r)
            lat = build_explicit(spec)
            for proper in (True, False):
                assert order_complex_fvector(spec, proper) == order_complex_fvector(lat, proper), (
                    n,
                    r,
                    proper,
                )


def test_h_polynomial_conventions():
    # empty complex
    assert h_polynomial(FVector(())) == ONE
    # a single vertex in the locked convention (reversed h-vector, so the
    # unique interior face contributes in top degree)
    assert h_polynomial(FVector((1,))) == T
    # the full-rank anchor that pins the convention
    assert h_polynomial(order_complex_fvector(FamilySpec.uniform(3, 3))) == ONE + 4 * T + T**2
    assert h_polynomial(order_complex_fvector(FamilySpec.uniform(4, 4))) == classical_eulerian(4)


def test_full_rank_anchor(holds):
    holds(checks.full_rank_h_anchor(range(2, 7)), [f"full-rank h-polynomial anchor (n={n})" for n in range(2, 7)])


def test_conjecture_reports():
    for n in range(2, 7):
        for r in range(1, n):
            report = conjecture_check(n, r)
            assert set(report) >= {"lhs", "lhs_proper", "rhs", "equal", "equal_proper"}
            # the double-cone reading carries the printed t^2 factor
            assert report["lhs"] == T**2 * report["lhs_proper"]
    with pytest.raises(ValueError):
        conjecture_check(4, 4)


def test_conjecture_4_2_values():
    report = conjecture_check(4, 2)
    assert report["rhs"] == 3 * T**2 + T**3
    assert report["lhs_proper"] == T + 3 * ONE
    assert report["equal"]
    assert not report["equal_proper"]


def test_bivariate_reports():
    for n in range(2, 7):
        report = bivariate_check(n)
        assert report["equal"] is (report["lhs"] == report["rhs"])
    with pytest.raises(ValueError):
        bivariate_check(1)


def test_resource_bounds():
    # counting raises no bound: uniform(9, 4) is counted by both routes
    spec = FamilySpec.uniform(9, 4)
    for proper in (True, False):
        assert order_complex_fvector(spec, proper) == order_complex_fvector(build_explicit(spec), proper)
    with pytest.raises(ValueError):
        order_complex_fvector(FamilySpec.vector(4, 2))
    with pytest.raises(TypeError):
        order_complex_fvector("not a lattice")


# Test-local references: the enumerations the counts replaced, one chain at a time.


def _fvector_by_profile_walk(n, r, proper):
    levels = list(range(1, r)) if proper else list(range(r + 1))
    f = []
    for size in range(1, len(levels) + 1):
        total = 0
        for profile in combinations(levels, size):
            count, lower = 1, 0
            for upper in profile:
                count *= 1 if upper == r else comb(n - lower, upper - lower)
                lower = upper
            total += count
        if total == 0:
            break
        f.append(total)
    return FVector(f)


def _fvector_by_chain_walk(lat, proper):
    vertices = lat.proper_elements() if proper else list(range(len(lat)))
    vertices.sort(key=lambda i: lat.ranks[i])
    counts = {}

    def extend(chain_top, size):
        counts[size] = counts.get(size, 0) + 1
        for j in vertices:
            if lat.ranks[j] > lat.ranks[chain_top] and chain_top in lat.below[j]:
                extend(j, size + 1)

    for i in vertices:
        extend(i, 1)
    return FVector(counts.get(size, 0) for size in range(1, max(counts, default=0) + 1))


def _maximal_chain_walk(lat):
    def walk(i):
        return 1 if i == lat.top else sum(walk(j) for j in lat.upper_covers[i])

    return walk(lat.bottom)


def test_counts_match_the_enumerations():
    for n in range(1, 9):
        for r in range(1, n + 1):
            for proper in (True, False):
                expected = _fvector_by_profile_walk(n, r, proper)
                assert order_complex_fvector(FamilySpec.uniform(n, r), proper) == expected, (n, r, proper)
    for kind, p, top in (("uniform", None, 7), ("vector", 2, 4), ("vector", 3, 3), ("vector", 5, 2)):
        for n in range(1, top + 1):
            for r in range(1, n + 1):
                lat = build_explicit(FamilySpec(kind, n, r), p)
                assert lat.count_maximal_chains() == _maximal_chain_walk(lat), (kind, p, n, r)
                for proper in (True, False):
                    assert order_complex_fvector(lat, proper) == _fvector_by_chain_walk(lat, proper), (kind, p, n, r)
