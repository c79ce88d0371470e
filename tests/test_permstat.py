"""Permutation statistics, enumeration order, statistic sums and
derangement parts.  The derangement-part (Wachs) identities run from
`chowlab.checks` in tests/test_acceptance.py, criterion 10."""

from collections import Counter

import pytest

from chowlab.errors import ResourceBoundError
from chowlab.exactalg import BiPoly, ONE, T
from chowlab.permstat import (
    derangement_part,
    group_by_derangement_part,
    is_alternating,
    permutations_of,
    statistic_sum,
    statistic_sums,
    stats,
)


def test_stats_identity():
    assert stats((1, 2, 3, 4)) == (0, 0, 4)
    assert stats(()) == (0, 0, 0)


def test_stats_examples():
    s = stats((3, 2, 1))
    assert (s.exc, s.maj, s.fix) == (1, 3, 1)
    s = stats((2, 3, 1))
    assert (s.exc, s.maj, s.fix) == (2, 2, 0)
    assert stats((4, 1, 3, 2)) == (1, 4, 1)


def test_enumeration_counts_and_order():
    members = list(permutations_of(3))
    assert members == sorted(members)
    assert len(members) == 6 and len(set(members)) == 6
    assert [v for v in members if stats(v).fix == 0] == [(2, 3, 1), (3, 1, 2)]
    assert [v for v in members if stats(v).fix >= 1] == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
    assert list(permutations_of(0)) == [()]


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError, match="enumeration of size 10 exceeds bound 9"):
        permutations_of(10)
    assert len(list(permutations_of(4, bound=4))) == 24
    with pytest.raises(ResourceBoundError):
        permutations_of(4, bound=3)
    with pytest.raises(ResourceBoundError):
        statistic_sum(10, lambda s: (0, 0))


def test_bound_is_checked_on_every_statistic_sum():
    weight = lambda s: (s.maj, s.exc)  # noqa: E731
    assert statistic_sum(4, weight, bound=4).eval(1, 1) == 24  # fills the per-n table
    with pytest.raises(ResourceBoundError, match="enumeration of size 4 exceeds bound 3"):
        statistic_sum(4, weight, bound=3)


def test_derangement_part():
    assert derangement_part((1, 2, 3, 4, 5)) == ()
    assert derangement_part((1, 3, 2)) == (2, 1)
    assert derangement_part((5, 2, 3, 4, 1)) == (2, 1)
    assert derangement_part((2, 3, 1)) == (2, 3, 1)
    for v in permutations_of(5):
        dp = derangement_part(v)
        assert stats(dp).fix == 0
        assert len(dp) == 5 - stats(v).fix


def test_statistic_sum_examples():
    maj_exc = lambda s: (s.maj - s.exc, s.exc)  # noqa: E731
    assert statistic_sum(2, maj_exc) == ONE + T
    expected = BiPoly({(0, 0): 1, (0, 1): 2, (1, 1): 1, (2, 1): 1, (0, 2): 1})
    assert statistic_sum(3, maj_exc) == expected
    derangements = lambda s: (s.maj - s.exc, s.exc - 1) if s.fix == 0 else None  # noqa: E731
    assert statistic_sum(3, derangements).subs_q_int(1) == ONE + T
    assert statistic_sum(3, lambda s: (0, s.exc)) == ONE + 4 * T + T**2
    assert statistic_sum(2, lambda s: (s.exc, 0)) == ONE + BiPoly.term(1, 1, 0)
    min_fixed = lambda s: (s.maj - s.exc, 2 - s.exc) if s.fix >= 1 else None  # noqa: E731
    assert statistic_sum(3, min_fixed) == BiPoly({(0, 2): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1})
    assert statistic_sum(3, lambda s: None) == BiPoly()


def test_alternating_classes():
    ups = [v for v in permutations_of(4) if is_alternating(v)]
    assert ups == [(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)]
    assert [v for v in permutations_of(0) if is_alternating(v)] == [()]


def test_zero_excedance_is_identity():
    for n in range(1, 7):
        for v in permutations_of(n):
            assert (stats(v).exc == 0) == (v == tuple(range(1, n + 1)))


def test_cached_stats_match_fresh_computation():
    """statistic_sum reads a per-n table of statistics; summing the weight
    permutation by permutation must give the same polynomial."""
    weights = (
        lambda s: (s.maj - s.exc, s.exc),
        lambda s: (s.maj, s.fix),
        lambda s: (s.exc, 0) if s.fix == 0 else None,
    )
    for n in range(7):
        for weight in weights:
            fresh = Counter(weight(stats(v)) for v in permutations_of(n))
            fresh.pop(None, None)
            assert statistic_sum(n, weight) == BiPoly(fresh), n


def test_grouped_sums_are_the_filtered_sums():
    """statistic_sums groups one pass over the per-n table: each group is the
    statistic_sum of the permutations with its key, and no key is empty."""
    weight = lambda s: (s.maj - s.exc, s.exc) if s.maj % 3 else None  # noqa: E731
    for n in range(7):
        for key in (lambda s: (s.exc, s.fix), lambda s: s.fix):
            groups = statistic_sums(n, key, weight)
            keys = {key(stats(v)) for v in permutations_of(n) if weight(stats(v)) is not None}
            assert set(groups) == keys, n
            for k, poly in groups.items():
                assert poly == statistic_sum(n, lambda s: weight(s) if key(s) == k else None), (n, k)
    with pytest.raises(ResourceBoundError):
        statistic_sums(4, lambda s: s.fix, lambda s: (0, 0), bound=3)


def test_fibers_group_every_permutation_by_its_derangement_part():
    for n in range(8):
        fibers = Counter()
        for v in permutations_of(n):
            fibers[derangement_part(v), stats(v).maj] += 1
        grouped = group_by_derangement_part(n)
        assert {(dp, qd): c for dp, poly in grouped.items() for (qd, _), c in poly.terms.items()} == fibers
