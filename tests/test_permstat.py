"""Permutation statistics, class enumeration, statistic sums and
derangement parts.  The derangement-part (Wachs) identities run from
`chowlab.checks` in tests/test_acceptance.py, criterion 10."""

import pytest

from chowlab.errors import ResourceBoundError
from chowlab.exactalg import BiPoly, ONE, T
from chowlab.permstat import (
    Perm,
    PermClass,
    enum_bound,
    statistic_sum,
    w_maj_exc,
    w_maj_exc_complement,
    w_maj_exc_offset,
    w_q_exc,
    w_t_exc,
)


def test_stats_identity():
    s = Perm((1, 2, 3, 4)).stats()
    assert (s.exc, s.maj, s.des, s.inv, s.fix) == (0, 0, 0, 0, 4)


def test_stats_examples():
    s = Perm((3, 2, 1)).stats()
    assert (s.exc, s.maj, s.des, s.inv, s.fix) == (1, 3, 2, 3, 1)
    s = Perm((2, 3, 1)).stats()
    assert (s.exc, s.maj, s.des, s.inv, s.fix) == (2, 2, 1, 2, 0)


def test_invalid_perm_rejected():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))


def test_enumeration_counts_and_order():
    members = [p.values for p in PermClass.All(3).members()]
    assert members == sorted(members)
    assert len(members) == 6
    assert [p.values for p in PermClass.Derangements(3).members()] == [(2, 3, 1), (3, 1, 2)]
    assert [p.values for p in PermClass.MinFixed(3, 1).members()] == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (3, 2, 1),
    ]


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError):
        list(PermClass.All(10).members())
    assert len(list(PermClass.All(4).members(bound=4))) == 24
    with pytest.raises(ResourceBoundError):
        list(PermClass.All(4).members(bound=3))


def test_enum_bound_env(monkeypatch):
    monkeypatch.setenv("CHOWLAB_NMAX", "4")
    assert enum_bound() == 4
    assert enum_bound(11) == 11
    monkeypatch.delenv("CHOWLAB_NMAX")
    assert enum_bound() == 9


def test_derangement_part():
    assert Perm((1, 2, 3, 4, 5)).derangement_part().values == ()
    assert Perm((1, 3, 2)).derangement_part().values == (2, 1)
    assert Perm((5, 2, 3, 4, 1)).derangement_part().values == (2, 1)
    for p in PermClass.All(5).members():
        dp = p.derangement_part()
        assert dp.stats().fix == 0


def test_statistic_sum_examples():
    assert statistic_sum(PermClass.All(2), w_maj_exc) == ONE + T
    expected = BiPoly({(0, 0): 1, (0, 1): 2, (1, 1): 1, (2, 1): 1, (0, 2): 1})
    assert statistic_sum(PermClass.All(3), w_maj_exc) == expected
    assert statistic_sum(PermClass.Derangements(3), w_maj_exc_offset(-1)).subs_q_int(1) == ONE + T
    assert statistic_sum(PermClass.All(3), w_t_exc) == ONE + 4 * T + T**2
    assert statistic_sum(PermClass.All(2), w_q_exc) == ONE + BiPoly.term(1, 1, 0)
    assert statistic_sum(PermClass.MinFixed(3, 1), w_maj_exc_complement(2)) == BiPoly(
        {(0, 2): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1}
    )


def test_alternating_classes():
    ups = [p.values for p in PermClass.Alternating(4, "up-down").members()]
    assert ups == [(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)]
    downs = list(PermClass.Alternating(4, "down-up").members())
    assert len(downs) == 5
    assert [p.values for p in PermClass.Alternating(0, "up-down").members()] == [()]
    with pytest.raises(ValueError):
        Perm((2, 1)).is_alternating("sideways")


def test_zero_excedance_is_identity():
    for n in range(1, 7):
        for p in PermClass.All(n).members():
            assert (p.stats().exc == 0) == (p.values == tuple(range(1, n + 1)))


def test_cached_stats_match_fresh_computation():
    p = Perm((4, 1, 3, 2))
    first = p.stats()
    assert p.stats() is first
    assert first == Perm((4, 1, 3, 2)).stats()
