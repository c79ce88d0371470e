"""Permutations of [n] = {1..n} as one-line tuples, their statistics, and
weighted sums of those statistics over the symmetric group S_n.

(2, 3, 1) is the map 1->2, 2->3, 3->1.  A descent is a position i with
sigma(i) > sigma(i+1) and maj is the sum of descent positions (the standard
major index).  The helpers below take a tuple that is a permutation of
1..len(v) and do not check it.

>>> stats((3, 2, 1))
PermStats(exc=1, maj=3, fix=1)
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import permutations

from .errors import ResourceBoundError
from .exactalg import BiPoly

DEFAULT_ENUM_BOUND = 9


def _check_bound(n, bound):
    limit = DEFAULT_ENUM_BOUND if bound is None else bound
    if n > limit:
        raise ResourceBoundError(
            f"enumeration of size {n} exceeds bound {limit}; pass a larger bound (check --bound)"
        )


PermStats = namedtuple("PermStats", "exc maj fix")


def stats(v):
    """Excedances, major index and fixed points of the permutation v."""
    exc = fix = maj = 0
    for i, a in enumerate(v, 1):
        if a > i:
            exc += 1
        elif a == i:
            fix += 1
    for i in range(1, len(v)):
        if v[i - 1] > v[i]:
            maj += i
    return PermStats(exc, maj, fix)


def permutations_of(n, bound=None):
    """Every permutation of [n] once, in lexicographic one-line order."""
    _check_bound(n, bound)
    return permutations(range(1, n + 1))


def derangement_part(v):
    """Reduction of the permutation v along its nonfixed points.

    >>> derangement_part((5, 2, 3, 4, 1))
    (2, 1)
    """
    moved = [i for i, a in enumerate(v, 1) if a != i]
    index = {a: j for j, a in enumerate(moved, 1)}
    return tuple(index[v[a - 1]] for a in moved)


def is_alternating(v, convention):
    """Up-down: sigma(1) < sigma(2) > sigma(3) < ...; down-up: reversed signs."""
    if convention not in ("up-down", "down-up"):
        raise ValueError(f"unknown convention {convention!r}")
    for i in range(len(v) - 1):
        want_ascent = (i % 2 == 0) if convention == "up-down" else (i % 2 == 1)
        if (v[i] < v[i + 1]) != want_ascent:
            return False
    return True


@lru_cache(maxsize=None)
def _stat_counts(n):
    """(PermStats, number of permutations of [n] with them), one walk of S_n."""
    return tuple(Counter(map(stats, permutations(range(1, n + 1)))).items())


def statistic_sum(n, weight, bound=None):
    """Sum over S_n of q^a t^b with (a, b) = weight(stats(v)); a weight that
    returns None leaves the permutation out."""
    _check_bound(n, bound)
    terms = Counter()
    for s, count in _stat_counts(n):
        key = weight(s)
        if key is not None:
            terms[key] += count
    return BiPoly(terms)


def group_by_derangement_part(n, bound=None):
    """Map each derangement part to the q^maj generating sum of its fiber."""
    fibers = {}
    for v in permutations_of(n, bound):
        fibers.setdefault(derangement_part(v), Counter())[(stats(v).maj, 0)] += 1
    return {dp: BiPoly(terms) for dp, terms in fibers.items()}
