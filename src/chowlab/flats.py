"""Matroid-family descriptors and explicit small lattices of flats.

Two families are supported, both with all upper intervals from a given
level isomorphic (so level data determines every chain count):

  * uniform(n, r): flats are the subsets of [n] of size <= r-1 plus [n];
  * vector(n, r):  flats are the subspaces of F_q^n of dim <= r-1 plus
    the full space, with q a formal variable.

The rank-r flat is always the unique top.  Symbolic computations never fix
q; only build_explicit instantiates a concrete prime for the brute-force
oracles, enumerating subspaces by reduced row echelon form.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import comb, isqrt

from .errors import ResourceBoundError
from .exactalg import BiPoly, gauss_binomial

UNIFORM = "uniform"
VECTOR = "vector"


def _read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of a value whose fields never change."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class FamilySpec(namedtuple("FamilySpec", "kind n r")):
    __slots__ = ()

    def __new__(cls, kind, n, r):
        if kind not in (UNIFORM, VECTOR):
            raise ValueError(f"unknown family kind {kind!r}")
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        return super().__new__(cls, kind, n, r)

    @classmethod
    def _make(cls, fields):  # so `_replace` validates too
        return cls(*fields)

    @classmethod
    def uniform(cls, n, r):
        return cls(UNIFORM, n, r)

    @classmethod
    def vector(cls, n, r):
        return cls(VECTOR, n, r)

    def __str__(self):
        return f"{self.kind}({self.n},{self.r})"


def level_size(spec, i):
    """Number of rank-i flats as a q-polynomial (a constant for uniform)."""
    if not 0 <= i <= spec.r:
        raise ValueError(f"level {i} out of range 0..{spec.r}")
    return chains_above(spec, 0, i)


def chains_above(spec, lower, upper):
    """Number of rank-`upper` flats above a fixed rank-`lower` flat (q-poly)."""
    if upper == spec.r:
        return BiPoly.const(1)
    if spec.kind == UNIFORM:
        return BiPoly.const(comb(spec.n - lower, upper - lower))
    return gauss_binomial(spec.n - lower, upper - lower)


# -- explicit lattices ---------------------------------------------------

EXPLICIT_MAX_SIZE = 200  # points of the ground set, and flats, of one explicit lattice


class ExplicitLattice:
    """A concrete ranked lattice with full order relation and cover lists.

    Element 0 is the bottom; the top is the unique rank-`rank` element.
    `below[i]` is the frozenset of indices strictly below element i and
    `upper_covers[i]` the sorted tuple of the elements covering it; both
    come ready-made, as `build_explicit` reads them off its level table.
    """

    __slots__ = ("labels", "ranks", "rank", "bottom", "top", "below", "upper_covers")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, labels, ranks, rank, below, upper_covers):
        labels, ranks, below, upper_covers = map(tuple, (labels, ranks, below, upper_covers))
        fields = (labels, ranks, rank, ranks.index(0), ranks.index(rank), below, upper_covers)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.labels)

    def level_counts(self):
        counts = [0] * (self.rank + 1)
        for r in self.ranks:
            counts[r] += 1
        return counts

    def count_maximal_chains(self):
        """Bottom-to-top saturated chains: the chains up from each element
        are the sum of those up from its covers, added from the top down."""
        above = [0] * len(self)
        above[self.top] = 1
        for i in sorted(range(len(self)), key=self.ranks.__getitem__, reverse=True):
            above[i] += sum(map(above.__getitem__, self.upper_covers[i]))
        return above[self.bottom]

    def proper_elements(self):
        return [i for i in range(len(self)) if i not in (self.bottom, self.top)]

    def to_json(self):
        return {
            "rank": self.rank,
            "elements": [sorted(label) for label in self.labels],
            "ranks": list(self.ranks),
            "covers": sorted(
                [i, j] for i in range(len(self)) for j in self.upper_covers[i]
            ),
        }


def build_explicit(spec, p=None):
    """Materialize the lattice of flats; vector families need a prime p.

    The flats of rank below r are the cached level table of (kind, n, p)
    cut at rank r - 1, and the top covers every flat of rank r - 1, so
    each truncation r of one (kind, n, p) costs O(N) past the first.
    """
    n, r = spec.n, spec.r
    if spec.kind == VECTOR:
        if p is None:
            raise ValueError("vector-family lattices need a numeric prime p")
        # Trial division stops at 10^6: that decides every p <= 10^12, and a
        # larger p has p^n > EXPLICIT_MAX_SIZE points anyway.
        if p < 2 or any(p % d == 0 for d in range(2, min(isqrt(p), 10**6) + 1)):
            raise ValueError(f"p = {p} is not prime")
    else:
        p = None
    explicit_size(spec, p)
    labels, ranks, below, upper_covers, _ = _flats(spec.kind, n, p, r - 1)
    top = len(labels)
    return ExplicitLattice(
        labels + (frozenset(_ground(spec.kind, n, p)),),
        ranks + (r,),
        r,
        below + (frozenset(range(top)),),
        upper_covers + ((top,),) * (top - len(upper_covers)) + ((),),
    )


@lru_cache(maxsize=None)
def _flats(kind, n, p, k):
    """The level table of (kind, n, p) up to rank k: (labels, ranks, below,
    upper_covers, masks) of its flats of ranks 0..k, in rank order, with
    upper covers for the flats below rank k only.

    It extends the table up to rank k - 1 by the rank-k flats of `_level`.
    A flat's mask ORs its points' bits, so containment is one AND, and it
    is tested between consecutive ranks only: the rank-(k-1) flats inside
    a rank-k flat are its lower covers, and what lies below it is the union
    of those covers and everything below them.
    """
    labels, ranks, below, upper_covers, masks = _flats(kind, n, p, k - 1) if k else ((),) * 5
    bits = _ground(kind, n, p)
    level = _level(kind, n, p, k)
    start, end = len(upper_covers), len(labels)  # the rank-(k-1) flats
    covers = [[] for _ in range(start, end)]
    new_below, new_masks = [], []
    for j, label in enumerate(level, end):
        mask = sum(map(bits.__getitem__, label))
        lower = [i for i in range(start, end) if masks[i] & mask == masks[i]]
        for i in lower:
            covers[i - start].append(j)
        new_below.append(frozenset(lower).union(*map(below.__getitem__, lower)))
        new_masks.append(mask)
    return (
        labels + level,
        ranks + (k,) * len(level),
        below + tuple(new_below),
        upper_covers + tuple(map(tuple, covers)),
        masks + tuple(new_masks),
    )


def _level(kind, n, p, k):
    """The rank-k flats of (kind, n, p), in the order they are numbered:
    the k-subsets of [n], or the spans of the k x n RREF matrices over F_p."""
    if kind == UNIFORM:
        return tuple(frozenset(subset) for subset in combinations(range(1, n + 1), k))
    return tuple(_span(basis, n, p) for basis in _rref_bases(n, k, p))


@lru_cache(maxsize=None)
def _ground(kind, n, p):
    """The points of (kind, n, p), [n] or F_p^n, each mapped to its own bit."""
    points = range(1, n + 1) if kind == UNIFORM else product(range(p), repeat=n)
    return {point: 1 << i for i, point in enumerate(points)}


def explicit_size(spec, p=None):
    """(points, flats) of the explicit lattice in `int`: n points (p^n for
    vector), and the top plus the level sizes below it at q = p (q = 1 for
    uniform).  ResourceBoundError past EXPLICIT_MAX_SIZE; the points come
    first, so a huge n or p costs a few steps and no Gaussian binomial.

    >>> explicit_size(FamilySpec.vector(3, 2), 5)
    (125, 33)
    """
    if spec.kind == UNIFORM:
        where, points, q = str(spec), spec.n, 1
    else:  # p >= 2, so p^n is past the bound once n reaches its bit length
        where, points, q = f"{spec} at p={p}", p ** min(spec.n, EXPLICIT_MAX_SIZE.bit_length()), p
    if points > EXPLICIT_MAX_SIZE:
        raise ResourceBoundError(f"{where} has over {EXPLICIT_MAX_SIZE} points")
    flats = 1 + sum(level_size(spec, i).eval(q, 1) for i in range(spec.r))
    if flats > EXPLICIT_MAX_SIZE:
        raise ResourceBoundError(f"{where} has over {EXPLICIT_MAX_SIZE} flats")
    return points, flats


def _rref_bases(n, k, p):
    """All k x n reduced row echelon matrices of rank k over F_p."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        free_positions = [
            (row, col)
            for row in range(k)
            for col in range(pivots[row] + 1, n)
            if col not in pivots
        ]
        for values in product(range(p), repeat=len(free_positions)):
            matrix = [[0] * n for _ in range(k)]
            for row, pivot in enumerate(pivots):
                matrix[row][pivot] = 1
            for (row, col), v in zip(free_positions, values):
                matrix[row][col] = v
            yield tuple(tuple(row) for row in matrix)


def _span(basis, n, p):
    vectors = set()
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * n
        for c, row in zip(coeffs, basis):
            if c:
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % p
        vectors.add(tuple(v))
    return frozenset(vectors)
