"""Order complexes of lattices of flats: f-vectors, h-polynomials, and the
order-complex/Hilbert-series conjecture checker.

The complex is taken on the proper part (top and bottom removed); adding
them back cones the complex twice, which multiplies the h-polynomial in
the convention below by t^2.  The h-polynomial of a complex with f_j faces
of dimension j (f_{-1} = 1) is

    h(t) = sum_{i=0}^{d} f_{i-1} (t-1)^(d-i),     d = dim + 1,

the degree convention pinned by the full-rank anchor h = A_n(t).

The conjecture checker computes both sides exactly and reports; it never
asserts the conjecture's truth.  Because the printed right-hand side
carries a t^2 factor, the left side is evaluated under both readings of
the order complex (proper part, and full lattice = double cone).
"""

from __future__ import annotations

from itertools import combinations

from .errors import ResourceBoundError
from .exactalg import BiPoly, ONE, T, binomial
from .flats import UNIFORM, ExplicitLattice, FamilySpec, _read_only
from .chow import hilbert_recurrence

FVECTOR_MAX_N = 8


class FVector:
    """Face counts of a chain complex: f[j] = number of j-dimensional faces."""

    __slots__ = ("f",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, f):
        object.__setattr__(self, "f", tuple(f))

    @property
    def dim(self):
        return len(self.f) - 1

    def __getitem__(self, j):
        return 1 if j == -1 else self.f[j]

    def __eq__(self, other):
        return isinstance(other, FVector) and self.f == other.f

    def __repr__(self):
        return f"FVector({list(self.f)})"


def order_complex_fvector(source, proper=True):
    """f-vector of the order complex of a lattice of flats.

    Uniform family descriptors are counted by rank profiles; explicit
    lattices by direct chain enumeration.  With proper=False the bottom
    and top are kept as vertices.
    """
    if isinstance(source, FamilySpec):
        if source.kind != UNIFORM:
            raise ValueError("rank-profile f-vectors are for the uniform family")
        if source.n > FVECTOR_MAX_N:
            raise ResourceBoundError(f"f-vector counting capped at n <= {FVECTOR_MAX_N}")
        return _fvector_by_profiles(source.n, source.r, proper)
    if isinstance(source, ExplicitLattice):
        return _fvector_by_chains(source, proper)
    raise TypeError(f"cannot take an order complex of {type(source).__name__}")


def _fvector_by_profiles(n, r, proper):
    levels = list(range(1, r)) if proper else list(range(r + 1))
    f = []
    for size in range(1, len(levels) + 1):
        total = 0
        for profile in combinations(levels, size):
            count = 1
            lower = 0
            for upper in profile:
                count *= 1 if upper == r else binomial(n - lower, upper - lower)
                lower = upper
            total += count
        if total == 0:
            break
        f.append(total)
    return FVector(f)


def _fvector_by_chains(lat, proper):
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
    f = [counts.get(size, 0) for size in range(1, max(counts, default=0) + 1)]
    return FVector(f)


def h_polynomial(fvec):
    """Standard simplicial h-polynomial of an f-vector (t-polynomial)."""
    d = fvec.dim + 1
    total = BiPoly()
    for i in range(d + 1):
        total = total + fvec[i - 1] * (T - ONE) ** (d - i)
    return total


def conjecture_check(n, r):
    """Both sides of the order-complex identity for uniform(n, r), r < n.

    Reports the left side under both the proper-part and the full-lattice
    reading; `equal` refers to the full-lattice reading, whose double-cone
    t^2 factor matches the printed right-hand side.
    """
    if r >= n:
        raise ValueError(f"the conjecture concerns r < n, got r={r}, n={n}")
    spec = FamilySpec.uniform(n, r)
    lhs_proper = h_polynomial(order_complex_fvector(spec, proper=True))
    lhs_full = h_polynomial(order_complex_fvector(spec, proper=False))
    rhs = BiPoly()
    for i in range(1, r + 1):
        rhs = rhs + binomial(n - i - 1, r - i) * hilbert_recurrence(
            FamilySpec.uniform(n, i)
        )
    rhs = BiPoly.term(1, 0, 2) * rhs
    return {
        "n": n,
        "r": r,
        "lhs": lhs_full,
        "lhs_proper": lhs_proper,
        "rhs": rhs,
        "equal": lhs_full == rhs,
        "equal_proper": lhs_proper == rhs,
    }


def bivariate_check(n):
    """The equivalent bivariate restatement, with u in the q slot:
    sum_r h_r(t) u^(n-2-r) against sum_r H_r(t) (u+1)^(n-2-r)."""
    if n < 2:
        raise ValueError("need n >= 2")
    u = BiPoly.term(1, 1, 0)
    lhs = BiPoly()
    rhs = BiPoly()
    for r in range(n - 1):
        h = h_polynomial(order_complex_fvector(FamilySpec.uniform(n, r + 1)))
        lhs = lhs + h * u ** (n - 2 - r)
        rhs = rhs + hilbert_recurrence(FamilySpec.uniform(n, r + 1)) * (u + ONE) ** (n - 2 - r)
    return {"n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
