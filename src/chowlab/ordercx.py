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

from math import comb

from .exactalg import BiPoly, Layout, ONE, T, ZERO
from .flats import UNIFORM, ExplicitLattice, FamilySpec, _read_only
from .chow import hilbert_recurrence


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

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"FVector({list(self.f)})"


def order_complex_fvector(source, proper=True):
    """f-vector of the order complex of a lattice of flats.

    Uniform family descriptors are counted from level binomials, explicit
    lattices from their order relation, in polynomial time and under no
    bound; the one bound on this path is `build_explicit`'s size bound.
    With proper=False the bottom and top are kept as vertices.
    """
    if isinstance(source, FamilySpec):
        if source.kind != UNIFORM:
            raise ValueError("rank-profile f-vectors are for the uniform family")
        return _fvector_by_profiles(source.n, source.r, proper)
    if isinstance(source, ExplicitLattice):
        return _fvector_by_chains(source, proper)
    raise TypeError(f"cannot take an order complex of {type(source).__name__}")


def _fvector_by_profiles(n, r, proper):
    """Chains by the rank of their top: ends[top][k] chains of k + 1 flats end
    at rank `top`, and a rank-i flat lies below C(n - i, top - i) of rank `top`
    (below one, the top flat, at top = r)."""
    levels = range(1, r) if proper else range(r + 1)
    ends = {}
    for top in levels:
        above = [1 if top == r else comb(n - i, top - i) for i in range(top + 1)]
        lower = [(above[i], ends[i]) for i in range(levels.start, top)]
        ends[top] = [above[0]] + [sum(c * row[k] for c, row in lower) for k in range(len(levels) - 1)]
    return FVector(map(sum, zip(*ends.values())))


def _fvector_by_chains(lat, proper):
    """Chains by their top element: the chains ending at vertex j, as the
    t-polynomial e_j = 1 + t sum_{vertices i below j} e_i, t^k counting those
    of k + 1 vertices.  Each e_j is a packed `int` at `Layout(2^N, 0)`: the
    f-vector's entries count chains of the N elements, at most 2^N in all,
    and every count is nonnegative.  An f-vector has zeros only at its end,
    and they are dropped."""
    vertices = lat.proper_elements() if proper else list(range(len(lat)))
    vertices.sort(key=lat.ranks.__getitem__)
    layout = Layout(2 ** len(lat), 0)
    ends = [0] * len(lat)
    for j in vertices:
        ends[j] = 1 + (sum(map(ends.__getitem__, lat.below[j])) << layout.ts)
    f = layout.read(sum(ends), lat.rank + 1).terms
    return FVector(f[key] for key in sorted(f))


def h_polynomial(fvec):
    """Standard simplicial h-polynomial of an f-vector (t-polynomial), by
    Horner's rule in t - 1 on an integer coefficient list: each step
    multiplies by t - 1 and adds the next f_(i-1) to the constant term.

    >>> h_polynomial(FVector([3, 3])).to_text()  # a triangle's boundary
    '1 + t + t^2'
    """
    h = []
    for i in range(fvec.dim + 2):
        h = [below - at for at, below in zip(h + [0], [0] + h)]
        h[0] += fvec[i - 1]
    return BiPoly({(0, k): c for k, c in enumerate(h)})


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
    rhs = T**2 * sum(
        (comb(n - i - 1, r - i) * hilbert_recurrence(FamilySpec.uniform(n, i)) for i in range(1, r + 1)), ZERO
    )
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
    u, specs = BiPoly.term(1, 1, 0), [FamilySpec.uniform(n, r) for r in range(1, n)]
    lhs = sum((h_polynomial(order_complex_fvector(spec)) * u ** (n - 1 - spec.r) for spec in specs), ZERO)
    rhs = sum((hilbert_recurrence(spec) * (u + ONE) ** (n - 1 - spec.r) for spec in specs), ZERO)
    return {"n": n, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
