"""Exact sparse polynomials in the formal variables q and t.

A BiPoly is a dictionary mapping exponent pairs (q_deg, t_deg) to nonzero
Python integers, so arithmetic is exact at every size.  The empty dict is
the zero polynomial and equality is plain dict equality (canonical form:
zero coefficients are never stored).  Values are immutable: `terms` is a
read-only view of the dictionary.

    1 + (2 + q + q^2)*t + t^2   ->   {(0,0): 1, (0,1): 2, (1,1): 1,
                                      (2,1): 1, (0,2): 1}

Univariate values (pure q-polynomials, pure t-polynomials, integers) are
just BiPolys whose exponents happen to vanish in one slot, so every
quantity in the package lives in a single value type.

Large polynomials are multiplied as Python integers, through one packing
format, `Layout` (Kronecker substitution: D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009).  `*` packs a large product's two factors at one layout and reads
the product back once; every other packed route fixes its own layout from
its own bounds, most by `recurrence_bounds`, and multiplies `int`s, a sum
over rank tuples by one walk, `tuple_sum`.  Leading principal minors, by
one Bareiss elimination, use the same packing: the matrix is packed once
and eliminated in `int`, and only the minors are read back.
"""

import struct
from functools import lru_cache
from itertools import accumulate, groupby, repeat
from operator import add, itemgetter, mul, sub
from types import MappingProxyType

# A product by `*` takes the Kronecker route when it has at least this many
# term pairs (the product of its factors' term counts).  Below that the term
# loop is faster: packing and unpacking cost a pass over the whole (q, t)
# rectangle of the product.
_KRONECKER_MIN_PAIRS = 256


class BiPoly:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (qd, td), c in terms.items():
                if c == 0:
                    continue
                if qd < 0 or td < 0:
                    raise ValueError(f"negative exponent ({qd}, {td})")
                t[(qd, td)] = c
        self._terms = t

    @property
    def terms(self):
        """Read-only view {(q_deg, t_deg): coefficient}."""
        return MappingProxyType(self._terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def term(cls, c, q_deg=0, t_deg=0):
        return cls({(q_deg, t_deg): c})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        """The product, by the term loop, or packed at one `Layout` when it
        has at least _KRONECKER_MIN_PAIRS term pairs.  The packed product's
        coefficients are at most min(||a||_1 max|b|, ||b||_1 max|a|), its
        q-degree and t-degree the sums of the factors', so it reads back
        exactly from the layout of that bound and q-degree."""
        a, b = self._terms, _coerce(other)._terms
        if len(a) * len(b) < _KRONECKER_MIN_PAIRS:
            out = {}
            for (qa, ta), ca in a.items():
                for (qb, tb), cb in b.items():
                    k = (qa + qb, ta + tb)
                    s = out.get(k, 0) + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            return _raw(out)
        sa, sb = list(map(abs, a.values())), list(map(abs, b.values()))
        (qa, ta), (qb, tb) = (map(max, zip(*terms)) for terms in (a, b))
        layout = Layout(min(sum(sa) * max(sb), sum(sb) * max(sa)), qa + qb)
        return layout.read(layout.pack(a, ta + 1) * layout.pack(b, tb + 1), ta + tb + 1)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return ONE if result is None else result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # a constant equals its int, so it hashes as that int
        return hash(self.constant() if self._terms.keys() <= {(0, 0)} else frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- structure queries --------------------------------------------

    def q_degree(self):
        return max((qd for qd, _ in self._terms), default=0)

    def t_degree(self):
        return max((td for _, td in self._terms), default=0)

    def coefficient_in_t(self, t_deg):
        """The coefficient of t^t_deg, as a pure q-polynomial."""
        return _raw({(qd, 0): c for (qd, td), c in self._terms.items() if td == t_deg})

    def constant(self):
        """The integer coefficient of q^0 t^0."""
        return self._terms.get((0, 0), 0)

    def is_palindromic_in_t(self, degree):
        """True iff coeff of t^k equals coeff of t^(degree-k) as q-polynomials."""
        terms = self._terms
        return self.t_degree() <= degree and all(terms.get((qd, degree - td)) == c for (qd, td), c in terms.items())

    # -- substitution and evaluation ----------------------------------

    def eval(self, q, t):
        """Evaluate at integer q and t (an exact ring homomorphism).

        Each power of q and of t is one multiply from a table built per call.
        """
        qp = list(accumulate(repeat(q, self.q_degree()), mul, initial=1))
        tp = list(accumulate(repeat(t, self.t_degree()), mul, initial=1))
        return sum(c * qp[qd] * tp[td] for (qd, td), c in self._terms.items())

    def subs_t_int(self, value):
        """Substitute an integer for t, keeping q symbolic."""
        return self._subs_int(value, 1)

    def subs_q_int(self, value):
        """Substitute an integer for q, keeping t symbolic."""
        return self._subs_int(value, 0)

    def _subs_int(self, value, slot):
        """Substitute an integer for the variable of exponent slot `slot`
        (0 for q, 1 for t), keeping the other symbolic."""
        out = {}
        for degrees, c in self._terms.items():
            k = (degrees[0], 0) if slot else (0, degrees[1])
            s = out.get(k, 0) + c * value ** degrees[slot]
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    # -- rendering -----------------------------------------------------

    def __repr__(self):
        return f"BiPoly({self.to_text()!r})"

    def __str__(self):
        return self.to_text()

    def to_text(self):
        """Render with ascending t-powers, q-coefficients in parentheses.

        >>> (BiPoly.const(1) + BiPoly.term(2, 0, 1) + BiPoly.term(1, 1, 1)
        ...  + BiPoly.term(1, 2, 1) + BiPoly.term(1, 0, 2)).to_text()
        '1 + (2 + q + q^2)*t + t^2'
        """
        if not self._terms:
            return "0"
        terms = self._terms
        rows = groupby(sorted(terms, key=itemgetter(1, 0)), key=itemgetter(1))
        return _join_signed([_render_t_term([(qd, terms[qd, td]) for qd, _ in row], td) for td, row in rows])

    @classmethod
    def from_json_terms(cls, terms):
        return cls({(int(e["q"]), int(e["t"])): int(e["c"]) for e in terms})

    def to_csv_rows(self):
        """Rows (t_deg, q_deg, coefficient-string), sorted by (t, q)."""
        terms = self._terms
        return [(td, qd, str(terms[qd, td])) for qd, td in sorted(terms, key=itemgetter(1, 0))]


def _raw(terms):
    p = BiPoly.__new__(BiPoly)
    p._terms = terms
    return p


def _coerce(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, int):
        return BiPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to BiPoly")


class Layout:
    """The packing of polynomials in Z[q, t] as Python integers.

    `Layout(norm, q_degree)` fixes slots nb = bits(norm) // 8 + 1 bytes
    wide, w = q_degree + 1 slots to a t-row, and the shifts qs = 8 nb and
    ts = 8 nb w: c q^i t^j is packed as c * 2^(i qs + j ts), in slot
    j w + i, so packing is evaluation at q = 2^qs, t = 2^ts.  A layout with
    one slot to a row (q_degree = 0) has qs = 0, evaluation at q = 1, which
    is exact for a value with no q.

    Soundness.  Packing is a ring homomorphism Z[q, t] -> Z, so sums,
    products, shifts and exact quotients of packings are the packings of
    the same operations on the polynomials, however large the integers in
    between grow.  Only a value that is read back must fit the layout: its
    q-degree at most q_degree, its t-degree below the rows read, and every
    |coefficient| at most norm, below 2^(8 nb - 1).  Such a value reads back
    exactly, and the zero polynomial is exactly the integer 0.

    T-rows.  The same packing cut at stride ts is a value's `TRows`: row j
    is its t^j coefficient packed at q = 2^qs alone, only as wide as its
    own q-degree needs, and the packing is the sum of row_j << j ts
    (`join_rows`).  Where qs > 0 a recurrence keeps its values so
    (`t_horner`), and a product by an `int` in q is one product a row.
    """

    __slots__ = ("w", "nb", "qs", "ts")

    def __init__(self, norm, q_degree):
        self.w, self.nb = q_degree + 1, norm.bit_length() // 8 + 1
        self.qs, self.ts = 8 * self.nb if q_degree else 0, 8 * self.nb * self.w

    def _bias(self, slots):
        """The integer whose every one of `slots` slots holds 2^(8 nb - 1)."""
        return int.from_bytes((1 << (8 * self.nb - 1)).to_bytes(self.nb, "little") * slots, "little")

    def pack(self, terms, rows):
        """The packing of the polynomial with these terms {(q_deg, t_deg): c},
        of q-degree at most q_degree and t-degree below `rows`; a term
        outside those is an `OverflowError`, as a value too large for
        `read`'s rows is, not a term moved to another slot.
        Each of the rows * w slots is written as the digit c + 2^(8 nb - 1)
        in one bytes join, and the bias is subtracted once."""
        w, nb = self.w, self.nb
        if max(map(itemgetter(0), terms), default=0) >= w:
            raise OverflowError(f"a term of q-degree past {w - 1} does not fit this layout")
        half = 1 << (8 * nb - 1)
        digits = [half] * (rows * w)
        try:
            for (qd, td), c in terms.items():
                digits[td * w + qd] = c + half
        except IndexError:
            raise OverflowError(f"a term of t-degree {rows} or more does not fit {rows} rows") from None
        buf = b"".join(map(int.to_bytes, digits, repeat(nb), repeat("little")))
        return int.from_bytes(buf, "little") - self._bias(rows * w)

    def read(self, value, rows=None):
        """The BiPoly packed as `value`, read from its first `rows` t-rows.

        By default as many rows are read as any integer of its size needs,
        so a value that does not fit the layout, with a term past q_degree
        or too large a coefficient, still reads back as a polynomial with
        the same packing, not as an error.  Adding the bias 2^(8 nb - 1) to
        every slot makes each slot a digit in [0, 2^(8 nb)), so the slots
        are the nb-byte pieces of one to_bytes call, sliced apart by
        `struct.iter_unpack` with no per-width pattern to compile, in one
        loop.  A slot equal to the bias is a zero coefficient and is skipped
        before it is read as an integer; slot i is the term (i mod w, i // w).
        """
        w, nb = self.w, self.nb
        if rows is None:
            rows = (value.bit_length() + 1) // self.ts + 1
        half = 1 << (8 * nb - 1)
        zero = half.to_bytes(nb, "little")
        buf = (value + self._bias(rows * w)).to_bytes(rows * w * nb, "little")
        terms = {}
        for i, (slot,) in enumerate(struct.iter_unpack(f"{nb}s", buf)):
            if slot != zero:
                terms[i % w, i // w] = int.from_bytes(slot, "little") - half
        return _raw(terms)


class TRows(tuple):
    """A value as its t-rows (see `Layout`), added row by row, and c * x one
    product a row for an `int` c in q; an `int` is the one-row value."""

    __slots__ = ()

    def __add__(self, other):
        other = other if type(other) is TRows else (other,)
        return TRows((*map(add, self, other), *self[len(other) :], *other[len(self) :]))

    __radd__ = __add__

    def __rmul__(self, c):
        return TRows(map(c.__mul__, self))


def t_horner(layout, cs, ks=None):
    """The Horner sum in t at `layout`: from x = 0 and c_0, c_1, ..., the x
    of x = c_i + t x, or of x = c_i + (t - q^k_i) x given k_0, k_1, ...
    Where qs = 0, q is 1 and x one packed `int`; otherwise x is `TRows`."""
    qs, ts = layout.qs, layout.ts
    if not qs:
        x = 0
        for c in cs:
            x = (x << ts) + c if ks is None else (x << ts) - x + c
        return x
    x = ()
    for c, k in zip(cs, repeat(None) if ks is None else ks):
        c, lo = c if type(c) is TRows else (c,), (0, *x)
        y = [*map(add, c, lo), *c[len(lo) :], *lo[len(c) :]]
        x = y if k is None else [*map(sub, y, map((qs * k).__rlshift__, x)), *y[len(x) :]]
    return TRows(x)


def join_rows(x, ts):
    """The packing of x, an `int` or `TRows`, at t-row stride ts."""
    return sum(row << j * ts for j, row in enumerate(x)) if type(x) is TRows else x


def recurrence_bounds(nodes, base, edges):
    """Bounds (norms, degrees), dicts by node, on the values of a recurrence
    x_v = b_v + sum f x_s, in the order of `nodes`: `base(v)` is ||b_v||_1,
    of q-degree 0, and `edges(v)` yields (s, ||f||_1, deg_q f) per term, s
    earlier in `nodes`.  norms[v] = base(v) + sum ||f||_1 norms[s] and
    degrees[v] = max(deg_q f + degrees[s]), where a term with ||f||_1 or
    norms[s] zero adds no degree:

    >>> recurrence_bounds(range(3), lambda v: 1, lambda v: [(s, 2, v) for s in range(v)])
    ({0: 1, 1: 3, 2: 9}, {0: 0, 1: 1, 2: 3})

    As ||fg||_1 <= ||f||_1 ||g||_1, norms[v] >= ||x_v||_1 >= every
    |coefficient| of x_v, whatever the signs, and q-degrees add through
    products, so a `Layout` of the two holds x_v.  With b_v and every f
    nonnegative, norms[v] = x_v(1, 1).
    """
    norms, degrees = {}, {}
    for v in nodes:
        norm, degree = base(v), 0
        for s, f_norm, f_degree in edges(v):
            if f_norm and norms[s]:
                norm += f_norm * norms[s]
                degree = max(degree, f_degree + degrees[s])
        norms[v], degrees[v] = norm, degree
    return norms, degrees


def tuple_sum(steps):
    """The sum over the tuples 0 = e_0 < e_1 < ... < e_m of the products of
    their steps' packed `int` factors, steps[lower] listing the (upper,
    factor) pairs, upper > lower.  Depth-first: each tuple is one `int`
    product, its parent's times its last factor, and only the children of
    one path of tuples wait on the stack:

    >>> tuple_sum({0: [(1, 2), (2, 3)], 1: [(2, -5)], 2: []})  # 1 + 2 + 3 + 2 (-5)
    -4
    """
    total = 0
    stack = [(0, 1)]
    while stack:
        lower, product = stack.pop()
        total += product
        stack += [(upper, product * factor) for upper, factor in steps[lower]]
    return total


def leading_principal_minors(matrix, bound):
    """The leading principal minors M_1, ..., M_n of a square matrix of
    BiPoly (or int) entries, by one Bareiss elimination without row swaps:

    >>> [m.to_text() for m in leading_principal_minors([[Q, T], [ONE, Q]], bound=4)]
    ['q', 'q^2 - t']

    Below a zero pivot the elimination would need a swap, so the list stops
    at the first zero minor and is then shorter than n.

    - Bound.  The caller passes `bound`, at least every |coefficient| of
      every leading minor.  A bound that is too small aliases a minor, which
      then reads back wrong (or not at all), so the caller must check the
      minors by another route.
    - Layout.  Every entry is packed once, at one `Layout` that holds every
      leading minor: its q-degree and t-rows come from the sums over the
      rows of the largest q-degree and t-degree in each row, and its slots
      hold the larger of `bound` and every |coefficient| of every entry.
    - Elimination.  Step k sets a_ij = (a_kk a_ij - a_ik a_kj) // prev in
      plain `int`, where prev is the previous pivot, and the pivot a_kk is
      then the packing of M_(k+1).  By Sylvester's identity every Bareiss
      quotient is exact in Z[q, t], so every `//` is exact in Z.  Only the
      pivots are read back.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    entries = [[_coerce(x)._terms for x in row] for row in matrix]
    q_degree = sum(max((qd for terms in row for qd, _ in terms), default=0) for row in entries)
    rows = 1 + sum(max((td for terms in row for _, td in terms), default=0) for row in entries)
    largest_entry = max((abs(c) for row in entries for terms in row for c in terms.values()), default=0)
    layout = Layout(max(bound, largest_entry), q_degree)
    a = [[layout.pack(t, max(map(itemgetter(1), t)) + 1) if t else 0 for t in row] for row in entries]
    minors = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        minors.append(layout.read(pivot, rows))
        if not pivot:
            break
        row_k = a[k]
        for row_i in a[k + 1 :]:
            a_ik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - a_ik * row_k[j]) // prev
        prev = pivot
    return minors


def _render_q_monomial(c, e):
    if e == 0:
        return str(c)
    var = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return var
    if c == -1:
        return f"-{var}"
    return f"{c}*{var}"


def _render_q(row):
    """The q-polynomial with these (q_deg, c) terms, in ascending q-degree."""
    return _join_signed([_render_q_monomial(c, e) for e, c in row])


def _render_t_term(row, td):
    """c(q) t^td, with c(q) given as its (q_deg, c) terms in ascending q-degree."""
    if td == 0:
        return _render_q(row)
    tvar = "t" if td == 1 else f"t^{td}"
    if len(row) > 1:
        return f"({_render_q(row)})*{tvar}"
    ((qd, c),) = row
    if qd == 0 and c in (1, -1):
        return tvar if c == 1 else f"-{tvar}"
    return f"{_render_q_monomial(c, qd)}*{tvar}"


def _join_signed(pieces):
    return "".join([pieces[0], *(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in pieces[1:])])


def diff_terms(a, b):
    """Coefficients where a and b differ: list of (q_deg, t_deg, in_a, in_b)."""
    keys = sorted(set(a._terms) | set(b._terms), key=lambda k: (k[1], k[0]))
    return [
        (qd, td, a._terms.get((qd, td), 0), b._terms.get((qd, td), 0))
        for qd, td in keys
        if a._terms.get((qd, td), 0) != b._terms.get((qd, td), 0)
    ]


ZERO = BiPoly()
ONE = BiPoly.const(1)
MINUS_ONE = BiPoly.const(-1)
Q = BiPoly.term(1, 1, 0)
T = BiPoly.term(1, 0, 1)


# -- Gaussian binomials ------------------------------------------------


# Gaussian binomials are built in a loop on a dense coefficient list (index =
# q-degree), from two steps: multiplying by 1 - q^e subtracts a copy shifted
# by e, and dividing by 1 - q^e is a running sum along each residue class
# mod e.  Every partial product is a polynomial, so each division is exact.


def _times_one_minus_q_power(coeffs, e):
    pad = [0] * e
    return [x - y for x, y in zip(coeffs + pad, pad + coeffs)]


def _over_one_minus_q_power(coeffs, e):
    for r in range(e):
        coeffs[r::e] = accumulate(coeffs[r::e])
    del coeffs[len(coeffs) - e :]
    return coeffs


@lru_cache(maxsize=None)
def gauss_binomial(n, k):
    """Gaussian binomial [n choose k]_q = prod_{i=1..k} (1 - q^(m+i)) / (1 - q^i), m = n - k.

    The loop walks up the diagonal [m choose 0]_q, [m+1 choose 1]_q, ...,
    [n choose k]_q, one factor at a time.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _over_one_minus_q_power(_times_one_minus_q_power(coeffs, n - k + i), i)
    return _raw({(d, 0): c for d, c in enumerate(coeffs) if c})
