"""BiPoly ring arithmetic, q-analog constructors, rendering."""

import ast
import inspect
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowlab.exactalg import bipoly
from chowlab.exactalg import (
    BiPoly,
    Layout,
    MINUS_ONE,
    ONE,
    Q,
    T,
    ZERO,
    diff_terms,
    gauss_binomial,
    recurrence_bounds,
    tuple_sum,
)

coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
bipolys = st.dictionaries(exponents, coeffs, max_size=6).map(BiPoly)
points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))

# Operands big enough for the Kronecker route on their own (at least 16 terms
# each, so every product has at least 256 term pairs), with coefficients from
# small to far above 2^64, of both signs.
big_coeffs = st.one_of(
    coeffs,
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
)
wide_exponents = st.tuples(st.integers(0, 40), st.integers(0, 5))
large_bipolys = st.dictionaries(wide_exponents, big_coeffs, min_size=16, max_size=60).map(BiPoly)
q_only = st.dictionaries(st.tuples(st.integers(0, 30), st.just(0)), big_coeffs, max_size=20).map(BiPoly)
t_only = st.dictionaries(st.tuples(st.just(0), st.integers(0, 30)), big_coeffs, max_size=20).map(BiPoly)
any_bipolys = st.one_of(bipolys, large_bipolys, q_only, t_only, big_coeffs.map(BiPoly.const), st.just(ZERO))


def schoolbook(a, b):
    """Test-local oracle: the product term by term, summed in a dict."""
    out = {}
    for (qa, ta), ca in a.terms.items():
        for (qb, tb), cb in b.terms.items():
            out[(qa + qb, ta + tb)] = out.get((qa + qb, ta + tb), 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@contextmanager
def forced_route(kronecker):
    """Send every product with nonempty operands down one multiply route."""
    saved = bipoly._KRONECKER_MIN_PAIRS
    bipoly._KRONECKER_MIN_PAIRS = 1 if kronecker else math.inf
    try:
        yield
    finally:
        bipoly._KRONECKER_MIN_PAIRS = saved


@settings(max_examples=150)
@given(bipolys, bipolys, bipolys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=150)
@given(bipolys, bipolys, points)
def test_eval_is_a_homomorphism(a, b, point):
    q, t = point
    assert (a + b).eval(q, t) == a.eval(q, t) + b.eval(q, t)
    assert (a * b).eval(q, t) == a.eval(q, t) * b.eval(q, t)


@settings(max_examples=100)
@given(bipolys, st.integers(-5, 5))
def test_substitutions_commute_with_eval(a, v):
    assert a.subs_t_int(v).eval(3, 1) == a.eval(3, v)
    assert a.subs_q_int(v).eval(1, 3) == a.eval(v, 3)


def test_zero_coefficients_never_stored():
    p = BiPoly({(1, 1): 5}) - BiPoly({(1, 1): 5})
    assert p.terms == {}
    assert p == ZERO
    assert BiPoly({(0, 0): 0, (2, 1): 3}).terms == {(2, 1): 3}


def _fraction_poly_div(num, den):
    """Test-local long division of Fraction coefficient lists (exact)."""
    num = [Fraction(c) for c in num]
    out = []
    for _ in range(len(num) - len(den) + 1):
        lead = num[-1] / den[-1]
        out.append(lead)
        for i, c in enumerate(den):
            num[len(num) - len(den) + i] -= lead * c
        assert num.pop() == 0
    assert all(c == 0 for c in num)
    return list(reversed(out))


def _poch_coeffs(n):
    out = [Fraction(1)]
    for i in range(1, n + 1):
        factor = [Fraction(1)] + [Fraction(0)] * (i - 1) + [Fraction(-1)]
        new = [Fraction(0)] * (len(out) + len(factor) - 1)
        for a, x in enumerate(out):
            for b, y in enumerate(factor):
                new[a + b] += x * y
        out = new
    return out


def test_gauss_binomial_4_2_against_quotient_oracle():
    # oracle first: expand (q;q)_4 / ((q;q)_2 (q;q)_2) by exact long division
    num = _poch_coeffs(4)
    den2 = _poch_coeffs(2)
    step = _fraction_poly_div(num, den2)
    expected = _fraction_poly_div(step, den2)
    assert expected == [1, 1, 2, 1, 1]
    assert gauss_binomial(4, 2) == BiPoly({(i, 0): 1 for i in (0, 1, 3, 4)} | {(2, 0): 2})
    assert gauss_binomial(4, 2).eval(1, 1) == 6
    assert gauss_binomial(4, 0) == ONE


def test_gauss_binomial_out_of_range():
    assert gauss_binomial(4, -1) == ZERO
    assert gauss_binomial(4, 5) == ZERO


def test_gauss_binomial_symmetry_and_pascal():
    for n in range(11):
        for k in range(n + 1):
            assert gauss_binomial(n, k) == gauss_binomial(n, n - k)
            if n:
                assert gauss_binomial(n, k) == gauss_binomial(n - 1, k - 1) + Q**k * gauss_binomial(n - 1, k)


def test_text_rendering():
    p = BiPoly({(0, 0): 1, (0, 1): 2, (1, 1): 1, (2, 1): 1, (0, 2): 1})
    assert p.to_text() == "1 + (2 + q + q^2)*t + t^2"
    assert ZERO.to_text() == "0"
    assert (-Q - Q**2).to_text() == "-q - q^2"
    assert (3 * Q * T).to_text() == "3*q*t"
    assert (ONE - T).to_text() == "1 - t"
    assert (-T**2).to_text() == "-t^2"


def test_json_roundtrip_and_ordering():
    p = BiPoly({(2, 1): 10**30, (0, 0): -1, (1, 2): 3})
    terms = [{"q": qd, "t": td, "c": c} for td, qd, c in p.to_csv_rows()]  # the CLI's JSON term list
    assert [(e["t"], e["q"]) for e in terms] == sorted((e["t"], e["q"]) for e in terms)
    assert BiPoly.from_json_terms(terms) == p


def test_csv_rows():
    p = BiPoly({(1, 0): 2, (0, 1): 5})
    assert p.to_csv_rows() == [(0, 1, "2"), (1, 0, "5")]


def test_diff_terms_localizes():
    a = BiPoly({(0, 0): 1, (1, 1): 2})
    b = BiPoly({(0, 0): 1, (1, 1): 3, (0, 2): 4})
    assert diff_terms(a, b) == [(1, 1, 2, 3), (0, 2, 0, 4)]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


@settings(max_examples=60, deadline=None)
@given(large_bipolys, large_bipolys)
def test_large_products_against_schoolbook_oracle(a, b):
    assert a * b == BiPoly(schoolbook(a, b))
    assert a * a == BiPoly(schoolbook(a, a))


@settings(max_examples=150, deadline=None)
@given(any_bipolys, any_bipolys, st.booleans())
def test_both_multiply_routes_against_schoolbook_oracle(a, b, kronecker):
    with forced_route(kronecker):
        product = a * b
        square = a * a
    assert product.terms == schoolbook(a, b)
    assert square.terms == schoolbook(a, a)


@settings(max_examples=40, deadline=None)
@given(large_bipolys, large_bipolys)
def test_large_products_cancel_to_zero(f, g):
    # the cross terms f*g and g*f cancel slot by slot
    assert (f + g) * (f - g) == f * f - g * g
    assert f * (g - g) == ZERO
    assert (f * g) * ZERO == ZERO


def test_slots_exactly_at_the_width_bound():
    # 16 terms of magnitude m on each side: the middle coefficient reaches the
    # bound 16 m^2 exactly.  With 79 bits it fills a 10-byte slot together
    # with the sign bit; with 80 bits the sign bit alone needs an 11th byte.
    for m, bits in ((2**37 + 12345, 79), (2**38 - 1, 80)):
        bound = 16 * m * m
        assert bound.bit_length() == bits
        a = BiPoly({(i, 0): m for i in range(16)})
        for b in (a, -a, BiPoly({(i, 0): -m for i in range(16)}) + BiPoly.term(m, 0, 3)):
            assert len(a.terms) * len(b.terms) >= bipoly._KRONECKER_MIN_PAIRS
            assert (a * b).terms == schoolbook(a, b)
        assert (a * a).terms[(15, 0)] == bound
        assert (a * -a).terms[(15, 0)] == -bound


def test_pow_squares_no_further_than_the_top_bit(monkeypatch):
    # x^40 = x^8 * x^32: five squarings and one multiply, no x^64, no ONE * x^8
    x = ONE + Q + T
    expected = {n: _repeated_product(x, n) for n in (0, 1, 2, 7, 40)}
    calls = []
    real_mul = BiPoly.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counting_mul)
    for n, multiplies in ((0, 0), (1, 0), (2, 1), (7, 4), (40, 6)):
        calls.clear()
        assert x**n == expected[n]
        assert len(calls) == multiplies, n


def _repeated_product(x, n):
    out = ONE
    for _ in range(n):
        out = out * x
    return out


def schoolbook_sum(products):
    """Test-local oracle for a sum of products: each product factor by factor, summed in a dict."""
    total = {}
    for product in products:
        acc = ONE
        for factor in product:
            acc = BiPoly(schoolbook(acc, factor))
        for k, c in acc.terms.items():
            total[k] = total.get(k, 0) + c
    return {k: c for k, c in total.items() if c}


def sum_of_products(products):
    """The sum of the products, by `*` and `+` alone."""
    return sum((reduce(mul, product, ONE) for product in products), ZERO)


kernel_factors = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 3)), big_coeffs, max_size=12).map(BiPoly),
    big_coeffs.map(BiPoly.const),
    st.just(ZERO),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(kernel_factors, min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=6),
    st.booleans(),
    st.booleans(),
)
def test_sum_of_products_against_schoolbook_oracle(pool, shapes, cancel, packed):
    # factors are drawn from a small pool, so one factor object recurs across
    # products; with `cancel` every product also appears negated; `packed`
    # sends every multiply through the packed route, else through the term loop
    products = [[pool[i % len(pool)] for i in shape] for shape in shapes]
    if cancel:
        products += [product + [MINUS_ONE] for product in products]
    with forced_route(packed):
        result = sum_of_products(products)
    assert result.terms == schoolbook_sum(products)
    if cancel:
        assert result == ZERO


def test_small_products_take_the_term_loop(unpacked_widths):
    # fewer than _KRONECKER_MIN_PAIRS term pairs in each product: no packing
    assert sum_of_products([(ONE + Q, ONE - Q, ONE + T), (Q**2,)]) == ONE + T - Q**2 * T
    assert unpacked_widths == []


def test_mul_packs_from_the_pair_threshold(unpacked_widths):
    # `*` packs, and reads back once, exactly when a product has at least
    # _KRONECKER_MIN_PAIRS term pairs, whatever the shape: a monomial or a
    # t - q^i factor, a short pair, a long pair
    row = BiPoly({(d, 0): d + 1 for d in range(300)})
    t15, t16 = BiPoly({(0, d): 1 for d in range(15)}), BiPoly({(0, d): 1 for d in range(16)})  # [15]_t, [16]_t
    for a, b in ((row, T), (row, T - Q**3), (t15, t15), (t16, t16), (Q, T)):
        unpacked_widths.clear()
        assert (a * b).terms == schoolbook(a, b)
        assert len(unpacked_widths) == (len(a.terms) * len(b.terms) >= bipoly._KRONECKER_MIN_PAIRS)


def test_sum_of_products_of_nothing():
    assert sum_of_products([]) == ZERO
    assert sum_of_products([()]) == ONE
    assert sum_of_products([(Q, ZERO), (ZERO,)]) == ZERO
    assert sum_of_products([(2, Q), (T,), ()]) == 2 * Q + T + ONE
    with forced_route(True):
        assert Q * ZERO == ZERO * T == ZERO and (Q * T) * 1 == Q * T


def test_kernel_slots_where_the_bound_is_attained(unpacked_widths):
    # the middle coefficient of [n]_q^2 is n = ||[n]_q||_1 max|[n]_q|, the
    # bound of the packed product itself: 127 and -127 fit one byte with the
    # sign bit, 128 needs two
    for n, nb in ((127, 1), (128, 2)):
        p = BiPoly({(d, 0): 1 for d in range(n)})
        for sign in (1, -1):
            unpacked_widths.clear()
            square = p * (sign * p)
            assert square.terms == schoolbook(p, sign * p)
            assert square.terms[(n - 1, 0)] == sign * n
            assert unpacked_widths == [nb]


@given(st.integers(0, 2**70), st.integers(0, 5), st.integers(1, 4), st.data())
def test_layout_reads_back_what_it_packs(norm, q_degree, rows, data):
    # every slot round-trips, up to the largest coefficient its width holds
    # with the sign bit; a slot left empty or holding 0 reads as no term;
    # and packing is evaluation at q = 2^qs, t = 2^ts
    layout = Layout(norm, q_degree)
    top = (1 << (8 * layout.nb - 1)) - 1
    assert norm <= top
    keys = st.tuples(st.integers(0, q_degree), st.integers(0, rows - 1))
    terms = data.draw(st.dictionaries(keys, st.sampled_from([top, -top, 0]) | st.integers(-top, top)))
    packed = layout.pack(terms, rows)
    assert layout.read(packed, rows) == layout.read(packed) == BiPoly(terms)
    assert packed == BiPoly(terms).eval(2**layout.qs, 2**layout.ts)


def test_layout_read_without_rows_takes_a_value_past_the_layout():
    # q^6 is past a q-degree bound of 3: read as a q-polynomial, one row, it
    # overflows, and read without rows it is recovered as q^2 t, the term of
    # the same packing
    layout = Layout(100, 3)
    value = layout.pack({(1, 0): 5, (3, 0): -2}, 1) + (7 << layout.qs * 6)
    with pytest.raises(OverflowError):
        layout.read(value, 1)
    assert layout.read(value) == BiPoly({(1, 0): 5, (3, 0): -2, (2, 1): 7})
    assert layout.read(value).eval(2**layout.qs, 2**layout.ts) == value
    for edge in ((1 << layout.ts - 1) - 1, -(1 << layout.ts - 1)):  # the first needs a second row
        assert layout.read(edge).eval(2**layout.qs, 2**layout.ts) == edge


def test_layout_pack_refuses_a_term_outside_the_layout():
    # a term past q_degree would land in the next row's slots, and one past
    # the rows in no slot at all: both are refused, not moved, as an
    # OverflowError (an internal misfit, like a value too large to read),
    # never a ValueError, which the CLI reports as a domain error
    for layout, terms, rows in ((Layout(100, 0), {(1, 0): 5}, 2), (Layout(100, 2), {(3, 0): 7}, 2),
                                (Layout(100, 2), {(0, 2): 7}, 2), (Layout(100, 2), {(2, 0): 1, (2, 5): 1}, 3)):
        with pytest.raises(OverflowError, match="does not fit"):
            layout.pack(terms, rows)
    assert Layout(100, 2).read(Layout(100, 2).pack({(2, 1): 7}, 2), 2) == BiPoly({(2, 1): 7})


def test_layout_read_compiles_no_pattern(monkeypatch):
    # the slots are sliced apart, so a width no read has used yet needs no
    # regular expression; `re` is refused only while the layout runs, since
    # pytest's own reporting may use it between the phases of a test
    import re

    def refuse(*args, **kwargs):
        raise AssertionError("re used")

    layout = Layout(2**290 + 7, 2)
    assert layout.nb == 37
    terms = {(0, 0): 2**290, (2, 0): -3, (1, 2): -(2**289)}
    with monkeypatch.context() as m:
        for name in ("compile", "findall", "finditer", "split", "match", "fullmatch", "search", "_compile"):
            m.setattr(re, name, refuse)
        back = layout.read(layout.pack(terms, 3), 3)
    assert back == BiPoly(terms)
    assert not hasattr(bipoly, "re")


def test_one_slot_layout_is_q_equal_one():
    layout = Layout(10**30, 0)
    assert (layout.w, layout.nb, layout.qs, layout.ts) == (1, 13, 0, 104)
    assert layout.pack({(0, 0): 3, (0, 2): -1}, 3) == 3 - 2**208 == (3 - T**2).eval(1, 2**104)


def test_no_module_outside_exactalg_knows_a_private_packing_name():
    # the packing format is known to `exactalg` alone: no other module imports
    # an underscore name from `bipoly` or reads one off the module
    src = Path(__file__).resolve().parents[1] / "src" / "chowlab"
    paths = [path for path in sorted(src.rglob("*.py")) if "exactalg" not in path.parts]
    private = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("exactalg.bipoly"):
                private += [f"{path.name}:{alias.name}" for alias in node.names if alias.name.startswith("_")]
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "bipoly":
                private += [f"{path.name}:{node.attr}"] if node.attr.startswith("_") else []
    assert len(paths) >= 10 and private == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.data())
def test_tuple_sum_against_every_rank_set(top, data):
    # signed factors on a random set of steps between the ranks 0, ..., top,
    # against the sum over every rank set e_1 < ... < e_m in 1, ..., top whose
    # steps from e_0 = 0 up are all present
    pairs = [(lower, upper) for upper in range(1, top + 1) for lower in range(upper)]
    factor = data.draw(st.dictionaries(st.sampled_from(pairs), st.integers(-(2**70), 2**70))) if pairs else {}
    steps = {lower: [(upper, f) for (below, upper), f in factor.items() if below == lower] for lower in range(top + 1)}
    expected = 0
    for m in range(top + 1):
        for ranks in combinations(range(1, top + 1), m):
            path = list(zip((0,) + ranks, ranks))
            if all(step in factor for step in path):
                expected += math.prod(factor[step] for step in path)
    assert tuple_sum(steps) == expected


nonnegative_bipolys = st.dictionaries(exponents, st.integers(0, 3), max_size=4).map(BiPoly)


@settings(max_examples=150, deadline=None)
@given(st.permutations(range(6)), st.data())
def test_recurrence_bounds_against_the_recurrence_itself(nodes, data):
    # x_v = b_v + sum f x_s with nonnegative f, evaluated by BiPoly
    # arithmetic along nodes in a random order: each norm is x_v(1, 1)
    # exactly, and each degree covers deg_q x_v
    base = {v: data.draw(st.integers(0, 3)) for v in nodes}
    earlier = [data.draw(st.lists(st.sampled_from(nodes[:i]), max_size=3)) if i else [] for i in range(len(nodes))]
    terms = {v: [(s, data.draw(nonnegative_bipolys)) for s in sources] for v, sources in zip(nodes, earlier)}
    x = {}
    for v in nodes:
        x[v] = sum((f * x[s] for s, f in terms[v]), BiPoly.const(base[v]))
    norms, degrees = recurrence_bounds(nodes, base.__getitem__,
                                       lambda v: [(s, f.eval(1, 1), f.q_degree()) for s, f in terms[v]])
    for v in nodes:
        assert norms[v] == x[v].eval(1, 1) and degrees[v] >= x[v].q_degree(), v


@pytest.mark.parametrize("c", [0, 3, -1, 2**100])
def test_constants_hash_as_the_ints_they_equal(c):
    p = BiPoly.const(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == len({c, p}) == 1
    assert {p: "poly"}[c] == "poly"


def test_cached_values_are_immutable():
    g = gauss_binomial(6, 3)
    with pytest.raises(TypeError):
        g.terms[(0, 0)] = 5
    with pytest.raises(TypeError):
        del g.terms[(0, 0)]
    with pytest.raises(AttributeError):
        g.terms = {}
    assert gauss_binomial(6, 3).terms[(0, 0)] == 1
    assert len(g.terms) == 10 and sum(g.terms.values()) == 20
    assert dict(g.terms.items()) == {(d, 0): c for d, c in enumerate([1, 1, 2, 3, 3, 3, 3, 2, 1, 1])}


def test_q_analog_tables_do_not_recurse():
    # the old memoised recursions ran past the default recursion limit at n = 1200
    assert gauss_binomial(1200, 1) == BiPoly({(d, 0): 1 for d in range(1200)}) == gauss_binomial(1200, 1199)
    g = gauss_binomial(1200, 2)
    assert g.eval(1, 1) == math.comb(1200, 2)
    assert g.q_degree() == 2 * 1198
    assert g == gauss_binomial(1199, 1) + Q**2 * gauss_binomial(1199, 2)
    # at n = 150 a limit 100 frames above the current depth is what the old
    # recursions could not live with
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        binomial = gauss_binomial(150, 75)
    finally:
        sys.setrecursionlimit(limit)
    assert binomial.eval(1, 1) == math.comb(150, 75)
    assert binomial.q_degree() == 75 * 75

    def pochhammer_at_2(n):  # (2;2)_n = (1 - 2)(1 - 4) ... (1 - 2^n)
        return math.prod(1 - 2**k for k in range(1, n + 1))

    assert binomial.eval(2, 1) * pochhammer_at_2(75) ** 2 == pochhammer_at_2(150)
