"""Charney-Davis routes, T-terms, and tangent-secant numbers."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

import chowlab.charney as charney_module
import chowlab.chow as chow_module
from chowlab import checks
from chowlab.charney import (
    cd,
    cd_chain_alternating,
    cd_direct,
    cd_qsecant,
    t_term,
    tangent_secant,
)
from chowlab.chow import hilbert_recurrence
from chowlab.cli import main
from chowlab.errors import RouteDisagreementError
from chowlab.exactalg import BiPoly, Layout, ONE, Q, T, ZERO, bipoly, gauss_binomial, leading_principal_minors
from chowlab.flats import FamilySpec

CD55_REFERENCE = BiPoly({(8, 0): 1, (7, 0): 2, (6, 0): 3, (5, 0): 4, (4, 0): 3, (3, 0): 2, (2, 0): 1})


def test_oracle_pins_classical_values():
    # frozen from the oracle itself: sech contributes the even entries with
    # alternating sign, tanh the odd ones
    assert checks.classical_tangent_secant(10) == [1, 1, -1, -2, 5, 16, -61, -272, 1385, 7936, -50521]


def test_cd_5_5_reference_value_all_routes():
    spec = FamilySpec.vector(5, 5)
    assert cd_direct(spec).signed == CD55_REFERENCE
    assert cd(spec, "det").signed == CD55_REFERENCE
    assert cd_qsecant(5, 5).signed == CD55_REFERENCE
    assert cd_chain_alternating(5, 5) == cd_direct(spec).unsigned
    # r = 5 has positive prefactor, so signed == unsigned here
    assert cd_direct(spec).unsigned == CD55_REFERENCE


def test_uniform_3_3():
    result = cd(FamilySpec.uniform(3, 3))
    assert result.unsigned == BiPoly.const(-2)
    assert result.signed == BiPoly.const(2)


def test_chain_alternating_small():
    assert cd_chain_alternating(4, 1) == ONE
    assert cd_chain_alternating(3, 3) == -Q - Q**2
    assert cd_chain_alternating(3, 3) == ONE - gauss_binomial(3, 2)
    with pytest.raises(ValueError):
        cd_chain_alternating(4, 2)


def test_uniform_secant_sum_is_over_z(monkeypatch):
    # cd --family uniform sums over Z under every method: det and qsecant sum
    # C(n, 2k) E_2k(1) with math.comb and read nothing back, and direct and
    # chain run at one layout of q-degree 0, read back once, so no route
    # builds a Gaussian binomial or multiplies polynomials
    expected = cd_direct(FamilySpec.uniform(23, 23))
    tangent_secant(22, True)  # the table det and qsecant read, built before counting
    calls, q_degrees = [], []
    real_binomial, real_mul = charney_module.gauss_binomial, BiPoly.__mul__
    real_read, real_init = Layout.read, Layout.__init__
    monkeypatch.setattr(charney_module, "gauss_binomial", lambda *a: calls.append("binomial") or real_binomial(*a))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, lambda *args: calls.append("__mul__") or real_mul(*args))
    monkeypatch.setattr(Layout, "read", lambda *args: calls.append("read") or real_read(*args))
    monkeypatch.setattr(Layout, "__init__", lambda self, norm, q_degree: q_degrees.append(q_degree) or
                        real_init(self, norm, q_degree))
    for method in ("direct", "chain", "det", "qsecant"):
        calls.clear()
        q_degrees.clear()
        result = cd(FamilySpec.uniform(23, 23), method)
        assert result == expected and result.unsigned.terms.keys() == {(0, 0)}
        if method in ("direct", "chain"):
            assert calls == ["read"] and q_degrees == [0], method
        else:
            assert calls == [] and q_degrees == [], method


def test_secant_q1_runs_at_q_one(capsys, monkeypatch):
    # `secant --q1` prints the oracle's E_N(1) from the table built at q = 1:
    # every layout it builds has q-degree 0, even at N = 400, whose q-table
    # would have q-degree C(400, 2)
    oracle = checks.classical_tangent_secant(400)
    q_degrees = []
    real_init = Layout.__init__
    monkeypatch.setattr(Layout, "__init__", lambda self, norm, q_degree: q_degrees.append(q_degree) or
                        real_init(self, norm, q_degree))
    tangent_secant.cache_clear()
    for n in [*range(61), 400]:
        assert main(["secant", "--n", str(n), "--q1"]) == 0
        assert capsys.readouterr().out == f"{oracle[n]}\n", n
    assert len(q_degrees) == 62 and set(q_degrees) == {0}


def test_direct_is_the_hilbert_series_at_minus_one():
    # t = -1 substituted before any product gives the printed series' value
    for kind in ("vector", "uniform"):
        for n in range(1, 11):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                assert cd_direct(spec).unsigned == hilbert_recurrence(spec).subs_t_int(-1), spec


def test_chain_equals_direct_through_fifteen():
    for n in range(1, 16):
        for r in range(1, n + 1, 2):
            assert cd_chain_alternating(n, r) == cd_direct(FamilySpec.vector(n, r)).unsigned, (n, r)


def test_direct_reads_one_row_at_the_diagonal_layout(monkeypatch):
    # cd_direct never reads the bivariate series back: one t-row, at the
    # layout of the Hilbert recurrence's own bounds
    reads = []
    real_read = Layout.read
    monkeypatch.setattr(Layout, "read", lambda layout, value, rows=None: reads.append((layout.nb, layout.w, rows))
                        or real_read(layout, value, rows))
    spec = FamilySpec.vector(19, 17)
    layout = Layout(*map(max, chow_module._diagonal_bounds(spec)))
    cd_direct(spec)
    assert reads == [(layout.nb, layout.w, 1)]


def test_chain_layout_bounds_every_tuple():
    # the chain layout at t = -1 (the cd chain's) has as norm the sum over
    # the tuples of their l1 norms (exact: binomials have nonnegative
    # coefficients), and as q-degree the largest degree of one product
    def bounds(spec):
        return chow_module._chain_bounds(spec, chow_module._chain_steps(spec, -1))

    for n, r in ((5, 5), (9, 7), (11, 11)):
        tuples = [ranks for m in range(r // 2 + 1) for ranks in combinations(range(2, r, 2), m)]
        products = [prod((gauss_binomial(n - lo, hi - lo) for lo, hi in zip((0,) + t, t)), start=ONE) for t in tuples]
        norm = sum(sum(p.terms.values()) for p in products)
        assert bounds(FamilySpec.vector(n, r)) == (norm, max(p.q_degree() for p in products))
        assert bounds(FamilySpec.uniform(n, r)) == (norm, 0)


def test_tampered_minus_one_step_fails_route_agreement(capsys, monkeypatch):
    real = charney_module._at_t_minus_one
    monkeypatch.setattr(charney_module, "_at_t_minus_one", lambda m, c: real(m, c) + (m == 3))
    assert main(["check", "--suite", "route-agreement", "--nmax", "5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  route-agreement" in out and "cd(5,3) direct vs Hilbert series at t = -1" in out


def test_cd_routes_compare_the_printed_series(monkeypatch):
    # a Hilbert series off by q t at vector(5, 3) is caught by the cd routes
    # alone: its value at t = -1 is q less than every cd route's
    real = chow_module.hilbert_recurrence
    monkeypatch.setattr(chow_module, "hilbert_recurrence",
                        lambda spec: real(spec) + Q * T if spec == FamilySpec.vector(5, 3) else real(spec))
    failed = [e["name"] for e in checks.cd_routes(range(1, 6)) if not e["ok"]]
    assert failed == ["cd(5,3) direct vs Hilbert series at t = -1", "cd routes agree (odd r <= n <= 5)"]


def test_uniform_result_is_q_one_specialization():
    for n in range(1, 8):
        for r in range(1, n + 1):
            methods = ("direct", "chain", "det", "qsecant") if r % 2 else ("direct",)
            for method in methods:
                from_vector = cd(FamilySpec.vector(n, r), method)
                from_uniform = cd(FamilySpec.uniform(n, r), method)
                assert from_uniform.signed == from_vector.signed.subs_q_int(1), (n, r, method)
                assert from_uniform.unsigned == from_vector.unsigned.subs_q_int(1), (n, r, method)
                assert from_uniform.parity == from_vector.parity


def test_even_rank_vanishes():
    for kind in ("uniform", "vector"):
        for n in range(1, 8):
            for r in range(2, n + 1, 2):
                result = cd_direct(FamilySpec(kind, n, r))
                assert result.unsigned == BiPoly()
                assert result.signed == BiPoly()


def test_t_term():
    assert t_term(5, 0) == ONE
    assert t_term(5, 1) == -gauss_binomial(5, 2)
    for n in range(2, 9):
        for a in range(n // 2 + 1):
            t_term(n, a)  # every 0 <= 2a <= n is in the domain
    with pytest.raises(ValueError):
        t_term(5, 3)


def _papers_minors(n):
    """Test-local reference for the paper's determinant formula: the leading
    minors of the a x a matrix with [n - 2j over 2(i - j + 1)]_q on and below
    the diagonal and ones on the superdiagonal, whose j-th leading minor is
    (-1)^j T(n, 2j).  They are eliminated at the product over the rows of
    each row's l1 norm, which bounds every coefficient of every minor."""
    a = n // 2
    matrix = [
        [gauss_binomial(n - 2 * j, 2 * (i - j + 1)) if j <= i else ONE if j == i + 1 else ZERO for j in range(a)]
        for i in range(a)
    ]
    bound = prod(sum(abs(c) for entry in row for c in entry.terms.values()) for row in matrix)
    return leading_principal_minors(matrix, bound) if matrix else []


def test_t_term_is_the_papers_determinant():
    # t_term reads T(n, 2j) = [n over 2j]_q E_2j off the tangent-secant table
    for n in range(1, 13):
        minors = _papers_minors(n)
        assert len(minors) == n // 2, n
        for j, minor in enumerate(minors, 1):
            assert (-1) ** j * minor == t_term(n, j), (n, j)


def test_t_term_is_gauss_binomial_times_even_secant():
    # T(n, 2a) = [n over 2a]_q E_2a: both matrices rescale one Toeplitz matrix
    # in 1/(q;q)_2(i-j+1), so `cd --method det` and `qsecant` sum the same terms
    table = tangent_secant(16, False)
    for n in range(17):
        for a in range(n // 2 + 1):
            assert t_term(n, a) == gauss_binomial(n, 2 * a) * table[2 * a], (n, a)


def test_cd_determinant_is_one_elimination():
    # every T(11, 2a) is a leading minor of one elimination of the paper's
    # matrix, and their sum is the unsigned full-rank cd of `cd --method det`
    minors = _papers_minors(11)
    t_terms = [ONE] + [(-1) ** j * minor for j, minor in enumerate(minors, 1)]
    assert cd(FamilySpec.vector(11, 11), "det").unsigned == sum(t_terms, BiPoly())
    assert cd_direct(FamilySpec.vector(11, 11)).unsigned == sum(t_terms, BiPoly())


def test_cd_determinant_small():
    assert cd(FamilySpec.vector(4, 1), "det").signed == ONE
    r53 = cd(FamilySpec.vector(5, 3), "det")
    assert r53.unsigned == ONE - gauss_binomial(5, 2)
    assert r53.signed == -r53.unsigned
    with pytest.raises(ValueError):
        cd(FamilySpec.vector(5, 4), "det")


def test_cd_telescoping(holds):
    ns = range(1, 8)
    holds(checks.cd_telescoping(ns), [f"cd telescoping (n={n}, r={r})" for n in ns for r in range(3, n + 1, 2)])


def test_cd_routes_agree(holds):
    holds(checks.cd_routes(range(1, 8)), ["cd routes agree (odd r <= n <= 7)"])


def test_tangent_secant_table():
    table = tangent_secant(10, False)
    assert table[0] == ONE
    assert table[2] == BiPoly.const(-1)
    assert table[3] == -Q - Q**2
    assert table[3] == ONE - gauss_binomial(3, 1)
    assert table[4] == gauss_binomial(4, 2) - ONE
    assert table[4] == BiPoly({(1, 0): 1, (2, 0): 2, (3, 0): 1, (4, 0): 1})
    assert [e.eval(1, 1) for e in table] == checks.classical_tangent_secant(10)
    assert tangent_secant(10, True) == tuple(map(BiPoly.const, checks.classical_tangent_secant(10)))


def test_odd_entries_are_full_rank_cd(holds):
    odd = range(1, 8, 2)
    holds(checks.odd_secant_entries(odd), [f"odd entry = unsigned full-rank cd (n={n})" for n in odd])


def test_classical_row_matches_zigzag_triangle(holds):
    # the boustrophedon triangle: an O(n^2) route in `int` that shares nothing with the table
    assert checks.zigzag_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
    holds(checks.classical_zigzag_triangle(12), ["classical values match Seidel-Entringer triangle (n <= 12)"])


def test_classical_secant_determinant():
    # exact rational Hankel determinant for the classical secant numbers
    oracle = checks.classical_tangent_secant(8)
    for a in range(5):
        matrix = [
            [
                Fraction(1, factorial(2 * (i - j + 1))) if j <= i else Fraction(int(j == i + 1))
                for j in range(a)
            ]
            for i in range(a)
        ]
        det = _fraction_det(matrix) if a else Fraction(1)
        assert (-1) ** a * factorial(2 * a) * det == oracle[2 * a]


def _fraction_det(matrix):
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    if n == 1:
        return matrix[0][0]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _fraction_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_qsecant_specializations():
    oracle = checks.classical_tangent_secant(10)
    # the bare secant sum is the unsigned quantity (it only coincides with
    # the signed one when (r-1)/2 is even, e.g. r = 5)
    assert cd_qsecant(5, 5).unsigned.eval(1, 1) == 16 == oracle[5]
    assert cd_qsecant(5, 5).signed.eval(1, 1) == 16
    assert cd_qsecant(6, 1).signed == ONE
    assert cd_qsecant(7, 7).unsigned.eval(1, 1) == -272 == oracle[7]
    assert cd_qsecant(7, 7).signed.eval(1, 1) == 272
    with pytest.raises(ValueError):
        cd_qsecant(6, 4)


def test_secant_sum_matches_unsigned_uniform_cd(holds):
    holds(
        checks.secant_sums(range(1, 8)),
        [f"secant-sum formula vs unsigned cd (uniform {n},{r})" for n in range(1, 8) for r in range(1, n + 1, 2)],
    )


def test_odd_secant_sum_collapses(holds):
    odd = range(1, 10, 2)
    holds(checks.odd_secant_collapse(odd), [f"odd-row secant sum collapses to E_{n}" for n in odd])


def test_alternating_probe(holds, monkeypatch):
    # asserted, not report-only: the walked sum of q^inv over the up-down
    # permutations of [n] is (-1)^(n // 2) E_{n,q}, and a wrong entry fails
    ns = range(7)
    holds(checks.alternating_probes(ns), [f"alternating probe (n={n})" for n in ns])
    table = tangent_secant(6, False)
    wrong = table[:4] + (table[4] + Q,) + table[5:]
    monkeypatch.setattr(charney_module, "tangent_secant", lambda n_max, q_one: wrong)
    failed = [e for e in checks.alternating_probes(ns) if not e["ok"]]
    assert [e["name"] for e in failed] == ["alternating probe (n=4)"]
    assert failed[0]["detail"].startswith("left q + 2*q^2 + q^3 + q^4 != right 2*q + 2*q^2 + q^3 + q^4")


def _up_down_permutations(n):
    """Test-local enumeration: the permutations w_1 < w_2 > w_3 < ... of [n],
    extended one position at a time so that no other permutation is built."""

    def extend(prefix, rest):
        if not rest:
            yield prefix
        for a in rest:
            if not prefix or (a > prefix[-1]) == (len(prefix) % 2 == 1):
                yield from extend(prefix + (a,), rest - {a})

    return extend((), frozenset(range(1, n + 1)))


def test_triangle_is_the_inversion_sum_over_up_down_permutations():
    # the build's second route, read back on its own, against brute force
    layout = Layout(max(charney_module._secant_norm_bounds(9)), comb(9, 2))
    by_triangle = charney_module._secant_by_triangle(9, layout.qs)
    for n in range(10):
        inversions = Counter(sum(a > b for a, b in combinations(w, 2)) for w in _up_down_permutations(n))
        walked = BiPoly({(i, 0): c for i, c in inversions.items()})
        assert (-1) ** (n // 2) * walked == layout.read(by_triangle[n], 1), n
    assert sum(1 for _ in _up_down_permutations(9)) == 7936


def _secant_degree_bound(m):
    """A priori q-degree bound of E_2m from the shape of its recurrence, deg [n over k]_q = k(n - k)."""
    bounds = [0]
    for j in range(1, m + 1):
        bounds.append(max(2 * k * (2 * j - 2 * k) + bounds[j - k] for k in range(1, j + 1)))
    return bounds[m]


def test_secant_routes_catch_wrong_top_coefficient(monkeypatch):
    # on either build-time route, a bump of E_8's packing by its top
    # coefficient, past its degree bound, or by a coefficient that does not
    # fit an nb-byte slot is a route disagreement
    degree = _secant_degree_bound(4)
    assert tangent_secant(8, False)[8].q_degree() == degree
    layout = Layout(max(charney_module._secant_norm_bounds(8)), comb(8, 2))
    qs, half = layout.qs, 1 << (8 * layout.nb - 1)
    for name in ("_secant_by_recurrence", "_secant_by_triangle"):
        real = getattr(charney_module, name)
        for bump in (1 << qs * degree, 1 << qs * (degree + 1), half, -half):

            def bumped(n_max, qs, real=real, bump=bump):
                packed = real(n_max, qs)
                packed[8] += bump
                return packed

            monkeypatch.setattr(charney_module, name, bumped)
            tangent_secant.cache_clear()
            with pytest.raises(RouteDisagreementError, match="E_8 by recurrence vs q-Seidel-Entringer triangle"):
                tangent_secant(8, False)
        monkeypatch.setattr(charney_module, name, real)
    tangent_secant.cache_clear()
    assert tangent_secant(8, False)[8].q_degree() == degree


def test_secant_zero_pivot_is_a_route_disagreement(monkeypatch):
    # an entry past a zero pivot has no minor, and is a FAIL entry of the suite
    real = checks.leading_principal_minors
    monkeypatch.setattr(checks, "leading_principal_minors", lambda matrix, *bound: real(matrix, *bound)[:2])
    assert all(e["ok"] for e in checks.secant_determinants(4))  # both matrices are 2 x 2
    failed = [e for e in checks.secant_determinants(6) if not e["ok"]]
    assert failed == [
        {"name": f"E_{n} by determinant", "ok": False, "detail": "no minor: zero pivot before it"} for n in (5, 6)
    ]
    report = checks.check_suites(5, "tangent-secant")
    assert report["ok"] is False
    failed = [e["name"] for e in report["suites"][0]["entries"] if not e["ok"]]
    assert failed == [f"E_{n} by determinant" for n in range(5, 13)]


def test_secant_determinants_run_through_twelve(holds):
    # the paper's determinants, moved out of the build, are checked against
    # the table through n = 12 even at the smallest --nmax
    holds(checks.secant_determinants(12), [f"E_{n} by determinant" for n in range(1, 13)])
    names = [e["name"] for e in checks.check_suites(2, "tangent-secant")["suites"][0]["entries"]]
    assert [name for name in names if "by determinant" in name] == [f"E_{n} by determinant" for n in range(1, 13)]


def test_tangent_secant_is_two_int_routes_and_no_elimination(monkeypatch, unpacked_widths):
    # counts, not timings: no elimination, no polynomial product, and each
    # of the 17 entries read back once at the layout of the norm bound
    calls = []
    for module, name in ((bipoly, "leading_principal_minors"), (checks, "leading_principal_minors")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    monkeypatch.setattr(BiPoly, "__mul__", lambda *args: calls.append("__mul__"))
    tangent_secant.cache_clear()
    tangent_secant(16, False)
    assert calls == []
    assert unpacked_widths == [Layout(max(charney_module._secant_norm_bounds(16)), 0).nb] * 17


def test_secant_norm_bound_covers_every_entry():
    # the triangle's coefficients are nonnegative, so ||E_n||_1 is |E_n(1)|,
    # the zigzag number, and the recurrence's norm bound covers it
    table, at_q_one = tangent_secant(30, False), tangent_secant(30, True)
    bounds = charney_module._secant_norm_bounds(30)
    assert len(bounds) == len(table) == 31
    for n, (entry, bound) in enumerate(zip(table, bounds)):
        assert sum(map(abs, entry.terms.values())) == abs(at_q_one[n].constant()) <= bound, n


def test_secant_slots_hold_the_norm_bound_and_no_less(monkeypatch, unpacked_widths):
    # the build reads E_0 .. E_16 back, and the suite's eliminations their
    # 8 + 8 minors, from slots sized by the norm bound alone; a bound too
    # small aliases a minor, and the comparison with the table fails it
    nb = Layout(max(charney_module._secant_norm_bounds(16)), 0).nb
    tangent_secant.cache_clear()
    assert all(e["ok"] for e in checks.secant_determinants(16))
    assert unpacked_widths == [nb] * (17 + 16)
    real = checks.leading_principal_minors
    monkeypatch.setattr(checks, "leading_principal_minors", lambda matrix, bound: real(matrix, bound >> 24))
    failed = [e["name"] for e in checks.secant_determinants(16) if not e["ok"]]
    assert failed == [f"E_{n} by determinant" for n in range(12, 17)]


def test_chain_sum_unpacks_once_per_width_group(unpacked_widths):
    # a count, not a timing: the 511 chains of cd(19, 19) are summed packed,
    # and each width group is unpacked once, so the unpacks are a handful
    cd_chain_alternating(19, 19)
    assert 0 < len(unpacked_widths) < 10
