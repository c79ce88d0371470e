"""Acceptance criteria, one test per criterion, each printing a pass line.

Every assertion is exact; the only tolerances in play are the stated
runtime caps.
"""

import time
from math import comb

from chowlab.charney import (
    cd_chain_alternating,
    cd_determinant,
    cd_direct,
    cd_qsecant,
    tangent_secant,
)
from chowlab.chow import (
    basis_monomial_oracle,
    hilbert_chain_sum,
    hilbert_closed_form,
    hilbert_recurrence,
)
from chowlab.cli import main
from chowlab.exactalg import BiPoly, gauss_binomial
from chowlab.flats import FamilySpec, build_explicit
from chowlab.ordercx import conjecture_check, full_rank_h_check, order_complex_fvector
from chowlab.permstat import (
    PermClass,
    group_by_derangement_part,
    statistic_sum,
    w_maj_exc,
    w_maj_exc_offset,
)
from chowlab.qeuler import egf_identity_check, q_eulerian_by_definition, q_eulerian_by_recurrence
from classical_oracle import classical_tangent_secant_series

CD55_REFERENCE = BiPoly({(8, 0): 1, (7, 0): 2, (6, 0): 3, (5, 0): 4, (4, 0): 3, (3, 0): 2, (2, 0): 1})


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_reference_cd_value():
    start = time.perf_counter()
    spec = FamilySpec.vector(5, 5)
    assert cd_direct(spec).signed == CD55_REFERENCE
    assert cd_determinant(5, 5).signed == CD55_REFERENCE
    assert cd_qsecant(5, 5).signed == CD55_REFERENCE
    assert cd_chain_alternating(5, 5) == CD55_REFERENCE  # unsigned == signed at r = 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"signed CD of vector(5,5) matches by all routes in {elapsed:.3f}s")


def test_criterion_02_full_rank_q_eulerian():
    start = time.perf_counter()
    for n in range(1, 7):
        definition = statistic_sum(PermClass.All(n), w_maj_exc)
        assert hilbert_chain_sum(FamilySpec.vector(n, n)) == definition, n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"chain sum equals the statistic-sum definition, n <= 6, in {elapsed:.2f}s")


def test_criterion_03_three_routes():
    for kind in ("uniform", "vector"):
        for n in range(1, 7):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                chain = hilbert_chain_sum(spec)
                assert hilbert_recurrence(spec) == chain, spec
                assert hilbert_closed_form(spec) == chain, spec
    _report(3, "closed form = chain sum = recurrence, both families, n <= 6")


def test_criterion_04_monomial_basis_oracle():
    for kind, p, top in (("uniform", None, 6), ("vector", 2, 4), ("vector", 3, 3)):
        q_value = 1 if p is None else p
        for n in range(1, top + 1):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                dims = basis_monomial_oracle(build_explicit(spec, p), r)
                assert dims.to_poly() == hilbert_recurrence(spec).subs_q_int(q_value), spec
    _report(4, "explicit-lattice monomial counts match series at q in {1, 2, 3}")


def test_criterion_05_corank_one_derangements():
    for n in range(2, 7):
        expected = statistic_sum(PermClass.Derangements(n), w_maj_exc_offset(-1))
        assert hilbert_recurrence(FamilySpec.vector(n, n - 1)) == expected, n
        assert hilbert_recurrence(FamilySpec.uniform(n, n - 1)) == expected.subs_q_int(1), n
    _report(5, "corank-one series equals the derangement sum, n <= 6")


def test_criterion_06_recurrence_vs_definition():
    for n in range(9):
        assert q_eulerian_by_recurrence(n) == q_eulerian_by_definition(n), n
    _report(6, "q-Eulerian recurrence matches the definition, n <= 8")


def test_criterion_07_egf_identities():
    assert egf_identity_check(6)
    assert egf_identity_check(8, q_one=True)
    _report(7, "generating-function identities hold through x^6 (symbolic) and x^8 (q=1)")


def test_criterion_08_tangent_secant_routes():
    table = tangent_secant(10)  # construction cross-checks all three routes
    oracle = classical_tangent_secant_series(10)
    assert list(table.classical) == oracle
    assert oracle[:8] == [1, 1, -1, -2, 5, 16, -61, -272]
    assert oracle[8] == 1385 and abs(oracle[9]) == 7936
    _report(8, f"three tangent-secant routes agree, n <= 10; q=1 row {oracle}")


def test_criterion_09_secant_sums():
    oracle = classical_tangent_secant_series(10)
    for n in range(1, 8):
        for r in range(1, n + 1, 2):
            total = sum(comb(n, 2 * k) * oracle[2 * k] for k in range((r - 1) // 2 + 1))
            assert BiPoly.const(total) == cd_direct(FamilySpec.uniform(n, r)).unsigned, (n, r)
    for n in range(1, 10, 2):
        total = sum(comb(n, 2 * k) * oracle[2 * k] for k in range((n - 1) // 2 + 1))
        assert total == oracle[n], n
    _report(9, "secant sums equal unsigned CD (odd r <= n <= 7) and collapse to E_n (odd n <= 9)")


def test_criterion_10_wachs_suites():
    for n in range(8):
        fibers = group_by_derangement_part(n)
        for k in range(min(n, 5) + 1):
            for gamma in PermClass.Derangements(k).members():
                expected = BiPoly.term(1, gamma.stats().maj, 0) * gauss_binomial(n, k)
                assert fibers.get(gamma.values, BiPoly()) == expected, (n, gamma.values)
        by_exc_fix = {}
        for p in PermClass.All(n).members():
            s = p.stats()
            key = (s.exc, s.fix)
            by_exc_fix[key] = by_exc_fix.get(key, BiPoly()) + BiPoly.term(1, s.maj - s.exc, 0)
        for i in range(n + 1):
            for k in range(n + 1):
                lhs = BiPoly()
                for g in PermClass.Derangements(n - i).members():
                    s = g.stats()
                    if s.exc == k:
                        lhs = lhs + BiPoly.term(1, s.maj - s.exc, 0)
                assert lhs * gauss_binomial(n, n - i) == by_exc_fix.get((k, i), BiPoly()), (n, i, k)
    _report(10, "derangement-part fiber identities hold for n <= 7")


def test_criterion_11_palindromicity_and_vanishing():
    for kind in ("uniform", "vector"):
        for n in range(1, 8):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                poly = hilbert_recurrence(spec)
                assert poly.is_palindromic_in_t(r - 1), spec
                if r % 2 == 0:
                    assert cd_direct(spec).unsigned == BiPoly(), spec
    _report(11, "palindromicity and even-rank CD vanishing hold for n <= 7")


def test_criterion_12_order_complexes():
    for n in range(2, 7):
        ok, h = full_rank_h_check(n)
        assert ok, (n, h.to_text())
    reports = []
    for n in range(2, 7):
        for r in range(1, n):
            spec = FamilySpec.uniform(n, r)
            assert order_complex_fvector(spec) == order_complex_fvector(build_explicit(spec))
            reports.append(conjecture_check(n, r))
    assert len(reports) == 15
    _report(12, "h-polynomial anchor holds (n <= 6); conjecture checker emitted "
               f"{len(reports)} reports, full-lattice reading equal in {sum(r['equal'] for r in reports)}")


def test_full_check_suite_under_time_budget(capsys):
    start = time.perf_counter()
    code = main(["check", "--suite", "all", "--nmax", "6"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert elapsed < 300.0
    print(f"PASS overall: `check --suite all --nmax 6` green in {elapsed:.2f}s")
