"""Acceptance criteria, one test per criterion, each printing a pass line.

Every assertion is exact; the only tolerances in play are the stated
runtime caps.  Identities shared with `chowlab check` run from the
`chowlab.checks` registry at the ranges each criterion pins.
"""

import time

from chowlab import checks
from chowlab.charney import cd, cd_chain_alternating, cd_direct, cd_qsecant
from chowlab.cli import main
from chowlab.exactalg import BiPoly
from chowlab.flats import FamilySpec

CD55_REFERENCE = BiPoly({(8, 0): 1, (7, 0): 2, (6, 0): 3, (5, 0): 4, (4, 0): 3, (3, 0): 2, (2, 0): 1})


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def _rank_sum_names(ns):
    for n in ns:
        yield f"full-rank Hilbert series = q-Eulerian (n={n})"
        if n >= 2:
            yield f"corank-one Hilbert series = derangement sum (n={n})"


def test_criterion_01_reference_cd_value():
    start = time.perf_counter()
    spec = FamilySpec.vector(5, 5)
    assert cd_direct(spec).signed == CD55_REFERENCE
    assert cd(spec, "det").signed == CD55_REFERENCE
    assert cd_qsecant(5, 5).signed == CD55_REFERENCE
    assert cd_chain_alternating(5, 5) == CD55_REFERENCE  # unsigned == signed at r = 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"signed CD of vector(5,5) matches by all routes in {elapsed:.3f}s")


def test_criterion_02_full_rank_q_eulerian(holds):
    start = time.perf_counter()
    ns = range(1, 7)
    holds(checks.permutation_sum_ranks(ns), _rank_sum_names(ns))
    holds(checks.q_eulerian_definition(ns), [f"q-Eulerian definition vs recurrence (n={n})" for n in ns])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"chain sum equals the statistic-sum definition, n <= 6, in {elapsed:.2f}s")


def test_criterion_03_three_routes(holds):
    for kind in ("uniform", "vector"):
        holds(checks.hilbert_routes(kind, range(1, 7)), [f"hilbert routes agree ({kind}, n <= 6)"])
    _report(3, "closed form = chain sum = recurrence, both families, n <= 6")


def test_criterion_04_monomial_basis_oracle(holds):
    for kind, p, top in (("uniform", None, 6), ("vector", 2, 4), ("vector", 3, 3)):
        q_value = 1 if p is None else p
        holds(
            checks.monomial_oracle(kind, p, range(1, top + 1)),
            [
                f"monomial oracle {FamilySpec(kind, n, r)} at q={q_value}"
                for n in range(1, top + 1)
                for r in range(1, n + 1)
            ],
        )
    _report(4, "explicit-lattice monomial counts match series at q in {1, 2, 3}")


def test_criterion_05_corank_one_derangements(holds):
    holds(checks.permutation_sum_ranks(range(2, 7)), _rank_sum_names(range(2, 7)))
    _report(5, "corank-one series equals the derangement sum, n <= 6")


def test_criterion_06_recurrence_vs_definition(holds):
    holds(checks.q_eulerian_definition(range(9)), [f"q-Eulerian definition vs recurrence (n={n})" for n in range(9)])
    _report(6, "q-Eulerian recurrence matches the definition, n <= 8")


def test_criterion_07_egf_identities(holds):
    holds(checks.egf_identity(6), ["q-exponential identity through x^6"])
    holds(checks.egf_identity(8, q_one=True), ["classical exponential identity through x^8"])
    _report(7, "generating-function identities hold through x^6 (symbolic) and x^8 (q=1)")


def test_criterion_08_tangent_secant_routes(holds):
    holds(
        checks.tangent_secant_table(10),
        [
            "tangent-secant recurrence = q-Seidel-Entringer triangle (n <= 10)",
            "classical values match series oracle (n <= 10)",
        ],
    )
    holds(checks.secant_determinants(10), [f"E_{n} by determinant" for n in range(1, 11)])
    oracle = checks.classical_tangent_secant(10)
    assert oracle[:8] == [1, 1, -1, -2, 5, 16, -61, -272]
    assert oracle[8] == 1385 and abs(oracle[9]) == 7936
    _report(8, f"three tangent-secant routes agree, n <= 10; q=1 row {oracle}")


def test_criterion_09_secant_sums(holds):
    holds(
        checks.secant_sums(range(1, 8)),
        [f"secant-sum formula vs unsigned cd (uniform {n},{r})" for n in range(1, 8) for r in range(1, n + 1, 2)],
    )
    odd = range(1, 10, 2)
    holds(checks.odd_secant_collapse(odd), [f"odd-row secant sum collapses to E_{n}" for n in odd])
    _report(9, "secant sums equal unsigned CD (odd r <= n <= 7) and collapse to E_n (odd n <= 9)")


def test_criterion_10_wachs_suites(holds):
    holds(checks.wachs_fibers(range(8)), [f"derangement-part fiber identity (n={n})" for n in range(8)])
    holds(
        checks.wachs_refinement(range(8)),
        [
            name
            for n in range(8)
            for name in (f"derangement/fixed-point refinement (n={n})", f"fixed-point partition of n! (n={n})")
        ],
    )
    _report(10, "derangement-part fiber identities hold for n <= 7")


def test_criterion_11_palindromicity_and_vanishing(holds):
    holds(checks.hilbert_palindromicity(range(1, 8)), ["palindromicity + even-rank vanishing (n <= 7)"])
    _report(11, "palindromicity and even-rank vanishing hold for n <= 7")


def test_criterion_12_order_complexes(holds):
    holds(checks.full_rank_h_anchor(range(2, 7)), [f"full-rank h-polynomial anchor (n={n})" for n in range(2, 7)])
    ns = range(2, 7)
    holds(checks.fvector_routes(ns), [f"f-vector routes (uniform {n},{r})" for n in ns for r in range(1, n + 1)])
    reports = holds(
        checks.conjecture_reports(range(2, 7)),
        [
            name
            for n in range(2, 7)
            for name in [f"conjecture report (n={n}, r={r})" for r in range(1, n)]
            + [f"bivariate restatement report (n={n})"]
        ],
    )
    equal = sum("equal_full=True" in e["detail"] for e in reports)
    _report(12, "h-polynomial anchor holds (n <= 6); conjecture checker emitted "
               f"15 reports, full-lattice reading equal in {equal}")


def test_full_check_suite_under_time_budget(capsys):
    start = time.perf_counter()
    code = main(["check", "--suite", "all", "--nmax", "6"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert elapsed < 300.0
    print(f"PASS overall: `check --suite all --nmax 6` green in {elapsed:.2f}s")
