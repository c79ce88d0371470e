"""q-Eulerian polynomials: definition vs recurrence, classical values,
generating-function identities."""

from math import factorial

import pytest

from chowlab import checks
from chowlab.exactalg import ONE, T
from chowlab.qeuler import (
    EulerianTable,
    classical_eulerian,
    classical_recurrence_check,
    egf_identity_check,
    q_eulerian_by_definition,
    q_eulerian_by_recurrence,
)


def test_base_cases():
    assert q_eulerian_by_definition(0) == ONE
    assert q_eulerian_by_definition(2) == ONE + T
    assert q_eulerian_by_recurrence(1) == ONE


def test_definition_matches_recurrence_through_8(holds):
    holds(checks.q_eulerian_definition(range(9)), [f"q-Eulerian definition vs recurrence (n={n})" for n in range(9)])


def test_classical_values():
    assert classical_eulerian(3) == ONE + 4 * T + T**2
    assert classical_eulerian(4) == ONE + 11 * T + 11 * T**2 + T**3
    for n in range(9):
        assert classical_eulerian(n).eval(1, 1) == factorial(n)


def test_classical_recurrence_check():
    for n in range(8):
        assert classical_recurrence_check(n)


def test_q_one_specialization_matches_classical():
    for n in range(9):
        assert q_eulerian_by_recurrence(n).subs_q_int(1) == classical_eulerian(n)


def test_row_and_column_structure():
    for n in range(1, 9):
        poly = q_eulerian_by_recurrence(n)
        assert poly.coefficient_in_t(0) == ONE
        assert poly.coefficient_in_t(n - 1) == ONE
        assert poly.is_palindromic_in_t(n - 1)
        assert poly.subs_q_int(1).eval(1, 1) == factorial(n)


def test_eulerian_table():
    table = EulerianTable(5)
    assert table[3] == q_eulerian_by_recurrence(3)
    # q-Eulerian numbers at q = 1 are the classical Eulerian numbers
    for n in range(1, 6):
        for j in range(n):
            classical = classical_eulerian(n).coefficient_in_t(j).constant()
            assert table.q_eulerian_number(n, j).eval(1, 1) == classical


def test_egf_identities():
    assert egf_identity_check(0)
    assert egf_identity_check(4)
    assert egf_identity_check(6, q_one=True)


def test_classical_cap():
    with pytest.raises(ValueError):
        classical_eulerian(13)
