"""Exact determinants against a naive cofactor-expansion oracle."""

import random

import pytest

from chowlab.exactalg import BiPoly, ONE, det_fraction_free
from chowlab.exactalg.det import leading_principal_minors


def _cofactor_det(matrix, zero, coerce):
    n = len(matrix)
    if n == 1:
        return coerce(matrix[0][0])
    total = zero
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = coerce(matrix[0][j]) * _cofactor_det(minor, zero, coerce)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_single_entry():
    x = BiPoly({(1, 1): 1})
    assert det_fraction_free([[x]]) == x


def test_identity_matrix():
    m = [[ONE if i == j else BiPoly() for j in range(3)] for i in range(3)]
    assert det_fraction_free(m) == ONE


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        det_fraction_free([])
    with pytest.raises(ValueError):
        det_fraction_free([[ONE, ONE]])


def test_integer_matrices_against_cofactor_oracle():
    rng = random.Random(5)
    for size in (2, 3, 4, 5):
        for _ in range(8):
            m = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            expected = _cofactor_det(m, BiPoly(), BiPoly.const)
            assert det_fraction_free(m) == expected


def test_polynomial_matrices_against_cofactor_oracle():
    rng = random.Random(6)
    for size in (2, 3, 4):
        for _ in range(6):
            m = [
                [
                    BiPoly({(rng.randrange(2), rng.randrange(2)): rng.randint(-3, 3)})
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert det_fraction_free(m) == _cofactor_det(m, BiPoly(), lambda x: x)


def test_singular_matrix():
    m = [[ONE, ONE], [ONE, ONE]]
    assert det_fraction_free(m) == BiPoly()



def test_leading_principal_minors_against_cofactor_oracle():
    rng = random.Random(7)
    for size in (1, 2, 3, 4):
        for _ in range(6):
            m = [
                [BiPoly({(rng.randrange(3), rng.randrange(2)): rng.randint(1, 4)}) for _ in range(size)]
                for _ in range(size)
            ]
            minors = leading_principal_minors(m)
            expected = [_cofactor_det([row[:k] for row in m[:k]], BiPoly(), lambda x: x) for k in range(1, size + 1)]
            assert minors == expected[: len(minors)]
            assert len(minors) == size or not minors[-1]


def test_leading_principal_minors_stop_at_zero_pivot():
    # M_1 = 0, so elimination without a row swap cannot reach M_2
    assert leading_principal_minors([[0, 1], [1, 0]]) == [BiPoly()]
    assert leading_principal_minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == [ONE, BiPoly()]
    with pytest.raises(ValueError):
        leading_principal_minors([])
