"""Leading principal minors by Bareiss elimination against a naive
cofactor-expansion oracle."""

import math
import random

import pytest

from chowlab import charney, checks
from chowlab.exactalg import bipoly
from chowlab.exactalg import BiPoly, Layout, ONE, Q, T, leading_principal_minors


def _minors(m):
    """The leading principal minors of m at a bound on them: a minor's
    coefficients are at most its l1 norm, and the l1 norm of a k x k minor
    is at most the product over its rows of each row's l1 norm (counted as
    at least 1, so that the rows below k never lower it)."""
    bound = math.prod(max(1, sum(abs(c) for x in row for c in (ONE * x).terms.values())) for row in m)
    return leading_principal_minors(m, bound)


def _cofactor_det(matrix):
    n = len(matrix)
    if n == 1:
        return BiPoly.const(matrix[0][0]) if isinstance(matrix[0][0], int) else matrix[0][0]
    total = BiPoly()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _assert_minors_match_oracle(m):
    """Every minor the elimination returns is the cofactor expansion of its
    leading block, and a list shorter than the matrix ends at a zero minor."""
    minors = _minors(m)
    expected = [_cofactor_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    assert minors == expected[: len(minors)]
    assert len(minors) == len(m) or not minors[-1]


def test_single_entry():
    x = BiPoly({(1, 1): 1})
    assert _minors([[x]]) == [x]


def test_identity_matrix():
    m = [[ONE if i == j else BiPoly() for j in range(3)] for i in range(3)]
    assert _minors(m) == [ONE, ONE, ONE]


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        _minors([])
    with pytest.raises(ValueError):
        _minors([[ONE, ONE]])


def test_integer_matrices_against_cofactor_oracle():
    rng = random.Random(5)
    for size in (2, 3, 4, 5):
        for _ in range(8):
            _assert_minors_match_oracle([[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)])


def test_polynomial_matrices_against_cofactor_oracle():
    rng = random.Random(6)
    for size in (2, 3, 4):
        for _ in range(6):
            _assert_minors_match_oracle(
                [
                    [BiPoly({(rng.randrange(2), rng.randrange(2)): rng.randint(-3, 3)}) for _ in range(size)]
                    for _ in range(size)
                ]
            )


def test_singular_matrix():
    assert _minors([[ONE, ONE], [ONE, ONE]]) == [ONE, BiPoly()]


def test_leading_principal_minors_against_cofactor_oracle():
    rng = random.Random(7)
    for size in (1, 2, 3, 4):
        for _ in range(6):
            _assert_minors_match_oracle(
                [
                    [BiPoly({(rng.randrange(3), rng.randrange(2)): rng.randint(1, 4)}) for _ in range(size)]
                    for _ in range(size)
                ]
            )


def test_leading_principal_minors_stop_at_zero_pivot():
    # M_1 = 0, so elimination without a row swap cannot reach M_2
    assert _minors([[0, 1], [1, 0]]) == [BiPoly()]
    assert _minors([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == [ONE, BiPoly()]
    with pytest.raises(ValueError):
        _minors([])


def test_wide_mixed_sign_qt_matrices_against_cofactor_oracle():
    rng = random.Random(8)

    def entry():
        return BiPoly({(rng.randrange(3), rng.randrange(3)): rng.randint(-(2**64), 2**64) for _ in range(3)})

    for size in (1, 2, 3, 4):
        for _ in range(4):
            _assert_minors_match_oracle([[entry() for _ in range(size)] for _ in range(size)])


def test_minors_read_back_at_the_slot_edge(unpacked_widths):
    # the bound alone sets the slot width: 127 has 7 bits and fits 1-byte
    # slots with the sign bit, 128 has 8 bits and needs a 2nd byte
    assert leading_principal_minors([[-5, 5 * Q], [5 * T, 5 * Q * T]], 127) == [BiPoly.const(-5), -50 * Q * T]
    assert unpacked_widths == [1, 1]
    unpacked_widths.clear()
    assert leading_principal_minors([[8, -8 * Q], [8 * T, 8 * Q * T]], 128) == [BiPoly.const(8), 128 * Q * T]
    assert unpacked_widths == [2, 2]


def test_elimination_packs_each_entry_and_unpacks_each_minor_once(monkeypatch):
    # a count, not a timing: the suite's two secant matrices up to E_16 are
    # each packed once, eliminated in int, and only their 8 + 8 pivots are read back
    charney.tangent_secant(16)  # the table they are compared with, built before counting
    calls = {"pack": 0, "read": 0, "__mul__": 0}
    for owner, name in ((Layout, "pack"), (Layout, "read"), (BiPoly, "__mul__")):
        real = getattr(owner, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
    matrices = []

    def recording(matrix, *bound):
        matrices.append(matrix)
        return leading_principal_minors(matrix, *bound)

    monkeypatch.setattr(checks, "leading_principal_minors", recording)
    assert [e["ok"] for e in checks.secant_determinants(16)] == [True] * 16
    assert len(matrices) == 2
    entries = [entry for matrix in matrices for row in matrix for entry in row]
    assert calls == {"pack": sum(map(bool, entries)), "read": 16, "__mul__": 0}
