"""Exact determinants over the polynomial ring (BiPoly)."""

from __future__ import annotations

from .bipoly import BiPoly, ONE


def det_fraction_free(matrix):
    """Bareiss fraction-free determinant of a square BiPoly matrix.

    Every interior division is an exact polynomial quotient, so no rational
    arithmetic ever appears.
    """
    n = _check_square(matrix)
    a = [[x if isinstance(x, BiPoly) else BiPoly.const(x) for x in row] for row in matrix]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return BiPoly()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divexact(prev)
            a[i][k] = BiPoly()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def _check_square(matrix):
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    return n
