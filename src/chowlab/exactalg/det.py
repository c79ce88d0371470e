"""Exact determinants over the polynomial ring (BiPoly)."""

from __future__ import annotations

from .bipoly import BiPoly, ONE


def det_fraction_free(matrix):
    """Bareiss fraction-free determinant of a square BiPoly matrix.

    Every interior division is an exact polynomial quotient, so no rational
    arithmetic ever appears.
    """
    n = _check_square(matrix)
    a = _as_bipoly(matrix)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not a[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return BiPoly()
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        prev = _eliminate(a, k, prev)
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def leading_principal_minors(matrix):
    """The leading principal minors M_1, ..., M_n of a square BiPoly matrix.

    One Bareiss elimination without row swaps: once k steps are done, the
    pivot a[k][k] is M_(k+1).  Below a zero pivot the elimination would need
    a swap, so the list stops at the first zero minor and is then shorter
    than n.
    """
    n = _check_square(matrix)
    a = _as_bipoly(matrix)
    minors = []
    prev = ONE
    for k in range(n):
        minors.append(a[k][k])
        if not a[k][k]:
            break
        prev = _eliminate(a, k, prev)
    return minors


def _as_bipoly(matrix):
    return [[x if isinstance(x, BiPoly) else BiPoly.const(x) for x in row] for row in matrix]


def _eliminate(a, k, prev):
    """One Bareiss step below pivot a[k][k]; returns the next step's divisor."""
    n = len(a)
    for i in range(k + 1, n):
        for j in range(k + 1, n):
            a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divexact(prev)
        a[i][k] = BiPoly()
    return a[k][k]


def _check_square(matrix):
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    return n
