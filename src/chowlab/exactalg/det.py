"""Leading principal minors over the polynomial ring (BiPoly), by Bareiss
fraction-free elimination."""

from __future__ import annotations

from .bipoly import BiPoly, ONE, sum_of_products


def leading_principal_minors(matrix):
    """The leading principal minors M_1, ..., M_n of a square BiPoly matrix.

    One Bareiss elimination without row swaps: once k steps are done, the
    pivot a[k][k] is M_(k+1).  Every interior division is an exact
    polynomial quotient, so no rational arithmetic ever appears.  Below a
    zero pivot the elimination would need a swap, so the list stops at the
    first zero minor and is then shorter than n.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    a = [[x if isinstance(x, BiPoly) else BiPoly.const(x) for x in row] for row in matrix]
    minors = []
    prev = ONE
    for k in range(n):
        minors.append(a[k][k])
        if not a[k][k]:
            break
        for i in range(k + 1, n):
            minus = -a[i][k]
            for j in range(k + 1, n):
                a[i][j] = sum_of_products([(a[k][k], a[i][j]), (minus, a[k][j])]).divexact(prev)
            a[i][k] = BiPoly()
        prev = a[k][k]
    return minors
