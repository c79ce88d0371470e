"""Exact arithmetic foundation: sparse (q,t)-polynomials (`bipoly`), their
one packed-integer format (`Layout`), through which `*` multiplies large
polynomials, the bounds of a recurrence that fix a route's layout
(`recurrence_bounds`), the depth-first sum over rank tuples (`tuple_sum`),
and the leading principal minors of a matrix of them in that format."""

from .bipoly import (
    BiPoly,
    Layout,
    MINUS_ONE,
    ONE,
    Q,
    T,
    ZERO,
    diff_terms,
    gauss_binomial,
    join_rows,
    leading_principal_minors,
    recurrence_bounds,
    t_horner,
    tuple_sum,
)

__all__ = [
    "BiPoly",
    "Layout",
    "MINUS_ONE",
    "ONE",
    "Q",
    "T",
    "ZERO",
    "diff_terms",
    "gauss_binomial",
    "join_rows",
    "leading_principal_minors",
    "recurrence_bounds",
    "t_horner",
    "tuple_sum",
]
