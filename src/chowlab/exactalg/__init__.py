"""Exact arithmetic foundation: sparse (q,t)-polynomials (`bipoly`), with
their sums of products and the leading principal minors of a matrix of them
computed on packed integers."""

from .bipoly import (
    BiPoly,
    MINUS_ONE,
    ONE,
    Q,
    T,
    ZERO,
    diff_terms,
    gauss_binomial,
    leading_principal_minors,
    sum_of_products,
    t_quantum,
)

__all__ = [
    "BiPoly",
    "MINUS_ONE",
    "ONE",
    "Q",
    "T",
    "ZERO",
    "diff_terms",
    "gauss_binomial",
    "leading_principal_minors",
    "sum_of_products",
    "t_quantum",
]
