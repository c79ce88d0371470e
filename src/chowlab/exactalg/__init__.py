"""Exact arithmetic foundation: sparse (q,t)-polynomials (`bipoly`) and
fraction-free elimination over them (`det`)."""

from .bipoly import (
    BiPoly,
    MINUS_ONE,
    ONE,
    Q,
    T,
    ZERO,
    binomial,
    diff_terms,
    gauss_binomial,
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
    "binomial",
    "diff_terms",
    "gauss_binomial",
    "sum_of_products",
    "t_quantum",
]
