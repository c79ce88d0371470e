"""Exact arithmetic foundation: sparse (q,t)-polynomials (`bipoly`), their
one packed-integer format (`Layout`), through which `*` multiplies large
polynomials, and the leading principal minors of a matrix of them computed
in that format."""

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
    leading_principal_minors,
    t_quantum,
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
    "leading_principal_minors",
    "t_quantum",
]
