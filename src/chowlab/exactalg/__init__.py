"""Exact arithmetic foundation: sparse (q,t)-polynomials and the
fraction-free determinant."""

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
    q_factorial,
    q_int,
    q_pochhammer,
    t_quantum,
)
from .det import det_fraction_free

__all__ = [
    "BiPoly",
    "MINUS_ONE",
    "ONE",
    "Q",
    "T",
    "ZERO",
    "binomial",
    "det_fraction_free",
    "diff_terms",
    "gauss_binomial",
    "q_factorial",
    "q_int",
    "q_pochhammer",
    "t_quantum",
]
