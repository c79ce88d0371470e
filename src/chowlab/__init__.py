"""Exact Hilbert series and Charney-Davis quantities of Chow rings of
uniform and finite-vector-space matroids, computed by multiple independent
formulas and cross-validated against brute-force permutation and lattice
oracles."""

from .charney import (
    CDResult,
    TangentSecantTable,
    cd,
    cd_chain_alternating,
    cd_direct,
    cd_qsecant,
    t_term,
    tangent_secant,
)
from .chow import (
    basis_monomial_oracle,
    delta_series,
    hilbert,
    hilbert_chain_sum,
    hilbert_closed_form,
    hilbert_recurrence,
)
from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly, gauss_binomial, t_quantum
from .flats import ExplicitLattice, FamilySpec, build_explicit, level_size
from .ordercx import FVector, bivariate_check, conjecture_check, h_polynomial, order_complex_fvector
from .permstat import PermStats, permutations_of, statistic_sum, stats
from .qeuler import classical_eulerian, derangement_polynomial, q_eulerian_by_definition, q_eulerian_by_recurrence

__version__ = "0.1.0"
