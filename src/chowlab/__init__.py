"""Exact Hilbert series and Charney-Davis quantities of Chow rings of
uniform and finite-vector-space matroids, computed by multiple independent
formulas and cross-validated against brute-force permutation and lattice
oracles.  A public name loads its module when first read (PEP 562)."""

__version__ = "0.1.0"

_EXPORTS = {
    "charney": "CDResult cd cd_chain_alternating cd_direct cd_qsecant t_term tangent_secant",
    "chow": "basis_monomial_oracle delta_series hilbert hilbert_chain_sum hilbert_closed_form hilbert_recurrence",
    "errors": "ResourceBoundError RouteDisagreementError",
    "exactalg": "BiPoly gauss_binomial",
    "flats": "ExplicitLattice FamilySpec build_explicit",
    "ordercx": "FVector bivariate_check conjecture_check h_polynomial order_complex_fvector",
    "permstat": "PermStats permutations_of statistic_sum stats",
    "qeuler": "classical_eulerian derangement_polynomial q_eulerian_by_definition q_eulerian_by_recurrence",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
