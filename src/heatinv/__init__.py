"""Exact local heat invariants and regularized-trace coefficients of
Schrodinger operators -Laplacian + V, with a numeric evaluation pipeline
and independent Monte-Carlo / spectral verification oracles."""

from .diffpoly import DiffPoly
from .halfint import HalfIntScalar, gamma_half_integer, half_integer_binomial
from .invariants import (InvariantResult, alpha_density,
                         alpha_density_tail_sum, alpha_regime,
                         heat_invariant_binomial, heat_invariant_operator_sum,
                         regularization_depth)
from .jets import transport_jets
from .numeric import (QuadratureConfig, QuadratureError, b_from_a,
                      beta_from_alpha, coefficient_table, evaluate_density,
                      integrate_density, spectral_prefactor, table_text)
from .oracles import (BridgeSampler, FitReport, SlopeReport, TraceGrid,
                      discretized_schrodinger_1d, fit_expansion, fk_diagonal,
                      matrix_operator_family, nc_taylor_matrix_check,
                      relative_heat_trace_1d, taylor_family, taylor_remainder,
                      taylor_family_matches_operator_family)
from .potentials import (DerivativeCapError, PotentialEvalError,
                         PotentialExpr, PotentialSyntaxError, differentiate,
                         evaluate, evaluate_array, parse_potential,
                         taylor_derivatives)

__version__ = "0.1.0"

__all__ = [
    "DiffPoly",
    "HalfIntScalar", "gamma_half_integer", "half_integer_binomial",
    "InvariantResult", "alpha_density", "alpha_density_tail_sum",
    "alpha_regime", "heat_invariant_binomial", "heat_invariant_operator_sum",
    "regularization_depth",
    "transport_jets",
    "QuadratureConfig", "QuadratureError", "b_from_a", "beta_from_alpha",
    "coefficient_table", "evaluate_density", "integrate_density",
    "spectral_prefactor", "table_text",
    "BridgeSampler", "FitReport", "SlopeReport", "TraceGrid",
    "discretized_schrodinger_1d", "fit_expansion", "fk_diagonal",
    "matrix_operator_family", "nc_taylor_matrix_check",
    "relative_heat_trace_1d", "taylor_family", "taylor_remainder",
    "taylor_family_matches_operator_family",
    "DerivativeCapError", "PotentialEvalError", "PotentialExpr",
    "PotentialSyntaxError", "differentiate", "evaluate", "evaluate_array",
    "parse_potential", "taylor_derivatives",
    "__version__",
]
