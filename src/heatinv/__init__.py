"""Exact local heat invariants and regularized-trace coefficients of
Schrodinger operators -Laplacian + V, with a numeric evaluation pipeline
and independent Monte-Carlo / spectral verification oracles.

The package exports the names its README and demos import, transport_jets
and the errors those functions raise; everything else is reached through
its own module, such as heatinv.potentials.taylor_derivatives."""

from .invariants import (alpha_density, alpha_density_tail_sum, alpha_regime,
                         heat_invariant_binomial, heat_invariant_operator_sum,
                         regularization_depth)
from .jets import transport_jets
from .numeric import (QuadratureConfig, QuadratureError, coefficient_table,
                      evaluate_density, integrate_density, table_text)
from .oracles import (BridgeSampler, TraceGrid, discretized_schrodinger_1d,
                      fit_expansion, fk_diagonal, nc_taylor_matrix_check,
                      relative_heat_trace_1d,
                      taylor_family_matches_operator_family)
from .potentials import (PotentialEvalError, PotentialSyntaxError,
                         parse_potential)

__version__ = "0.1.0"

__all__ = [
    "alpha_density", "alpha_density_tail_sum", "alpha_regime",
    "heat_invariant_binomial", "heat_invariant_operator_sum",
    "regularization_depth",
    "transport_jets",
    "QuadratureConfig", "QuadratureError", "coefficient_table",
    "evaluate_density", "integrate_density", "table_text",
    "BridgeSampler", "TraceGrid", "discretized_schrodinger_1d",
    "fit_expansion", "fk_diagonal", "nc_taylor_matrix_check",
    "relative_heat_trace_1d", "taylor_family_matches_operator_family",
    "PotentialEvalError", "PotentialSyntaxError", "parse_potential",
    "__version__",
]
