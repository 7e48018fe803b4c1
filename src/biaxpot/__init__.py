"""Potential theory for the bi-axially symmetric Laplace operator on the
quarter plane: fundamental solution, double-layer potential, and a Nystrom
solver for the interior Dirichlet problem.
"""

from .errors import (AmbiguousClassificationError, ConfigError,
                     ConvergenceError, DivergenceError, DomainError,
                     SingularPairError, SolveError)
from .geometry import Curve, CurvePoint, Point, check_endpoint_conditions
from .kernel import (Params, dq4_dn, dq4_dn_many, grad_q4, grad_q4_many,
                     k4_constant, q4, q4_many, weighted_dq4_dn_many)
from .specfun import (appell_f2, appell_f2_many, appell_f2_series_sets,
                      appell_f2_sets, f2_kernel_families, gauss_2f1,
                      gauss_2f1_at_one, ln_gamma)
from .potential import (Density, GaugeIdentityResult, boundary_trace,
                        classify, contour_flux, double_layer,
                        gauge_identity_verify, k_gauge, kernel_K4_log_split,
                        kernel_K4_row, nearest_arclength)
from .bie import (NystromSystem, assemble, condition_estimate,
                  convergence_study, default_exterior_source, evaluate,
                  evaluate_many, manufactured_data, solve_dirichlet)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "AmbiguousClassificationError", "ConfigError", "ConvergenceError",
    "DivergenceError", "DomainError", "SingularPairError", "SolveError",
    # geometry
    "Curve", "CurvePoint", "Point", "check_endpoint_conditions",
    # kernel
    "Params", "dq4_dn", "dq4_dn_many", "grad_q4", "grad_q4_many",
    "k4_constant", "q4", "q4_many", "weighted_dq4_dn_many",
    # specfun
    "appell_f2", "appell_f2_many", "appell_f2_series_sets", "appell_f2_sets",
    "f2_kernel_families", "gauss_2f1", "gauss_2f1_at_one", "ln_gamma",
    # potential
    "Density", "GaugeIdentityResult", "boundary_trace", "classify",
    "contour_flux", "double_layer", "gauge_identity_verify", "k_gauge",
    "kernel_K4_log_split", "kernel_K4_row", "nearest_arclength",
    # bie
    "NystromSystem", "assemble", "condition_estimate", "convergence_study",
    "default_exterior_source", "evaluate", "evaluate_many",
    "manufactured_data", "solve_dirichlet",
]
