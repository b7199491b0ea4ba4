"""Trust-region optimization for bound-constrained problems where some
partial derivatives of the objective are available and others are not.

The quadratic surrogate of each iteration can be built four ways: full
interpolation, the min-Frobenius-norm update of BOBYQA, Hermite least
squares (derivative-enriched regression) or Hermite BOBYQA (gradient
rows appended to the min-Frobenius system).
"""

from .driver import (
    RunResult,
    SolverConfig,
    TerminationReason,
    model_error_diagnostic,
    run,
)
from .models import (
    ModelKind,
    QuadraticModel,
    apply_scaling,
    apply_weighting,
    assemble_full_interp,
    assemble_hermite_bobyqa,
    assemble_hermite_ls,
    assemble_min_frob,
    solve_system,
)
from .poisedness import (
    LagrangeFamily,
    PoisednessEstimate,
    Region,
    estimate_lambda,
    lagrange_family,
    propose_geometry_point,
    select_outgoing,
    theorem1_check,
)
from .problem import (
    Bounds,
    DerivativeAvailability,
    EvaluationRecord,
    ObjectiveSpec,
    TaylorReference,
    TrainingSet,
    evaluate,
)
from .subproblem import solve_subproblem
from .testbed import add_noise, get_problem, mask_availability
from .yields import YieldProblem, yield_estimate, yield_gradient_means, yield_objective

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "DerivativeAvailability",
    "EvaluationRecord",
    "LagrangeFamily",
    "ModelKind",
    "ObjectiveSpec",
    "PoisednessEstimate",
    "QuadraticModel",
    "Region",
    "RunResult",
    "SolverConfig",
    "TaylorReference",
    "TerminationReason",
    "TrainingSet",
    "YieldProblem",
    "add_noise",
    "apply_scaling",
    "apply_weighting",
    "assemble_full_interp",
    "assemble_hermite_bobyqa",
    "assemble_hermite_ls",
    "assemble_min_frob",
    "estimate_lambda",
    "evaluate",
    "get_problem",
    "lagrange_family",
    "mask_availability",
    "model_error_diagnostic",
    "propose_geometry_point",
    "run",
    "select_outgoing",
    "solve_subproblem",
    "solve_system",
    "theorem1_check",
    "yield_estimate",
    "yield_gradient_means",
    "yield_objective",
]
