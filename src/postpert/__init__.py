"""Perturbation expansions of posterior moments for Bayesian inverse problems."""

from .errors import (
    ConvergenceFailure,
    CostGuard,
    DegenerateWeights,
    DimensionMismatch,
    Diverged,
    EmptyBasis,
    IoFailure,
    NonPositiveState,
    NotSpd,
    PointOutsideMesh,
    PostpertError,
    SolverFailure,
)
from .expansion import (
    PosteriorMoments,
    expand_posterior_moments,
)
from .estimators import (
    SampleBudget,
    estimate_posterior,
    estimate_posterior_sweep,
    tensor_grid_oracle,
)
from .linalg import (
    SpdMatrix,
    field_l2_norm,
    tensor_l2_norm,
)
from .model_api import (
    ForwardModel,
    MeasurementSetup,
    ModelEvaluations,
    evaluate_at,
    generate_data,
)
from .prior import (
    AffineExpansion,
    CoefficientLaw,
    KleBasis,
    brownian_bridge_modes,
    build_kle,
)
from .refine import RefineState, refine_step, run_refinement

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
