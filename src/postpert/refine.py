"""Iterative refinement of the expansion reference point.

The reference is moved in coefficient space along the span of the modes:

    d_j = alpha E[z_j] + (y0_j - y_j)
        + alpha^2 Var[z_j] <delta - Q(x(y)), dq_j at x(y)>_Sigma
    y  <- y + step_scale * d

where x(y) = x0 + sum_j mode_j (y_j - y0_j).  The update equals minus the
prior-covariance-preconditioned gradient of the Tikhonov functional, so the
iteration is a fixed-step descent method; for small perturbation scales its
fixed point approximates the posterior mean of the parameter to third order.
Coefficient laws never change during refinement, only their effective means
are shifted by the accumulated reference motion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Diverged, PostpertError, SingularPrior
from .model_api import ForwardModel, MeasurementSetup, data_coupling
from .prior import AffineExpansion

_BLOWUP_FACTOR = 1e6


@dataclass
class RefineState:
    """Coefficients of the current and initial reference point."""

    y: np.ndarray
    y0: np.ndarray
    update_history: list[float] = field(default_factory=list)
    iteration: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.y0 = np.asarray(self.y0, dtype=float)

    @staticmethod
    def initial(n_modes: int) -> "RefineState":
        return RefineState(np.zeros(n_modes), np.zeros(n_modes))

    def reference_point(self, expansion: AffineExpansion) -> np.ndarray:
        return expansion.point_from_shift(self.y - self.y0)


def _update_direction(
    state: RefineState,
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
) -> np.ndarray:
    x = state.reference_point(expansion)
    q, dq = model.linearize(expansion, x)
    coupled = data_coupling(meas, q, dq)
    alpha = expansion.alpha
    shifted_means = alpha * expansion.coefficient_means() + state.y0 - state.y
    return shifted_means + alpha ** 2 * expansion.coefficient_variances() * coupled


def refine_step(
    state: RefineState,
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
    step_scale: float = 1.0,
    divergence_bound: float | None = None,
) -> RefineState:
    """One update of the reference coefficients; laws stay untouched."""
    d = _update_direction(state, model, expansion, meas)
    norm = model.field_error_norm(d @ expansion.modes)
    if not np.isfinite(norm) or (divergence_bound is not None and norm > divergence_bound):
        raise Diverged(
            f"update norm {norm:.3e} exceeded the blow-up bound at iteration "
            f"{state.iteration}",
            state=state,
        )
    return RefineState(
        y=state.y + step_scale * d,
        y0=state.y0,
        update_history=state.update_history + [norm],
        iteration=state.iteration + 1,
    )


def run_refinement(
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
    max_iterations: int = 100,
    step_scale: float = 1.0,
    stop_tol: float = 1e-12,
    backtracking: bool = False,
):
    """Drive refine_step from the expansion's own reference point.

    Returns (refined_reference, final_state).  A blow-up of the update norms
    beyond 1e6 times the first one raises Diverged carrying the partial
    state; solver breakdowns after at least one successful step are treated
    the same way, since they are caused by the runaway reference.
    """
    state = RefineState.initial(expansion.n_modes)
    bound = None
    step = float(step_scale)
    for _ in range(max_iterations):
        try:
            state = refine_step(state, model, expansion, meas, step, bound)
        except Diverged:
            raise
        except PostpertError as exc:
            if state.iteration == 0:
                raise
            raise Diverged(
                f"model solve broke down at iteration {state.iteration}: {exc}",
                state=state,
            ) from exc
        if bound is None and state.update_history[0] > 0.0:
            bound = _BLOWUP_FACTOR * state.update_history[0]
        if backtracking and len(state.update_history) >= 2:
            if state.update_history[-1] > state.update_history[-2]:
                step *= 0.5
        if state.update_history[-1] <= stop_tol:
            break
    return state.reference_point(expansion), state


def tikhonov_gradient(
    y,
    model: ForwardModel,
    expansion: AffineExpansion,
    meas: MeasurementSetup,
    y0=None,
) -> np.ndarray:
    """Gradient of the regularized misfit in reference coefficients.

    g_j = -<delta - Q(x(y)), dq_j at x(y)>_Sigma
          + (y_j - y0_j - alpha E[z_j]) / (alpha^2 Var[z_j])

    The refinement direction equals -alpha^2 Var[z_j] g_j, which tests
    verify by computing both sides independently.
    """
    y = np.asarray(y, dtype=float)
    y0 = np.zeros_like(y) if y0 is None else np.asarray(y0, dtype=float)
    variances = expansion.coefficient_variances()
    if np.any(variances <= 0.0):
        raise SingularPrior("Tikhonov gradient needs strictly positive variances")
    alpha = expansion.alpha
    x = expansion.point_from_shift(y - y0)
    q, dq = model.linearize(expansion, x)
    coupled = data_coupling(meas, q, dq)
    prior_pull = (y - y0 - alpha * expansion.coefficient_means()) / (
        alpha ** 2 * variances
    )
    return -coupled + prior_pull
