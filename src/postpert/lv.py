"""Perturbed Lotka-Volterra dynamics with snapshot observations.

The populations solve

    y1' = (15/2 + xi(t)) y1 - (3/40) y1 y2
    y2' = (3/20) y1 y2  - (15/2) y2,        y(0) = (20, 20),

where the perturbation path xi is the model parameter.  Time stepping is an
explicit Euler predictor followed by a fixed number of implicit-Euler
fixed-point sweeps, run by one batch kernel over a (2, B) state of prey and
predator rows; a single path is a batch of one.  The associated variational
(linearized) system is integrated with the same scheme, with coefficients
frozen at the stored base trajectory, so derivative solves are exact
derivatives of the discrete map up to the tiny sweep-truncation residual.
Observations are both populations at t = 1/4, 1/2, 3/4, 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveState
from .linalg import SpdMatrix
from .model_api import ForwardModel, ModelEvaluations
from .prior import AffineExpansion, CoefficientLaw, brownian_bridge_modes

GROWTH = 15.0 / 2.0
DECAY = 15.0 / 2.0
PREDATION = 3.0 / 40.0
CONVERSION = 3.0 / 20.0
INITIAL_STATE = (20.0, 20.0)
OBSERVATION_TIMES = (0.25, 0.5, 0.75, 1.0)
CORRECTOR_SWEEPS = 5

# populations recorded at the four observation times, (prey, predator) pairs
OBSERVED_DATA = np.array([97.0, 19.0, 46.0, 333.0, 7.0, 86.0, 20.0, 20.0])


def lv_time_grid(n_steps: int = 1000) -> np.ndarray:
    if n_steps % 4 != 0:
        raise DimensionMismatch("step count must place the observation times on the grid")
    return np.linspace(0.0, 1.0, n_steps + 1)


@dataclass
class Trajectory:
    """Discrete populations along a time grid, with the driving path."""

    tgrid: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        n = len(self.tgrid)
        for arr in (self.y1, self.y2, self.xi):
            if len(arr) != n:
                raise DimensionMismatch("trajectory arrays must share the grid length")


def _march(xi, record, y_init=INITIAL_STATE):
    """The nonlinear predictor-corrector march for a batch of paths.

    xi is a batch of paths (B, n+1).  Returns y1 and y2 at the grid indices
    in record, each shaped (B, len(record)).  The state is one (2, B) array
    of prey and predator rows, and each rate is written in factored form
    y * (k0 + k1 * other) with the step size folded into k0 and k1, so the
    predictor and every corrector sweep are four in-place ufuncs on
    preallocated (2, B) buffers.  The growth row of a step's end point, the
    only forcing the corrector sees, is formed once per step from the
    column xi[:, n+1] and carried over as the next step's start; no
    transposed copy of xi is made.
    """
    batch, n_steps = xi.shape[0], xi.shape[1] - 1
    h = 1.0 / n_steps
    slot = {int(i): k for k, i in enumerate(record)}
    out = np.empty((2, batch, len(slot)))
    y = np.empty((2, batch))
    y[0], y[1] = y_init
    if 0 in slot:
        out[:, :, slot[0]] = y
    k1 = np.array([[-h * PREDATION], [h * CONVERSION]])
    k_now, k_next = np.empty((2, 2, batch))
    k_now[1] = k_next[1] = -h * DECAY
    np.add(GROWTH, xi[:, 0], out=k_now[0])
    k_now[0] *= h
    s, f = np.empty((2, 2, batch))
    for n in range(n_steps):
        np.add(GROWTH, xi[:, n + 1], out=k_next[0])
        k_next[0] *= h
        np.multiply(k1, y[::-1], out=s)
        s += k_now
        s *= y
        s += y
        for _ in range(CORRECTOR_SWEEPS):
            np.multiply(k1, s[::-1], out=f)
            f += k_next
            f *= s
            f += y
            s, f = f, s
        # fmin skips NaN, so a NaN path is not flagged and cannot hide a
        # collapsed one in the same batch
        if np.fmin.reduce(s, axis=None) <= 0.0:
            raise NonPositiveState(f"a population left the positive quadrant at step {n + 1}")
        y, s = s, y
        k_now, k_next = k_next, k_now
        j = slot.get(n + 1)
        if j is not None:
            out[:, :, j] = y
    return out[0], out[1]


def integrate(xi, y_init=INITIAL_STATE) -> Trajectory:
    """March the nonlinear system across the grid defined by the path xi."""
    xi = np.asarray(xi, dtype=float)
    tgrid = lv_time_grid(len(xi) - 1)
    y1, y2 = _march(xi[None], range(len(tgrid)), y_init)
    return Trajectory(tgrid, y1[0], y2[0], xi)


def integrate_derivative_many(base: Trajectory, modes: np.ndarray) -> np.ndarray:
    """Variational solves for several directions, returned as (M, 2, n+1).

    The linear system v' = A(t) v + (mode(t) y1(t), 0) uses the same
    predictor-corrector stepping as the nonlinear march, with A and the
    forcing evaluated on the stored base trajectory.
    """
    modes = np.asarray(modes, dtype=float)
    n_steps = len(base.tgrid) - 1
    if modes.shape[1] != n_steps + 1:
        raise DimensionMismatch("directions must be sampled on the base grid")
    h = 1.0 / n_steps
    m = modes.shape[0]
    v1 = np.zeros(m)
    v2 = np.zeros(m)
    out = np.empty((m, 2, n_steps + 1))
    out[:, 0, 0] = 0.0
    out[:, 1, 0] = 0.0

    # Jacobian entries and forcing rows for every grid index, formed once:
    # the five corrector sweeps of a step all evaluate at its end point.
    a11 = (GROWTH + base.xi - PREDATION * base.y2).tolist()
    a12 = (-PREDATION * base.y1).tolist()
    a21 = (CONVERSION * base.y2).tolist()
    a22 = (CONVERSION * base.y1 - DECAY).tolist()
    g1 = np.ascontiguousarray((modes * base.y1).T)

    def apply(tidx, w1, w2):
        return (
            a11[tidx] * w1 + a12[tidx] * w2 + g1[tidx],
            a21[tidx] * w1 + a22[tidx] * w2,
        )

    for n in range(n_steps):
        f1, f2 = apply(n, v1, v2)
        a, b = v1 + h * f1, v2 + h * f2
        for _ in range(CORRECTOR_SWEEPS):
            f1, f2 = apply(n + 1, a, b)
            a, b = v1 + h * f1, v2 + h * f2
        v1, v2 = a, b
        out[:, 0, n + 1] = v1
        out[:, 1, n + 1] = v2
    return out


def observation_indices(n_steps: int) -> np.ndarray:
    return np.array([int(round(f * n_steps)) for f in OBSERVATION_TIMES])


def lv_observe(traj: Trajectory) -> np.ndarray:
    """Both populations at the observation times, interleaved (y1, y2)."""
    idx = observation_indices(len(traj.tgrid) - 1)
    out = np.empty(2 * len(idx))
    out[0::2] = traj.y1[idx]
    out[1::2] = traj.y2[idx]
    return out


def lv_noise_covariance(sigma_scale: float) -> SpdMatrix:
    block = np.array([[1.0, 0.1], [0.1, 1.0]])
    return SpdMatrix(sigma_scale * np.kron(np.eye(len(OBSERVATION_TIMES)), block))


class LvState:
    __slots__ = ("xi", "observed")

    def __init__(self, xi, observed):
        self.xi = xi
        self.observed = observed


class LotkaVolterraModel(ForwardModel):
    """Forward model whose parameter is the perturbation path itself."""

    name = "lotka-volterra"

    def __init__(self, n_steps: int = 1000, sigma_scale: float = 10.0):
        super().__init__()
        self.n_steps = n_steps
        self.tgrid = lv_time_grid(n_steps)
        self.sigma_scale = float(sigma_scale)
        self._obs_idx = observation_indices(n_steps)

    @property
    def parameter_dim(self) -> int:
        return self.n_steps + 1

    @property
    def observation_dim(self) -> int:
        return 2 * len(OBSERVATION_TIMES)

    @property
    def prediction_dim(self) -> int:
        return self.n_steps + 1

    def solve_state_batch(self, xs) -> LvState:
        xs = np.asarray(xs, dtype=float)
        y1, y2 = _march(xs, self._obs_idx)
        snap = np.empty((len(xs), self.observation_dim))
        snap[:, 0::2], snap[:, 1::2] = y1, y2
        self.solve_count += len(xs)
        return LvState(xi=xs, observed=snap)

    def observe_state_batch(self, states: LvState) -> np.ndarray:
        return states.observed

    def predict_state_batch(self, states: LvState) -> np.ndarray:
        return states.xi

    def noise_covariance(self) -> SpdMatrix:
        return lv_noise_covariance(self.sigma_scale)

    field_norm_name = "max"
    tensor_norm_name = "max-tensor"

    def field_error_norm(self, v) -> float:
        return float(np.abs(np.asarray(v, dtype=float)).max())

    def tensor_error_norm(self, k) -> float:
        return float(np.abs(np.asarray(k, dtype=float)).max())

    def linearize(self, expansion: AffineExpansion, reference):
        ref = np.asarray(reference, dtype=float)
        base = integrate(ref)
        deriv = integrate_derivative_many(base, expansion.modes)
        self.solve_count += 1 + expansion.n_modes
        dq = np.empty((expansion.n_modes, self.observation_dim))
        dq[:, 0::2] = deriv[:, 0, self._obs_idx]
        dq[:, 1::2] = deriv[:, 1, self._obs_idx]
        return lv_observe(base), dq

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        ref = np.asarray(reference, dtype=float)
        q0, dq = self.linearize(expansion, ref)
        return ModelEvaluations(
            q0=q0,
            dq_modes=dq,
            r0=ref.copy(),
            dr_modes=expansion.modes.copy(),
            d2r_diag=np.zeros_like(expansion.modes),
            d2r_meandir=np.zeros_like(ref),
            reference=ref,
        )


def build_lotka_volterra(
    n_modes: int = 100, sigma_scale: float = 10.0, n_steps: int = 1000
):
    """Model plus Brownian-bridge prior around the unperturbed dynamics."""
    model = LotkaVolterraModel(n_steps=n_steps, sigma_scale=sigma_scale)
    modes = brownian_bridge_modes(n_modes, model.tgrid)
    laws = tuple(CoefficientLaw.standard_normal() for _ in range(n_modes))
    expansion = AffineExpansion(x0=np.zeros(n_steps + 1), modes=modes, laws=laws)
    return model, expansion
