"""Perturbed Lotka-Volterra dynamics with snapshot observations.

The populations solve

    y1' = (15/2 + xi(t)) y1 - (3/40) y1 y2
    y2' = (3/20) y1 y2  - (15/2) y2,        y(0) = (20, 20),

where the perturbation path xi is the model parameter.  Time stepping is an
explicit Euler predictor followed by a fixed number of implicit-Euler
fixed-point sweeps, run by one batch kernel over a (2, B) state of prey and
predator rows; a single path is a batch of one.  The kernel reads the
forcing one time point at a time: rows of given paths, or, for a sampled
block of expansion coefficients, rows of slabs of REALIZE_SLAB time points
realized in turn with the bits realize_batch gives, so a sampled block
never holds its (B, n+1) paths.  Observations are both populations at
t = 1/4, 1/2, 3/4, 1.

Observation derivatives are exact derivatives of the discrete map, taken
from K adjoint sweeps rather than M tangent ones.  The tangent v of one
step is linear in v and in the path's direction d: with A the Jacobian,
B = h A(t_{n+1}) as the corrector sees it, S = I + B + ... + B^(s-1)
and P = B^s for s sweeps,

    v_{n+1} = T_n v_n + h y1_{n+1} d_{n+1} S e1 + h y1_n d_n P e1,
    T_n = S + P (I + h A(t_n)),

so one backward recurrence mu_n = T_n^T mu_{n+1}, carrying the K observed
components as columns, gives the sensitivity of every observation to
every grid value of the path, and dq = modes @ sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveState
from .linalg import SpdMatrix
from .model_api import ForwardModel
from .prior import REALIZE_SLAB, AffineExpansion, CoefficientLaw, brownian_bridge_modes

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


def _coefficient_paths(expansion, z):
    """The paths of expansion coefficients z (M, B), one (B,) time point at
    a time in time order.  They are realized REALIZE_SLAB time points at a
    time into one reused buffer, with the bits of realize_batch, so no
    (B, n+1) block is formed.  The expansion is read through its attributes
    only."""
    dim = expansion.dim
    buf = np.empty((min(REALIZE_SLAB, dim), z.shape[1]))
    for start in range(0, dim, REALIZE_SLAB):
        yield from expansion.realize_slab(z, start, buf[:min(REALIZE_SLAB, dim - start)])


def _march(forcing, n_steps, record, y_init=INITIAL_STATE):
    """The nonlinear predictor-corrector march for a batch of paths.

    forcing yields the paths' values at t_0, ..., t_n in time order, one
    (B,) row per time point: the rows of a transposed (B, n+1) block (views,
    contiguous for a sample-last block as realize_batch returns it, strided
    for a row-major one) or _coefficient_paths.  Each row is read once and
    may be overwritten once the next is asked for, so the march needs no
    (B, n+1) block.  Returns y1 and y2 at the grid indices in record, each
    shaped (B, len(record)).  The state is one (2, B) array of prey and
    predator rows, and each rate is written in factored form
    y * (k0 + k1 * other) with the step size folded into k0 and k1, so the
    predictor and every corrector sweep are four in-place ufuncs on
    preallocated (2, B) buffers.  The growth row of a step's end point, the
    only forcing the corrector sees, is formed once per step from that
    point's row and carried over as the next step's start.  The bits do not
    depend on the rows' layout.
    """
    forcing = iter(forcing)
    xi_first = next(forcing)
    batch = len(xi_first)
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
    np.add(GROWTH, xi_first, out=k_now[0])
    k_now[0] *= h
    s, f = np.empty((2, 2, batch))
    for n in range(n_steps):
        np.add(GROWTH, next(forcing), out=k_next[0])
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
    y1, y2 = _march(xi[:, None], len(xi) - 1, range(len(tgrid)), y_init)
    return Trajectory(tgrid, y1[0], y2[0], xi)


def _observation_adjoint(base: Trajectory, record) -> np.ndarray:
    """Sensitivities (n+1, 2 len(record)) of the recorded populations to the path.

    Column 2j (2j + 1) is the gradient of y1 (y2) at grid index record[j]
    with respect to the path values xi_0..xi_n, for the discrete
    predictor-corrector map about base, so the derivatives along
    directions modes (M, n+1) are modes @ sensitivities.  The per-step 2x2
    matrices are formed once, vectorised over time, and the backward
    recurrence carries one column per recorded population.
    """
    n_steps = len(base.tgrid) - 1
    h = 1.0 / n_steps
    ha = np.empty((n_steps + 1, 2, 2))  # h A(t) on the base trajectory
    ha[:, 0, 0] = h * (GROWTH + base.xi - PREDATION * base.y2)
    ha[:, 0, 1] = -h * PREDATION * base.y1
    ha[:, 1, 0] = h * CONVERSION * base.y2
    ha[:, 1, 1] = h * (CONVERSION * base.y1 - DECAY)
    b = ha[1:]
    s = np.zeros_like(b)
    p = np.broadcast_to(np.eye(2), b.shape).copy()
    for _ in range(CORRECTOR_SWEEPS):
        s += p
        p = p @ b
    step_t = (s + p @ (np.eye(2) + ha[:-1])).transpose(0, 2, 1).copy()

    # mu[n] is the gradient of each recorded population with respect to the
    # tangent state at step n, seeded where that population is recorded
    mu = np.zeros((n_steps + 1, 2, 2 * len(record)))
    for k, i in enumerate(record):
        mu[i, 0, 2 * k] = mu[i, 1, 2 * k + 1] = 1.0
    for n in range(n_steps - 1, -1, -1):
        mu[n] += step_t[n] @ mu[n + 1]

    # step n's forcing enters at t_{n+1} through S e1 and at t_n through P e1
    sens = np.zeros((n_steps + 1, mu.shape[2]))
    sens[1:] = np.einsum("tck,tc->tk", mu[1:], s[:, :, 0])
    sens[:-1] += np.einsum("tck,tc->tk", mu[1:], p[:, :, 0])
    sens *= h * base.y1[:, None]
    return sens


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
    """Observed populations of a batch, with its paths when they were given
    (xi is None for a batch solved from expansion coefficients)."""

    __slots__ = ("xi", "observed")

    def __init__(self, xi, observed):
        self.xi = xi
        self.observed = observed


class LotkaVolterraModel(ForwardModel):
    """Forward model whose parameter is the perturbation path itself.

    A sampled reference passes coefficient blocks to solve_coefficient_batch,
    which marches their paths a slab at a time, and sums the prediction in
    coefficient space (prediction_is_parameter).
    """

    prediction_is_parameter = True

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

    def _observed(self, forcing, batch: int) -> np.ndarray:
        y1, y2 = _march(forcing, self.n_steps, self._obs_idx)
        snap = np.empty((batch, self.observation_dim))
        snap[:, 0::2], snap[:, 1::2] = y1, y2
        self.solve_count += batch
        return snap

    def solve_state_batch(self, xs) -> LvState:
        xs = self._parameter_batch(xs)
        return LvState(xi=xs, observed=self._observed(xs.T, len(xs)))

    def solve_coefficient_batch(self, expansion, z) -> LvState:
        """States of the paths of expansion coefficients z (n_modes, B),
        realized a slab of time points at a time; observed bit for bit as
        solve_state_batch observes the realized block."""
        if expansion.dim != self.parameter_dim:
            raise DimensionMismatch(
                f"expansion dim {expansion.dim} does not match parameter_dim {self.parameter_dim}"
            )
        return LvState(xi=None, observed=self._observed(_coefficient_paths(expansion, z), z.shape[1]))

    def observe_state_batch(self, states: LvState) -> np.ndarray:
        return states.observed

    def predict_state_batch(self, states: LvState) -> np.ndarray:
        if states.xi is None:
            raise DimensionMismatch("states solved from coefficients hold no paths to predict")
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
        if expansion.dim != len(ref):
            raise DimensionMismatch("directions must be sampled on the reference grid")
        base = integrate(ref)
        sens = _observation_adjoint(base, self._obs_idx)
        self.solve_count += 1 + self.observation_dim
        return lv_observe(base), expansion.modes @ sens


def build_lotka_volterra(
    n_modes: int = 100, sigma_scale: float = 10.0, n_steps: int = 1000
):
    """Model plus Brownian-bridge prior around the unperturbed dynamics."""
    model = LotkaVolterraModel(n_steps=n_steps, sigma_scale=sigma_scale)
    modes = brownian_bridge_modes(n_modes, model.tgrid)
    laws = tuple(CoefficientLaw.standard_normal() for _ in range(n_modes))
    expansion = AffineExpansion(x0=np.zeros(n_steps + 1), modes=modes, laws=laws)
    return model, expansion
