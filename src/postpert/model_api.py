"""Shared interface between forward models and the expansion machinery.

A forward model exposes a solve producing an internal state, an observation
map Q into R^K, a prediction map R into R^Z, and directional derivatives of
both along the modes of an affine expansion.  All derivative data is stored
for unit (unscaled) mode directions; the expansion scale alpha is applied
analytically downstream, one power per derivative order, so a whole alpha
sweep reuses a single set of model solves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch
from .linalg import SpdMatrix
from .prior import AffineExpansion


@dataclass
class MeasurementSetup:
    """Observed data together with the noise covariance."""

    data: np.ndarray
    sigma: SpdMatrix

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.sigma.n,):
            raise DimensionMismatch(
                f"data {self.data.shape} does not match noise covariance {self.sigma.n}"
            )


@dataclass
class ModelEvaluations:
    """Model solves at a reference point, for unit mode directions.

    q0:           Q at the reference, shape (K,)
    dq_modes:     first derivatives of Q along each mode, shape (M, K)
    r0:           R at the reference, shape (Z,)
    dr_modes:     first derivatives of R along each mode, shape (M, Z)
    d2r_diag:     second derivatives of R along (mode_j, mode_j), shape (M, Z)
    d2r_meandir:  second derivative of R along sum_j E[z_j] mode_j, shape (Z,)
    reference:    the expansion point the solves were taken at

    An affine prediction stores zeros for both second-derivative fields.
    """

    q0: np.ndarray
    dq_modes: np.ndarray
    r0: np.ndarray
    dr_modes: np.ndarray
    d2r_diag: np.ndarray
    d2r_meandir: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))
        m, k = self.dq_modes.shape
        if self.q0.shape != (k,):
            raise DimensionMismatch("q0 and dq_modes disagree on K")
        if self.dr_modes.shape != (m, self.r0.shape[0]):
            raise DimensionMismatch("r0 and dr_modes disagree on M or Z")
        if self.d2r_diag.shape != self.dr_modes.shape:
            raise DimensionMismatch("d2r_diag must be shaped like dr_modes")
        if self.d2r_meandir.shape != self.r0.shape:
            raise DimensionMismatch("d2r_meandir must be shaped like r0")

    @property
    def n_modes(self) -> int:
        return self.dq_modes.shape[0]


class ForwardModel:
    """Base class for concrete forward models.

    Subclasses implement the batched solve_state_batch / observe_state_batch /
    predict_state_batch triad and evaluate_at.  A batch is a stack of
    parameters (B, parameter_dim); observe and predict are a batch of one.
    solve_count tracks every forward or derivative solve so tests can assert
    how much work a study performed.
    """

    name = "abstract"

    def __init__(self):
        self.solve_count = 0

    # -- dimensions -------------------------------------------------------
    @property
    def parameter_dim(self) -> int:
        raise NotImplementedError

    @property
    def observation_dim(self) -> int:
        raise NotImplementedError

    @property
    def prediction_dim(self) -> int:
        raise NotImplementedError

    # -- evaluations --------------------------------------------------------
    def solve_state_batch(self, xs):
        raise NotImplementedError

    def observe_state_batch(self, states) -> np.ndarray:
        raise NotImplementedError

    def predict_state_batch(self, states) -> np.ndarray:
        raise NotImplementedError

    def _solve_one(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.parameter_dim,):
            raise DimensionMismatch(
                f"parameter {x.shape} does not match parameter_dim {self.parameter_dim}"
            )
        return self.solve_state_batch(x[None])

    def observe(self, x) -> np.ndarray:
        return self.observe_state_batch(self._solve_one(x))[0]

    def predict(self, x) -> np.ndarray:
        return self.predict_state_batch(self._solve_one(x))[0]

    # -- structure ----------------------------------------------------------
    def noise_covariance(self) -> SpdMatrix:
        raise NotImplementedError

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        raise NotImplementedError

    def linearize(self, expansion: AffineExpansion, reference):
        """(Q, dQ along modes) at a reference; default goes via evaluate_at."""
        ev = self.evaluate_at(expansion, reference)
        return ev.q0, ev.dq_modes

    # -- norms used for error reporting -------------------------------------
    field_norm_name = "euclidean"
    tensor_norm_name = "frobenius"

    def field_error_norm(self, v) -> float:
        return float(np.linalg.norm(np.asarray(v, dtype=float)))

    def tensor_error_norm(self, k) -> float:
        return float(np.linalg.norm(np.asarray(k, dtype=float)))


def evaluate_at(model: ForwardModel, expansion: AffineExpansion, reference=None) -> ModelEvaluations:
    """Evaluate a model at a reference point (default: the expansion's x0)."""
    ref = expansion.x0 if reference is None else np.asarray(reference, dtype=float)
    if ref.shape != (expansion.dim,):
        raise DimensionMismatch(f"reference {ref.shape} does not match expansion dim")
    ev = model.evaluate_at(expansion, ref)
    if ev.n_modes != expansion.n_modes:
        raise DimensionMismatch("model returned derivatives for a different mode count")
    return ev


def data_coupling(meas: MeasurementSetup, q, dq) -> np.ndarray:
    """Per-mode data coupling <delta - q, dq_j>_Sigma = dq @ Sigma^{-1} (delta - q)."""
    return dq @ meas.sigma.solve(meas.data - q)


def generate_data(model: ForwardModel, expansion: AffineExpansion, seed: int) -> MeasurementSetup:
    """Synthetic data: observe one prior realization, then add noise.

    The ground-truth draw and the noise come from a single seeded generator,
    in that order, so a seed pins the measurement exactly.
    """
    rng = np.random.default_rng(seed)
    native = np.array([law.sample_native(rng, None) for law in expansion.laws])
    truth = expansion.realize(native)
    clean = model.observe(truth)
    sigma = model.noise_covariance()
    noise = sigma.factor @ rng.standard_normal(sigma.n)
    return MeasurementSetup(data=clean + noise, sigma=sigma)
