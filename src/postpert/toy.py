"""Small analytic models with exact derivatives.

These exist so the expansion and refinement machinery can be checked against
closed forms and low-dimensional quadrature: a scalar linear-Gaussian model
whose posterior is available in closed form, and a two-mode polynomial model
with genuinely nonzero second and third derivatives.
"""

from __future__ import annotations

import numpy as np

from .linalg import SpdMatrix
from .model_api import ForwardModel, ModelEvaluations
from .prior import AffineExpansion


class ConjugateGaussianModel(ForwardModel):
    """Scalar model Q(x) = q0 + q1 x with identity prediction R(x) = x."""

    name = "conjugate-gaussian"

    def __init__(self, q0: float, q1: float, noise_var: float):
        super().__init__()
        self.q0 = float(q0)
        self.q1 = float(q1)
        self.noise_var = float(noise_var)

    @property
    def parameter_dim(self) -> int:
        return 1

    @property
    def observation_dim(self) -> int:
        return 1

    @property
    def prediction_dim(self) -> int:
        return 1

    def solve_state_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        self.solve_count += len(xs)
        return xs

    def observe_state_batch(self, states):
        return self.q0 + self.q1 * states

    def predict_state_batch(self, states):
        return states.copy()

    def noise_covariance(self) -> SpdMatrix:
        return SpdMatrix([[self.noise_var]])

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        ref = np.asarray(reference, dtype=float)
        self.solve_count += 1 + expansion.n_modes
        return ModelEvaluations(
            q0=self.q0 + self.q1 * ref,
            dq_modes=self.q1 * expansion.modes,
            r0=ref.copy(),
            dr_modes=expansion.modes.copy(),
            d2r_diag=np.zeros_like(expansion.modes),
            d2r_meandir=np.zeros_like(ref),
            reference=ref,
        )


class PolynomialToyModel(ForwardModel):
    """Two-parameter cubic model with analytic first and second derivatives.

    Q and R are fixed cubics in (x1, x2); both have nonvanishing third
    derivatives, so expansion truncation errors scale as genuine powers of
    the perturbation size rather than collapsing to zero.
    """

    name = "polynomial-toy"

    def __init__(self, noise=((0.04, 0.008), (0.008, 0.05))):
        super().__init__()
        self._sigma = SpdMatrix(noise)

    @property
    def parameter_dim(self) -> int:
        return 2

    @property
    def observation_dim(self) -> int:
        return 2

    @property
    def prediction_dim(self) -> int:
        return 2

    # -- maps ---------------------------------------------------------------
    @staticmethod
    def _q(x1, x2):
        q1 = x1 + 0.5 * x2 + 0.30 * x1 ** 2 + 0.20 * x1 * x2 + 0.10 * x2 ** 3
        q2 = -0.4 * x1 + x2 + 0.25 * x2 ** 2 + 0.15 * x1 ** 3
        return q1, q2

    @staticmethod
    def _r(x1, x2):
        r1 = x1 + 0.60 * x1 ** 2 + 0.20 * x1 ** 3 + 0.30 * x1 * x2
        r2 = x2 + 0.40 * x1 * x2 - 0.50 * x2 ** 2 + 0.15 * x2 ** 3
        return r1, r2

    @staticmethod
    def _q_jacobian(x1, x2):
        return np.array(
            [
                [1.0 + 0.6 * x1 + 0.2 * x2, 0.5 + 0.2 * x1 + 0.3 * x2 ** 2],
                [-0.4 + 0.45 * x1 ** 2, 1.0 + 0.5 * x2],
            ]
        )

    @staticmethod
    def _r_jacobian(x1, x2):
        return np.array(
            [
                [1.0 + 1.2 * x1 + 0.6 * x1 ** 2 + 0.3 * x2, 0.3 * x1],
                [0.4 * x2, 1.0 + 0.4 * x1 - 1.0 * x2 + 0.45 * x2 ** 2],
            ]
        )

    @staticmethod
    def _r_hessians(x1, x2):
        h1 = np.array([[1.2 + 1.2 * x1, 0.3], [0.3, 0.0]])
        h2 = np.array([[0.0, 0.4], [0.4, -1.0 + 0.9 * x2]])
        return h1, h2

    # -- model protocol -------------------------------------------------------
    def solve_state_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        self.solve_count += len(xs)
        return xs

    def observe_state_batch(self, states):
        q1, q2 = self._q(states[:, 0], states[:, 1])
        return np.column_stack([q1, q2])

    def predict_state_batch(self, states):
        r1, r2 = self._r(states[:, 0], states[:, 1])
        return np.column_stack([r1, r2])

    def noise_covariance(self) -> SpdMatrix:
        return self._sigma

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        ref = np.asarray(reference, dtype=float)
        x1, x2 = ref
        jq = self._q_jacobian(x1, x2)
        jr = self._r_jacobian(x1, x2)
        h1, h2 = self._r_hessians(x1, x2)
        modes = expansion.modes
        self.solve_count += 1 + 2 * expansion.n_modes

        d2r_diag = np.column_stack(
            [
                np.einsum("mi,ij,mj->m", modes, h1, modes),
                np.einsum("mi,ij,mj->m", modes, h2, modes),
            ]
        )
        w = expansion.coefficient_means() @ modes
        d2r_meandir = np.array([w @ h1 @ w, w @ h2 @ w])

        return ModelEvaluations(
            q0=np.array(self._q(x1, x2)),
            dq_modes=modes @ jq.T,
            r0=np.array(self._r(x1, x2)),
            dr_modes=modes @ jr.T,
            d2r_diag=d2r_diag,
            d2r_meandir=d2r_meandir,
            reference=ref,
        )
