"""Second-order expansions of posterior mean, correlation, and covariance.

For the affine perturbation model x = x0 + alpha * sum_j mode_j z_j with
pairwise uncorrelated coefficients z_j, the posterior moments of a smooth
prediction R are polynomials in alpha whose coefficients involve only the
model solves collected in ModelEvaluations:

  m1 = sum_j E[z_j] dr_j
  m2 = ( sum_j Var[z_j] d2r_j + d2r_mean ) / 2
     + sum_j Var[z_j] <delta - q0, dq_j>_Sigma dr_j
  C2 = sum_j Var[z_j] dr_j dr_j^T

  mean        = r0 + alpha m1 + alpha^2 m2
  covariance  = alpha^2 C2
  correlation = r0 r0^T + r0 u^T + u r0^T + alpha^2 m1 m1^T + covariance,
                with u = alpha m1 + alpha^2 m2

The truncation error is O(alpha^3) in general and O(alpha^4) when every law
is centered (all supported laws are symmetric about their mean).  Because
all stored derivatives are for unit modes, alpha enters each term
analytically with one power per derivative order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model_api import MeasurementSetup, ModelEvaluations, data_coupling
from .prior import CoefficientLaw


@dataclass
class PosteriorMoments:
    """Posterior mean, second moment (correlation), and covariance of R."""

    mean: np.ndarray
    correlation: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.correlation = np.asarray(self.correlation, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        z = self.mean.shape[0]
        if self.correlation.shape != (z, z) or self.covariance.shape != (z, z):
            raise DimensionMismatch("moment shapes are inconsistent")


def expand_posterior_moments(
    evals: ModelEvaluations,
    meas: MeasurementSetup,
    laws: tuple[CoefficientLaw, ...],
    alpha: float,
) -> PosteriorMoments:
    """Expanded mean, correlation and covariance at one prior scale alpha."""
    means = np.array([law.mean for law in laws])
    variances = np.array([law.variance for law in laws])
    dr = evals.dr_modes
    s = data_coupling(meas, evals.q0, evals.dq_modes)

    r0 = evals.r0
    m1 = means @ dr
    m2 = 0.5 * (variances @ evals.d2r_diag + evals.d2r_meandir)
    m2 = m2 + (variances * s) @ dr

    # Three Z x Z buffers: scratch, covariance and correlation.  Scaling by
    # 0.5 is exact, so folding it into alpha^2 and into the outer-product
    # vector keeps the bits of 0.5 * (X + X^T) scaled afterwards.  Every term
    # is a matrix plus its transpose or a vector's outer product with itself,
    # so both outputs are exactly symmetric.
    z = r0.shape[0]
    scratch = (variances[:, None] * dr).T @ dr
    covariance = np.add(scratch, scratch.T, out=np.empty((z, z)))
    covariance *= 0.5 * alpha ** 2
    half_cross = 0.5 * (r0 + 2.0 * (alpha * m1 + alpha ** 2 * m2))
    np.multiply(r0[:, None], half_cross, out=scratch)
    correlation = np.add(scratch, scratch.T, out=np.empty((z, z)))
    np.multiply(m1[:, None], m1, out=scratch)
    scratch *= alpha ** 2
    correlation += scratch
    correlation += covariance
    return PosteriorMoments(
        mean=r0 + alpha * m1 + alpha ** 2 * m2,
        correlation=correlation,
        covariance=covariance,
    )
