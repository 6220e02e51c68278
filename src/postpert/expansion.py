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

_SOURCES = ("expansion", "qmc", "mc", "quadrature")


@dataclass
class PosteriorMoments:
    """Posterior mean, second moment (correlation), and covariance of R."""

    mean: np.ndarray
    correlation: np.ndarray
    covariance: np.ndarray
    centered: bool
    source: str

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.correlation = np.asarray(self.correlation, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        z = self.mean.shape[0]
        if self.correlation.shape != (z, z) or self.covariance.shape != (z, z):
            raise DimensionMismatch("moment shapes are inconsistent")
        if self.source not in _SOURCES:
            raise DimensionMismatch(f"unknown moment source {self.source!r}")


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

    m1 = means @ dr
    m2 = 0.5 * (variances @ evals.second_diag() + evals.second_meandir())
    m2 = m2 + (variances * s) @ dr
    c2 = (variances[:, None] * dr).T @ dr
    c2 = 0.5 * (c2 + c2.T)

    covariance = alpha ** 2 * c2
    cross = np.outer(evals.r0, evals.r0 + 2.0 * (alpha * m1 + alpha ** 2 * m2))
    correlation = 0.5 * (cross + cross.T) + alpha ** 2 * np.outer(m1, m1) + covariance
    return PosteriorMoments(
        mean=evals.r0 + alpha * m1 + alpha ** 2 * m2,
        correlation=correlation,
        covariance=covariance,
        centered=all(law.mean == 0.0 for law in laws),
        source="expansion",
    )
