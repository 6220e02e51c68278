"""Second-order expansions of posterior mean, correlation, and covariance.

For the affine perturbation model x = x0 + alpha * sum_j mode_j z_j with
pairwise uncorrelated coefficients z_j, the posterior moments of a smooth
prediction R are polynomials in alpha whose coefficients involve only the
model solves collected in ModelEvaluations:

  m1 = sum_j E[z_j] dr_j
  m2 = E[D^2 R[z, z]] / 2 + sum_j Var[z_j] <delta - q0, dq_j>_Sigma dr_j
       with z = sum_j z_j mode_j, where the bundle's d2r_expected holds
       E[D^2 R[z, z]] = sum_j Var[z_j] D^2 R[mode_j, mode_j] + D^2 R[E z, E z]
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
from scipy.linalg.blas import dsyr2k, dsyrk

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


# Edge of the square tiles in which a computed triangle is mirrored: two
# 128 x 128 float64 tiles (256 KiB) stay in a core's L2 cache.
_MIRROR_TILE = 128
_ABOVE_DIAGONAL = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


def _check_inputs(evals: ModelEvaluations, meas: MeasurementSetup, laws, alpha) -> None:
    if not 0.0 < alpha < np.inf:
        raise DimensionMismatch("scale alpha must be positive and finite")
    m, k = evals.dq_modes.shape
    if len(laws) != m:
        raise DimensionMismatch(f"{len(laws)} coefficient laws for {m} modes")
    if meas.data.shape != (k,):
        raise DimensionMismatch(f"data {meas.data.shape} does not match {k} observations")


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """Full symmetric C-contiguous matrix from a Fortran-ordered one whose
    upper triangle holds the entries, as BLAS symmetric updates leave it.

    The transposed view is C-contiguous with the entries in its lower
    triangle, which is copied over the strict upper triangle tile by tile.
    """
    x = upper.T
    z = len(x)
    for i in range(0, z, _MIRROR_TILE):
        rows = slice(i, i + _MIRROR_TILE)
        for j in range(0, i, _MIRROR_TILE):
            cols = slice(j, j + _MIRROR_TILE)
            x[cols, rows] = x[rows, cols].T
        tile = x[rows, rows]
        n = len(tile)
        np.copyto(tile, tile.T, where=_ABOVE_DIAGONAL[:n, :n])
    return x


def expand_posterior_moments(
    evals: ModelEvaluations,
    meas: MeasurementSetup,
    laws: tuple[CoefficientLaw, ...],
    alpha: float,
) -> PosteriorMoments:
    """Expanded mean, correlation and covariance at one prior scale alpha.

    The laws are those the bundle was evaluated with (d2r_expected holds
    their second moments).  A non-finite or non-positive alpha, a law count
    other than M or data of another dimension than K raise DimensionMismatch.
    """
    _check_inputs(evals, meas, laws, alpha)
    means = np.array([law.mean for law in laws])
    variances = np.array([law.variance for law in laws])
    dr = evals.dr_modes
    s = data_coupling(meas, evals.q0, evals.dq_modes)

    r0 = evals.r0
    m1 = means @ dr
    m2 = 0.5 * evals.d2r_expected + (variances * s) @ dr

    # Two Z x Z arrays, the outputs.  The covariance's upper triangle is one
    # rank-M update alpha^2 (sqrt(v) D)^T (sqrt(v) D) into an unset array
    # (with beta = 0 BLAS does not read it); the correlation adds the rank-2
    # update A B^T + B A^T with A = [r0, alpha m1] and
    # B = [r0 / 2 + u, alpha m1 / 2] to a copy of it.  Both BLAS calls read
    # Fortran-ordered operands, so the transposed (M, Z) scaled derivatives
    # pass without a copy.  Each triangle is then mirrored, so both outputs
    # are exactly symmetric.
    z = r0.shape[0]
    scaled = np.sqrt(variances)[:, None] * dr
    covariance = dsyrk(alpha ** 2, scaled.T, c=np.empty((z, z), order="F"), overwrite_c=1)
    u = alpha * m1 + alpha ** 2 * m2
    a = np.array([r0, alpha * m1]).T
    b = np.array([0.5 * r0 + u, 0.5 * alpha * m1]).T
    correlation = dsyr2k(1.0, a, b, beta=1.0, c=covariance)
    return PosteriorMoments(
        mean=r0 + alpha * m1 + alpha ** 2 * m2,
        correlation=_mirrored(correlation),
        covariance=_mirrored(covariance),
    )
