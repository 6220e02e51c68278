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

Both second moments have rank at most M + 3, so an expansion keeps them as
factors (r0, m1, u, the scaled derivatives sqrt(Var z_j) dr_j and alpha)
and forms the two dense Z x Z arrays only when one of them is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyr2k, dsyrk

from .errors import DimensionMismatch
from .model_api import MeasurementSetup, ModelEvaluations, data_coupling
from .prior import CoefficientLaw


@dataclass(frozen=True)
class MomentFactors:
    """Second-moment factors of an expansion at one alpha (see the module
    docstring): r0 and m1 of shape (Z,), u = alpha m1 + alpha^2 m2 of shape
    (Z,) and scaled = sqrt(Var z_j) dr_j of shape (M, Z)."""

    r0: np.ndarray
    m1: np.ndarray
    u: np.ndarray
    scaled: np.ndarray
    alpha: float


class PosteriorMoments:
    """Posterior mean, second moment (correlation), and covariance of R.

    Sampled estimators pass the dense arrays.  An expansion passes factors
    instead (see `from_factors`); its correlation and covariance are formed
    together on the first read of either and kept.
    """

    def __init__(self, mean, correlation, covariance):
        self.mean = np.asarray(mean, dtype=float)
        dense = (np.asarray(correlation, dtype=float), np.asarray(covariance, dtype=float))
        z = self.mean.shape[0]
        if any(x.shape != (z, z) for x in dense):
            raise DimensionMismatch("moment shapes are inconsistent")
        self._dense = dense
        self.factors = None

    @classmethod
    def from_factors(cls, mean: np.ndarray, factors: MomentFactors) -> "PosteriorMoments":
        moments = cls.__new__(cls)
        moments.mean = mean
        moments._dense = None
        moments.factors = factors
        return moments

    def _densified(self) -> tuple[np.ndarray, np.ndarray]:
        if self._dense is None:
            self._dense = _densify(self.factors)
        return self._dense

    @property
    def correlation(self) -> np.ndarray:
        return self._densified()[0]

    @property
    def covariance(self) -> np.ndarray:
        return self._densified()[1]


# Edge of the square tiles in which a computed triangle is mirrored: two
# 128 x 128 float64 tiles (256 KiB) stay in a core's L2 cache.
_MIRROR_TILE = 128
_ABOVE_DIAGONAL = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


def _check_inputs(evals: ModelEvaluations, meas: MeasurementSetup, laws, alpha) -> None:
    if not 0.0 < alpha < np.inf:
        raise DimensionMismatch("scale alpha must be positive and finite")
    means = np.array([law.mean for law in laws])
    variances = np.array([law.variance for law in laws])
    if not (np.array_equal(means, evals.law_means) and np.array_equal(variances, evals.law_variances)):
        raise DimensionMismatch("coefficient laws differ from those the bundle was evaluated with")
    k = evals.q0.shape[0]
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


def _densify(f: MomentFactors) -> tuple[np.ndarray, np.ndarray]:
    """Dense (correlation, covariance) from an expansion's factors.

    The covariance's upper triangle is one rank-M update
    alpha^2 (sqrt(v) D)^T (sqrt(v) D) into an unset array (with beta = 0 BLAS
    does not read it); the correlation adds the rank-2 update A B^T + B A^T
    with A = [r0, alpha m1] and B = [r0 / 2 + u, alpha m1 / 2] to a copy of
    it.  Both BLAS calls read Fortran-ordered operands, so the transposed
    (M, Z) scaled derivatives pass without a copy.  Each triangle is then
    mirrored, so both outputs are exactly symmetric.
    """
    z = f.r0.shape[0]
    covariance = dsyrk(f.alpha ** 2, f.scaled.T, c=np.empty((z, z), order="F"), overwrite_c=1)
    a = np.array([f.r0, f.alpha * f.m1]).T
    b = np.array([0.5 * f.r0 + f.u, 0.5 * f.alpha * f.m1]).T
    correlation = dsyr2k(1.0, a, b, beta=1.0, c=covariance)
    return _mirrored(correlation), _mirrored(covariance)


def expand_posterior_moments(
    evals: ModelEvaluations,
    meas: MeasurementSetup,
    laws: tuple[CoefficientLaw, ...],
    alpha: float,
) -> PosteriorMoments:
    """Expanded mean, with correlation and covariance as factors, at one
    prior scale alpha.

    The laws must be those the bundle was evaluated with (d2r_expected holds
    their second moments).  A non-finite or non-positive alpha, laws other
    than the bundle's or data of another dimension than K raise
    DimensionMismatch.  No Z x Z array is formed until one is read.
    """
    _check_inputs(evals, meas, laws, alpha)
    dr = evals.dr_modes
    s = data_coupling(meas, evals.q0, evals.dq_modes)

    r0 = evals.r0
    m1 = evals.law_means @ dr
    m2 = 0.5 * evals.d2r_expected + (evals.law_variances * s) @ dr
    u = alpha * m1 + alpha ** 2 * m2
    scaled = np.sqrt(evals.law_variances)[:, None] * dr
    return PosteriorMoments.from_factors(
        r0 + alpha * m1 + alpha ** 2 * m2, MomentFactors(r0, m1, u, scaled, alpha)
    )
