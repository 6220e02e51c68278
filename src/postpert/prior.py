"""Affine-parametric prior representations.

A random field is written as x = x0 + alpha * sum_j mode_j z_j with the
coefficients z_j drawn from pairwise uncorrelated scalar laws.  Modes come
either from a truncated Karhunen-Loeve basis of a covariance kernel or from
a fixed analytic family such as the Brownian-bridge sine series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBasis
from .fem import TriangularMesh, assemble_mass
from .linalg import SpdMatrix, generalized_sym_eig

_LAW_KINDS = ("uniform-symmetric", "uniform-shifted", "standard-normal")


@dataclass(frozen=True)
class CoefficientLaw:
    """Scalar coefficient distribution identified by kind and parameters.

    kinds:
      uniform-symmetric: U[-h, h]
      uniform-shifted:   U[-h, h] + offset
      standard-normal:   N(0, 1)
    """

    kind: str
    halfwidth: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in _LAW_KINDS:
            raise DimensionMismatch(f"unknown law kind {self.kind!r}")
        if self.kind.startswith("uniform") and self.halfwidth <= 0.0:
            raise DimensionMismatch("uniform laws need halfwidth > 0")

    @staticmethod
    def uniform_symmetric(halfwidth: float) -> "CoefficientLaw":
        return CoefficientLaw("uniform-symmetric", halfwidth=halfwidth)

    @staticmethod
    def uniform_shifted(halfwidth: float, offset: float) -> "CoefficientLaw":
        return CoefficientLaw("uniform-shifted", halfwidth=halfwidth, offset=offset)

    @staticmethod
    def standard_normal() -> "CoefficientLaw":
        return CoefficientLaw("standard-normal")

    @property
    def mean(self) -> float:
        return self.offset if self.kind == "uniform-shifted" else 0.0

    @property
    def variance(self) -> float:
        if self.kind == "standard-normal":
            return 1.0
        return self.halfwidth ** 2 / 3.0

    def map_draw(self, u):
        """Map law-native draws (uniform in [-1,1], or standard normal) to z."""
        u = np.asarray(u, dtype=float)
        if self.kind == "standard-normal":
            return u
        return self.halfwidth * u + self.offset

    def sample_native(self, rng, size):
        """Draw law-native variates with the given generator."""
        if self.kind == "standard-normal":
            return rng.standard_normal(size)
        return rng.uniform(-1.0, 1.0, size)


@dataclass
class AffineExpansion:
    """Perturbation model x = x0 + alpha * sum_j mode_j z_j."""

    x0: np.ndarray
    modes: np.ndarray
    laws: tuple[CoefficientLaw, ...]
    alpha: float = 1.0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.modes = np.asarray(self.modes, dtype=float)
        self.laws = tuple(self.laws)
        if self.modes.ndim != 2 or self.modes.shape[1] != self.x0.shape[0]:
            raise DimensionMismatch(
                f"modes {self.modes.shape} do not match reference {self.x0.shape}"
            )
        if len(self.laws) != self.modes.shape[0]:
            raise DimensionMismatch("one coefficient law per mode expected")
        if len(self.laws) == 0:
            raise EmptyBasis("an expansion needs at least one mode")
        if not self.alpha > 0.0:
            raise DimensionMismatch("scale alpha must be positive")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    @property
    def centered(self) -> bool:
        return all(law.mean == 0.0 for law in self.laws)

    def coefficient_means(self) -> np.ndarray:
        return np.array([law.mean for law in self.laws])

    def coefficient_variances(self) -> np.ndarray:
        return np.array([law.variance for law in self.laws])

    def with_alpha(self, alpha: float) -> "AffineExpansion":
        return AffineExpansion(self.x0, self.modes, self.laws, alpha)

    def realize(self, native_draws) -> np.ndarray:
        """Field for one vector of law-native draws."""
        u = np.asarray(native_draws, dtype=float)
        if u.shape != (self.n_modes,):
            raise DimensionMismatch(f"expected {self.n_modes} draws, got {u.shape}")
        z = np.array([law.map_draw(d) for law, d in zip(self.laws, u)])
        return self.x0 + self.alpha * (z @ self.modes)

    def realize_batch(self, native_draws) -> np.ndarray:
        """Fields for a (batch, n_modes) block of law-native draws."""
        u = np.asarray(native_draws, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.n_modes:
            raise DimensionMismatch(f"expected (batch, {self.n_modes}) draws")
        z = np.column_stack(
            [law.map_draw(u[:, j]) for j, law in enumerate(self.laws)]
        )
        return self.x0[None, :] + self.alpha * (z @ self.modes)

    def point_from_shift(self, shift) -> np.ndarray:
        """Reference point x0 + sum_j mode_j shift_j (no alpha scaling)."""
        s = np.asarray(shift, dtype=float)
        if s.shape != (self.n_modes,):
            raise DimensionMismatch(f"expected {self.n_modes} shifts, got {s.shape}")
        return self.x0 + s @ self.modes


@dataclass
class KleBasis:
    """Truncated Karhunen-Loeve basis on a triangular mesh."""

    eigenvalues: np.ndarray
    eigenfields: np.ndarray  # (retained, n_nodes), unit L2 norm each
    truncation_tol: float
    retained: int


def gaussian_kernel(gamma: float):
    """Covariance kernel k(x, y) = exp(-gamma |x - y|^2)."""

    def kernel(x, y):
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-gamma * d2)

    return kernel


def build_kle(kernel, mesh: TriangularMesh, tol: float) -> KleBasis:
    """Galerkin discretization of the covariance operator, then eigenpairs.

    The double integral over triangle pairs uses a one-point centroid rule,
    under which each hat function contributes area/3 per incident triangle.
    Modes with lambda_i > tol * lambda_1 are retained; the eigenfields come
    out mass-orthonormal, i.e. with unit L2 norm.
    """
    mass = assemble_mass(mesh)
    p = np.zeros((mesh.n_triangles, mesh.n_nodes))
    rows = np.repeat(np.arange(mesh.n_triangles), 3)
    np.add.at(p, (rows, mesh.triangles.ravel()), np.repeat(mesh.areas / 3.0, 3))
    kmat = kernel(mesh.centroids, mesh.centroids)
    galerkin = p.T @ kmat @ p
    galerkin = 0.5 * (galerkin + galerkin.T)

    # the relative threshold raises EmptyBasis when no mode passes it
    values, vectors = generalized_sym_eig(galerkin, SpdMatrix(mass), float(tol))
    return KleBasis(
        eigenvalues=values,
        eigenfields=vectors.T.copy(),
        truncation_tol=float(tol),
        retained=values.size,
    )


def brownian_bridge_modes(n_modes: int, tgrid) -> np.ndarray:
    """Sine series sqrt(2) sin(k pi t) / (k pi) sampled on a time grid."""
    if n_modes < 1:
        raise EmptyBasis("at least one mode required")
    t = np.asarray(tgrid, dtype=float)
    k = np.arange(1, n_modes + 1)[:, None]
    return np.sqrt(2.0) * np.sin(k * np.pi * t[None, :]) / (k * np.pi)
