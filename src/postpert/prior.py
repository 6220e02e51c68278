"""Affine-parametric prior representations.

A random field is written as x = x0 + alpha * sum_j mode_j z_j with the
coefficients z_j drawn from pairwise uncorrelated scalar laws.  Modes come
either from a truncated Karhunen-Loeve basis of a covariance kernel or from
a fixed analytic family such as the Brownian-bridge sine series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import ConvergenceFailure, DimensionMismatch, EmptyBasis
from .fem import TriangularMesh, assemble_mass

_LAW_KINDS = ("uniform-symmetric", "uniform-shifted", "standard-normal")

# Consecutive KLE eigenvalues at most this times lambda_1 apart share a cluster.
CLUSTER_RTOL = 1e-10
# Seed of the Gaussian probe that fixes the basis of each cluster.
MODE_PROBE_SEED = 20250
# Eigenpairs asked for by the first eigensolve of build_kle.
_FIRST_SUBSET = 32
# A grown request for at least n_nodes / _DENSE_FRACTION pairs goes to the
# dense solve: at L5 ARPACK took 0.19 s for 128 pairs but 3.3 s for 512,
# against 0.78 s for the full dense pencil.
_DENSE_FRACTION = 8
# Field coordinates realized by one product.  A slab is small next to a
# block of fields, so a model can march or solve a block slab by slab
# without holding its fields, and get the bits realize_batch gives.
REALIZE_SLAB = 64


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
        if not 0.0 < self.alpha < np.inf:
            raise DimensionMismatch("scale alpha must be positive and finite")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def coefficient_means(self) -> np.ndarray:
        return np.array([law.mean for law in self.laws])

    def coefficient_variances(self) -> np.ndarray:
        return np.array([law.variance for law in self.laws])

    def with_alpha(self, alpha: float) -> "AffineExpansion":
        return AffineExpansion(self.x0, self.modes, self.laws, alpha)

    def coefficients(self, native_draws) -> np.ndarray:
        """Coefficients z, shaped (n_modes, batch), of a (batch, n_modes)
        block of law-native draws."""
        u = np.asarray(native_draws, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.n_modes:
            raise DimensionMismatch(f"expected (batch, {self.n_modes}) draws")
        return np.stack([law.map_draw(u[:, j]) for j, law in enumerate(self.laws)])

    def realize_slab(self, z, start: int, out: np.ndarray) -> np.ndarray:
        """Rows start..start + len(out) of the (dim, batch) fields of the
        coefficients z, written to out: one product, then scaled and shifted
        in place.  Slabs of REALIZE_SLAB rows at multiples of it are exactly
        the rows of realize_batch, which is formed the same way."""
        stop = start + len(out)
        np.matmul(self.modes.T[start:stop], z, out=out)
        out *= self.alpha
        out += self.x0[start:stop, None]
        return out

    def realize_batch(self, native_draws) -> np.ndarray:
        """Fields for a (batch, n_modes) block of law-native draws.

        The (batch, dim) result is sample-last: it is the transpose of a
        C-ordered (dim, batch) array, so each field coordinate is one
        contiguous column across the batch.  It is formed in slabs of
        REALIZE_SLAB field coordinates (see realize_slab), with no other
        full-size array.
        """
        z = self.coefficients(native_draws)
        fields = np.empty((self.dim, z.shape[1]))
        for start in range(0, self.dim, REALIZE_SLAB):
            self.realize_slab(z, start, fields[start:start + REALIZE_SLAB])
        return fields.T

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
    eigenfields: np.ndarray  # (n_modes, n_nodes), unit L2 norm each


def build_kle(gamma: float, mesh: TriangularMesh, tol: float) -> KleBasis:
    """Galerkin discretization of exp(-gamma |x - y|^2), then its leading eigenpairs.

    The double integral over triangle pairs uses a one-point centroid rule,
    under which each hat function contributes area/3 per incident triangle.
    With that rule as a sparse (T, N) projection P and the centroid kernel
    matrix K, the Galerkin matrix is G = P^T K P.  G is never formed: the
    kernel factorizes as exp(-gamma dx^2) exp(-gamma dy^2), so with the
    centroids scattered onto the lattice of their distinct x and y values,
    K w = gather(Kx scatter(w) Ky^T) exactly, Kx and Ky being the kernel
    between the distinct x (y) values.  The mesh must fill at least half of
    that lattice, as the structured meshes of build_unit_square_mesh do.

    The leading pairs of G v = lambda M v (M the sparse P1 mass matrix)
    come from implicitly restarted Lanczos (ARPACK), which needs G only as
    a product.  When the smallest pair returned still passes the threshold,
    the solve is repeated for four times as many.  ARPACK needs fewer pairs
    than N, and it costs more than the dense solve long before that, so the
    same product is applied to the identity and the pencil is solved densely
    once half of the spectrum is asked for (as on the smallest meshes) or a
    grown request reaches N/8.  Modes with lambda_i > tol * lambda_1 are
    retained, with non-increasing eigenvalues; the eigenfields come out
    mass-orthonormal, i.e. with unit L2 norm, in the canonical basis of
    _canonical_modes.

    Raises DimensionMismatch for a gamma that is not finite and >= 0, for
    tol <= 0 and for centroids that fill less than half of their lattice,
    ConvergenceFailure when an eigensolver fails and EmptyBasis when no mode
    passes the threshold.
    """
    # scipy.sparse and its linalg (about 0.27 s to import) are imported here,
    # so that processes which never build a KLE do not load them
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    gamma, tol = float(gamma), float(tol)
    if not 0.0 <= gamma < np.inf:
        raise DimensionMismatch(f"kernel gamma must be finite and >= 0, got {gamma}")
    if not tol > 0.0:
        raise DimensionMismatch("relative truncation tolerance must be > 0")
    t, n = mesh.n_triangles, mesh.n_nodes
    xs, ix = np.unique(mesh.centroids[:, 0], return_inverse=True)
    ys, iy = np.unique(mesh.centroids[:, 1], return_inverse=True)
    if len(xs) * len(ys) > 2 * t:
        raise DimensionMismatch(
            f"{t} centroids do not fill half of their {len(xs)} x {len(ys)} lattice"
        )
    kx = np.exp(-gamma * np.subtract.outer(xs, xs) ** 2)
    ky = np.exp(-gamma * np.subtract.outer(ys, ys) ** 2)
    rows = np.repeat(np.arange(t), 3)
    p = csr_array((np.repeat(mesh.areas / 3.0, 3), (rows, mesh.triangles.ravel())), shape=(t, n))
    pt = p.T.tocsr()
    grid = np.zeros((len(xs), len(ys)))

    def galerkin(v):
        grid[ix, iy] = p @ np.ravel(v)
        return pt @ (kx @ grid @ ky.T)[ix, iy]

    operator = LinearOperator((n, n), matvec=galerkin, dtype=float)
    mass = assemble_mass(mesh)
    # M is symmetric positive definite: a symmetric fill-reducing order and
    # no pivoting give half the fill of splu's default
    mass_lu = splu(
        mass.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    mass_inverse = LinearOperator((n, n), matvec=mass_lu.solve, dtype=float)
    count = _FIRST_SUBSET
    while True:
        dense = 2 * count >= n or (count > _FIRST_SUBSET and _DENSE_FRACTION * count >= n)
        try:
            if dense:
                # eigh reads the lower triangles only, so G need not be symmetrized
                values, vectors = eigh(operator @ np.eye(n), mass.toarray(), check_finite=False)
            else:
                values, vectors = eigsh(
                    operator, count, M=mass, Minv=mass_inverse,
                    which="LA", v0=np.ones(n), tol=0,
                )
        except (LinAlgError, ArpackError) as exc:
            raise ConvergenceFailure(f"generalized eigensolver failed: {exc}") from exc
        values, vectors = values[::-1], vectors[:, ::-1]
        if values[0] <= 0.0:
            raise EmptyBasis("leading eigenvalue is not positive")
        if dense or values[-1] <= tol * values[0]:
            break
        count *= 4

    keep = int(np.sum(values > tol * values[0]))
    if keep == 0:
        raise EmptyBasis("no eigenvalue passed the truncation threshold")
    values = values[:keep].copy()
    fields = _canonical_modes(values, vectors[:, :keep], mass)
    return KleBasis(eigenvalues=values, eigenfields=fields)


def _canonical_modes(values, vectors, mass) -> np.ndarray:
    """Eigenfields (one per row) in a basis fixed inside each cluster.

    A cluster is a run of consecutive eigenvalues whose gaps are at most
    CLUSTER_RTOL * lambda_1; a lone eigenvalue is a cluster of one.  The
    mass-orthonormal columns V of a cluster of c modes are rotated by the Q
    of the QR factorization (W^T M V)^T = Q R with diag(R) > 0, where the
    columns of W are the first c rows of a Gaussian probe seeded with
    MODE_PROBE_SEED.  W^T M (V Q) = R^T then depends on the eigenspace
    only, so the modes do not move with the solver, its BLAS rounding or
    its sign conventions.  For c = 1 this is the sign rule w^T M v > 0.
    """
    n, count = vectors.shape
    bounds = np.flatnonzero(-np.diff(values) > CLUSTER_RTOL * values[0]) + 1
    starts = np.concatenate(([0], bounds))
    stops = np.concatenate((bounds, [count]))
    width = int((stops - starts).max())
    # row j of the probe does not depend on how many rows are drawn
    probe = np.random.default_rng(MODE_PROBE_SEED).standard_normal((width, n))
    weighted = probe @ (mass @ vectors)  # entry (j, k) is w_j^T M v_k
    fields = np.empty((count, n))
    for a, b in zip(starts, stops):
        q, r = np.linalg.qr(weighted[: b - a, a:b].T)
        q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
        fields[a:b] = (vectors[:, a:b] @ q).T
    return fields


def brownian_bridge_modes(n_modes: int, tgrid) -> np.ndarray:
    """Sine series sqrt(2) sin(k pi t) / (k pi) sampled on a time grid."""
    if n_modes < 1:
        raise EmptyBasis("at least one mode required")
    t = np.asarray(tgrid, dtype=float)
    kpi = np.arange(1, n_modes + 1)[:, None] * np.pi
    # one (M, N) array, each step in place
    modes = kpi * t[None, :]
    np.sin(modes, out=modes)
    modes *= np.sqrt(2.0)
    modes /= kpi
    return modes
