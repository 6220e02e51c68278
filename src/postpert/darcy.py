"""Log-diffusion Darcy flow on the unit square with pointwise observations.

The forward map takes a nodal log-coefficient field b to the P1 solution of

    -div( exp(b) grad u ) = 1   in (0,1)^2,    u = 0 on the boundary,

with exp(b) evaluated at triangle centroids.  Directional derivatives of the
solution map solve the same operator with right-hand sides built from lower
order terms: with perturbation direction xi,

    a(w1, v) = -int exp(b) xi grad u  . grad v
    a(w2, v) = -int exp(b) (2 xi grad w1 + xi^2 grad u) . grad v

Forward, derivative and per-sample solves share one operator: the banded
Cholesky factor of the Dirichlet-eliminated stiffness matrix
(BandedStiffness).  It is assembled with one bincount over the band, factored
once per log-coefficient field, and applied to all right-hand sides of one
derivative order together.

Right-hand sides are scattered from element vectors to interior rows through
one fixed sparse structure built with the problem.  For first derivatives the
element vector of triangle T is s_T (G_T u_T) for every direction, so the
structure carries the values G_T u_T as an (n_int x T) operator and all
columns come from one sparse product with the direction weights s.  Second
derivatives have one element vector per direction and go through the same
structure as a 0/1 scatter of (M, T, 3) element vectors.

The P1 mass matrix, which defines the error norms, is held as a
scipy.sparse csr_array.

Observations are the solution values at five interior points; the noise
covariance is fixed.  Priors come from a truncated KLE of a Gaussian kernel,
with one coefficient law per retained mode.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import DimensionMismatch, SolverFailure
from .fem import (
    TriangularMesh,
    assemble_mass,
    build_unit_square_mesh,
    load_vector,
    local_stiffness,
    point_eval_matrix,
)
from .linalg import SpdMatrix, field_l2_norm, tensor_l2_norm
from .model_api import ForwardModel, ModelEvaluations
from .prior import AffineExpansion, CoefficientLaw, KleBasis, build_kle, gaussian_kernel

OBSERVATION_POINTS = np.array(
    [[0.5, 0.5], [0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]]
)

KERNEL_GAMMA = 20.0 / 3.0


def _triangle_means(mesh: TriangularMesh, nodal: np.ndarray) -> np.ndarray:
    """Centroid values of nodal fields, (N,) -> (T,) or (M, N) -> (M, T)."""
    # the three vertex columns added left to right: the bits of mean(axis=-1),
    # without its (..., T, 3) gather and per-call overhead
    tri = mesh.triangles
    return (nodal[..., tri[:, 0]] + nodal[..., tri[:, 1]] + nodal[..., tri[:, 2]]) / 3.0


def _conductivity(mesh: TriangularMesh, b) -> np.ndarray:
    # overflow is handled by the finiteness check, not by a warning
    with np.errstate(over="ignore"):
        coef = np.exp(_triangle_means(mesh, np.asarray(b, dtype=float)))
    if not np.all(np.isfinite(coef)):
        raise SolverFailure("conductivity overflowed or is not finite")
    return coef


def darcy_noise_covariance() -> SpdMatrix:
    k = len(OBSERVATION_POINTS)
    return SpdMatrix((np.ones((k, k)) + 4.0 * np.eye(k)) / 1000.0)


# Observation vector for the convergence and refinement studies.  It sits far
# from the reference outputs, so the residual-driven coupling terms dominate
# the posterior and the iteration genuinely diverges at large scale factors.
# Data drawn from the noise model itself leaves the residual at noise level,
# which hides exactly the effects the studies are meant to expose.
STUDY_OBSERVATIONS = np.array([3.84, -1.72, 4.97, -2.32, 2.42])


class DarcyState(NamedTuple):
    b: np.ndarray
    u: np.ndarray


class DarcyProblem:
    """Mesh-bound machinery shared by the two Darcy prediction maps."""

    def __init__(self, mesh: TriangularMesh):
        self.mesh = mesh
        self.mass = assemble_mass(mesh)
        self.obs_matrix = point_eval_matrix(mesh, OBSERVATION_POINTS)
        self.load = load_vector(mesh)
        self._setup_banded()

    def _setup_banded(self):
        """Index plumbing for the one banded stiffness operator.

        Interior vertices keep their lexicographic order, so the interior
        semi-bandwidth is one grid row.  Element contributions touching the
        boundary are dropped, which implements the Dirichlet elimination:
        the lower band of the stiffness matrix is gathered by one bincount,
        and the interior rows of element vectors by one sparse scatter.
        """
        from scipy.sparse import csr_array

        mesh = self.mesh
        idx = mesh.interior
        self.n_int = len(idx)
        renum = -np.ones(mesh.n_nodes, dtype=np.int64)
        renum[idx] = np.arange(self.n_int)
        tri_int = renum[mesh.triangles]  # (T, 3), -1 marks boundary vertices

        self._local = local_stiffness(mesh)  # (T, 3, 3)
        ii = tri_int[:, :, None].repeat(3, axis=2)
        jj = tri_int[:, None, :].repeat(3, axis=1)
        keep = (ii >= 0) & (jj >= 0) & (ii >= jj)
        self._band_tri = np.repeat(np.arange(mesh.n_triangles), keep.sum(axis=(1, 2)))
        self._band_gvals = self._local[keep]
        self.semi_bw = int((ii[keep] - jj[keep]).max())
        self._band_flat = (ii[keep] - jj[keep]) * self.n_int + jj[keep]
        self._band_shape = (self.semi_bw + 1, self.n_int)
        self.f_int = self.load[idx]

        # The scatter structure: row i holds the flattened element-vector
        # slots 3 T + k whose vertex is interior vertex i, in increasing slot
        # order, so every row sums its contributions in triangle order.  Each
        # triangle meets a vertex at most once, so slot // 3 is also a valid
        # column index for a (n_int x T) operator with the same rows.
        slots = np.flatnonzero(tri_int.ravel() >= 0)
        self._scatter = csr_array(
            (np.ones(len(slots)), (tri_int.ravel()[slots], slots)),
            shape=(self.n_int, 3 * mesh.n_triangles),
        )
        self._scatter_tri = self._scatter.indices // 3

    def solve_banded(self, b_nodal) -> np.ndarray:
        """Forward solve through the banded Cholesky path."""
        return BandedStiffness(self, b_nodal).solve(self.f_int)


class BandedStiffness:
    """Banded Cholesky factor of the interior stiffness matrix for one field b.

    Factored once, then reused for the forward load and for every derivative
    column, all columns of one derivative order in one multi-RHS solve.  A
    non-finite conductivity or a breakdown of the factorization raises
    SolverFailure.
    """

    def __init__(self, problem: DarcyProblem, b):
        self.problem = problem
        self.coef = _conductivity(problem.mesh, b)
        vals = self.coef[problem._band_tri] * problem._band_gvals
        n_band, n_int = problem._band_shape
        ab = np.bincount(problem._band_flat, weights=vals, minlength=n_band * n_int)
        try:
            self._factor = cholesky_banded(ab.reshape(n_band, n_int), lower=True)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolverFailure(f"stiffness factorization failed: {exc}") from exc

    def solve(self, rhs_int) -> np.ndarray:
        """Interior solve, (n_int,) or (n_int, M), embedded with zero boundary values."""
        # the factor is finite once factored; finiteness of the right-hand
        # side is the caller's, so the per-call scan is skipped
        x = cho_solve_banded((self._factor, True), rhs_int, check_finite=False)
        out = np.zeros((self.problem.mesh.n_nodes,) + x.shape[1:])
        out[self.problem.mesh.interior] = x
        return out

    def first_order_rhs(self, xibars, u) -> np.ndarray:
        """Interior right-hand sides (n_int, M) -sum_T coef_T xibar_T (G_T u_T)
        of the first derivatives along directions with centroid values
        xibars (M, T).

        The element vectors G_T u_T do not depend on the direction, so they
        become the values of one (n_int x T) operator on the problem's
        scatter structure, applied to all M weight columns at once.
        """
        from scipy.sparse import csr_array

        problem = self.problem
        g = np.einsum("tij,tj->ti", problem._local, u[problem.mesh.triangles]).ravel()
        scatter = problem._scatter
        op = csr_array(
            (g[scatter.indices], problem._scatter_tri, scatter.indptr),
            shape=(problem.n_int, problem.mesh.n_triangles),
        )
        return -(op @ (self.coef * xibars).T)

    def first_order(self, xibars, u) -> np.ndarray:
        """Derivatives (N, M) of the solution u along directions with centroid
        values xibars (M, T)."""
        return self.solve(self.first_order_rhs(xibars, u))

    def second_order(self, xibars, u, w1) -> np.ndarray:
        """Second derivatives (N, M) along (xi_j, xi_j), given the first
        derivatives w1, shaped (M, N) or (N,) for a single direction."""
        problem = self.problem
        tri = problem.mesh.triangles
        local = (2.0 * self.coef * xibars)[:, :, None] * np.einsum(
            "tij,...tj->...ti", problem._local, w1[..., tri]
        ) + (self.coef * xibars ** 2)[:, :, None] * np.einsum(
            "tij,tj->ti", problem._local, u[tri]
        )  # (M, T, 3) element vectors, scattered to (n_int, M)
        return self.solve(-(problem._scatter @ local.reshape(len(local), -1).T))


class DarcyModel(ForwardModel):
    """Forward model with prediction "r1" (the parameter field itself)
    or "r2" (the pressure field)."""

    def __init__(self, problem: DarcyProblem, prediction: str = "r2"):
        super().__init__()
        if prediction not in ("r1", "r2"):
            raise DimensionMismatch(f"unknown Darcy prediction {prediction!r}")
        self.problem = problem
        self.prediction = prediction
        self.name = f"darcy-{prediction}"

    @property
    def parameter_dim(self) -> int:
        return self.problem.mesh.n_nodes

    @property
    def observation_dim(self) -> int:
        return len(OBSERVATION_POINTS)

    @property
    def prediction_dim(self) -> int:
        return self.problem.mesh.n_nodes

    def solve_state_batch(self, xs) -> DarcyState:
        xs = np.asarray(xs, dtype=float)
        us = np.empty_like(xs)
        for k in range(len(xs)):
            us[k] = self.problem.solve_banded(xs[k])
        self.solve_count += len(xs)
        return DarcyState(b=xs, u=us)

    def observe_state_batch(self, states: DarcyState) -> np.ndarray:
        return states.u @ self.problem.obs_matrix.T

    def predict_state_batch(self, states: DarcyState) -> np.ndarray:
        return states.b if self.prediction == "r1" else states.u

    def noise_covariance(self) -> SpdMatrix:
        return darcy_noise_covariance()

    field_norm_name = "l2"
    tensor_norm_name = "l2-tensor"

    def field_error_norm(self, v) -> float:
        return field_l2_norm(self.problem.mass, v)

    def tensor_error_norm(self, k) -> float:
        return tensor_l2_norm(self.problem.mass, k)

    def _first_order(self, expansion: AffineExpansion, reference):
        """Factor at the reference, its forward field u0 and the mode
        derivatives w1 (N, M): the 1 + M solves linearize and evaluate_at share."""
        op = BandedStiffness(self.problem, reference)
        u0 = op.solve(self.problem.f_int)
        xibars = _triangle_means(self.problem.mesh, expansion.modes)  # (M, T)
        w1 = op.first_order(xibars, u0)
        self.solve_count += 1 + expansion.n_modes
        return op, u0, xibars, w1

    def linearize(self, expansion: AffineExpansion, reference):
        _, u0, _, w1 = self._first_order(expansion, reference)
        return self.problem.obs_matrix @ u0, (self.problem.obs_matrix @ w1).T

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        mesh = self.problem.mesh
        ref = np.asarray(reference, dtype=float)
        op, u0, xibars, w1 = self._first_order(expansion, ref)

        if self.prediction == "r1":
            r0 = ref.copy()
            dr_modes = expansion.modes.copy()
            d2r_diag = np.zeros_like(dr_modes)
            d2r_meandir = np.zeros_like(r0)
        else:
            r0 = u0
            dr_modes = w1.T.copy()
            d2r_diag = op.second_order(xibars, u0, dr_modes).T.copy()
            self.solve_count += expansion.n_modes

            mean_dir = expansion.coefficient_means() @ expansion.modes
            if np.any(mean_dir != 0.0):
                mbar = _triangle_means(mesh, mean_dir)[None]
                w1_mean = op.first_order(mbar, u0)[:, 0]
                d2r_meandir = op.second_order(mbar, u0, w1_mean)[:, 0]
                self.solve_count += 2
            else:
                d2r_meandir = np.zeros(mesh.n_nodes)

        return ModelEvaluations(
            q0=self.problem.obs_matrix @ u0,
            dq_modes=(self.problem.obs_matrix @ w1).T,
            r0=r0,
            dr_modes=dr_modes,
            d2r_diag=d2r_diag,
            d2r_meandir=d2r_meandir,
            reference=ref,
        )


def build_darcy_kle(mesh: TriangularMesh, tol: float) -> KleBasis:
    """KLE of the Gaussian kernel on the model mesh."""
    return build_kle(gaussian_kernel(KERNEL_GAMMA), mesh, tol)


def build_darcy(
    mesh_level: int,
    kle_tol: float = 1e-3,
    centered: bool = True,
    offset: float = 0.1,
    prediction: str = "r2",
):
    """Model plus matching prior expansion around the constant reference b = 1."""
    mesh = build_unit_square_mesh(mesh_level)
    problem = DarcyProblem(mesh)
    basis = build_darcy_kle(mesh, kle_tol)
    if centered:
        laws = tuple(CoefficientLaw.uniform_symmetric(np.sqrt(v)) for v in basis.eigenvalues)
    else:
        laws = tuple(
            CoefficientLaw.uniform_shifted(np.sqrt(v), offset) for v in basis.eigenvalues
        )
    expansion = AffineExpansion(
        x0=np.ones(mesh.n_nodes), modes=basis.eigenfields, laws=laws
    )
    return DarcyModel(problem, prediction), expansion
