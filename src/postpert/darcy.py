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
columns come from one sparse product with the direction weights s.  The
expansion reads one second-order field, sum_j Var[z_j] w2_j plus w2 along
mu = sum_j E[z_j] mode_j.  The solve is linear, so the M + 1 weighted
right-hand sides are summed on the element vectors and scattered as one
column; the first derivative along mu is sum_j E[z_j] w1_j.

Observation derivatives come from K adjoint solves, not from the M mode
derivatives: with A lambda_k = O_k^T on the interior rows (A is symmetric),

    dq_jk = O_k w1_j = -sum_T exp(b)_T xibar_jT  lambda_k|_T . (G_T u_T),

and the centroid average xibar_j = P^T xi_j moves onto the adjoint side, so
dq = -modes @ P (exp(b) * e) with e_kT = lambda_k|_T . (G_T u_T) and P the
sparse (N x T) centroid-averaging scatter.  Every entry point takes dq this
way, so linearize and the r1 bundle cost 1 + K solves; the pressure bundle
adds the M solves for w1 and one second-order solve, under any laws.

The P1 mass matrix, which defines the error norms, is held as a
scipy.sparse csr_array.

Observations are the solution values at five interior points; the noise
covariance is fixed.  Priors come from a truncated KLE of a Gaussian kernel,
with one coefficient law per retained mode.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

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
from .prior import AffineExpansion, CoefficientLaw, KleBasis, build_kle

OBSERVATION_POINTS = np.array(
    [[0.5, 0.5], [0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.75]]
)

# LAPACK's banded Cholesky factor and solve, called without scipy's
# cholesky_banded / cho_solve_banded wrappers, whose checks and dispatch
# cost about a quarter of a per-sample solve at L4
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty(0),))

KERNEL_GAMMA = 20.0 / 3.0
# Mean of every coefficient law of the uncentered prior (centered=False).
UNCENTERED_OFFSET = 0.1


def _triangle_means(mesh: TriangularMesh, nodal: np.ndarray) -> np.ndarray:
    """Centroid values of nodal fields, (N,) -> (T,) or (M, N) -> (M, T)."""
    # the three vertex columns added left to right in one buffer: the bits of
    # mean(axis=-1), without its (..., T, 3) gather and per-call overhead
    tri = mesh.triangles
    out = nodal[..., tri[:, 0]]
    out += nodal[..., tri[:, 1]]
    out += nodal[..., tri[:, 2]]
    out /= 3.0
    return out


def _conductivity(mesh: TriangularMesh, b) -> np.ndarray:
    """exp of the centroid values of b, (N,) -> (T,) or (B, N) -> (B, T)."""
    coef = _triangle_means(mesh, np.asarray(b, dtype=float))
    # overflow is handled by the finiteness check, not by a warning
    with np.errstate(over="ignore"):
        np.exp(coef, out=coef)
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
        self.interior = idx = mesh.interior
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
        # adjoint right-hand sides O_k^T on the interior rows, one column each
        self._obs_int = np.asfortranarray(self.obs_matrix[:, idx].T)

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
        # P, the (N x T) centroid-averaging scatter: P^T v holds the centroid
        # values of a nodal field v
        t = mesh.n_triangles
        self._centroid = csr_array(
            (np.full(3 * t, 1.0 / 3.0), (mesh.triangles.ravel(), np.arange(3 * t) // 3)),
            shape=(mesh.n_nodes, t),
        )


class BandedStiffness:
    """Banded Cholesky factor of the interior stiffness matrix for one field b.

    Factored once, then reused for the forward load and for every derivative
    column, all columns of one derivative order in one multi-RHS solve.  A
    non-finite conductivity or band, or a breakdown of the factorization,
    raises SolverFailure.  coef, when given, is the conductivity of b,
    computed for a whole block of fields at once.
    """

    def __init__(self, problem: DarcyProblem, b, coef=None):
        self.problem = problem
        self.coef = _conductivity(problem.mesh, b) if coef is None else coef
        vals = self.coef[problem._band_tri] * problem._band_gvals
        n_band, n_int = problem._band_shape
        ab = np.bincount(problem._band_flat, weights=vals, minlength=n_band * n_int)
        if not np.isfinite(ab).all():
            raise SolverFailure("stiffness factorization failed: the band is not finite")
        self._factor, info = _PBTRF(ab.reshape(n_band, n_int), lower=1)
        if info > 0:
            raise SolverFailure(
                f"stiffness factorization failed: leading minor {info} is not positive definite"
            )

    def solve(self, rhs_int) -> np.ndarray:
        """Interior solve, (n_int,) or (n_int, M), embedded with zero boundary values."""
        # finiteness of the right-hand side is the caller's, as is a valid
        # shape (pbtrs reports only malformed arguments)
        x, _ = _PBTRS(self._factor, rhs_int, lower=1)
        out = np.zeros((self.problem.mesh.n_nodes,) + x.shape[1:])
        out[self.problem.interior] = x
        return out

    def _element_vectors(self, u) -> np.ndarray:
        """Element vectors G_T u_T of a nodal field u, shaped (T, 3)."""
        problem = self.problem
        return np.einsum("tij,tj->ti", problem._local, u[problem.mesh.triangles])

    def observed_first_order(self, modes, u) -> np.ndarray:
        """Derivatives (M, K) of the observations O u along the nodal
        directions modes (M, N), from K adjoint solves A lambda = O_int^T.

        dq = -modes @ P (coef * e) with e_kT = lambda_k|_T . (G_T u_T); no
        (M, T) table of centroid values is formed.
        """
        problem = self.problem
        lam = self.solve(problem._obs_int)  # (N, K), zero on the boundary
        e = np.einsum("tak,ta->tk", lam[problem.mesh.triangles], self._element_vectors(u))
        e *= self.coef[:, None]
        return -(modes @ (problem._centroid @ e))

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
        g = self._element_vectors(u).ravel()
        scatter = problem._scatter
        op = csr_array(
            (g[scatter.indices], problem._scatter_tri, scatter.indptr),
            shape=(problem.n_int, problem.mesh.n_triangles),
        )
        return -(op @ (self.coef * xibars).T)

    def second_order(self, xibars, weights, u, w1) -> np.ndarray:
        """sum_j weights_j D^2 u[xi_j, xi_j], shape (N,), from one solve, for
        directions with centroid values xibars (M, T) and first derivatives
        w1 (M, N): element vectors coef_T G_T (2 sum_j c_jT w1_j + sum_j c_jT
        xibar_jT u) with c_jT = weights_j xibar_jT."""
        problem = self.problem
        tri = problem.mesh.triangles
        c = weights[:, None] * xibars
        vertex = 2.0 * np.einsum("mt,mtj->tj", c, w1[:, tri])
        vertex += np.einsum("mt,mt->t", c, xibars)[:, None] * u[tri]
        local = self.coef[:, None] * np.einsum("tij,tj->ti", problem._local, vertex)
        return self.solve(-(problem._scatter @ local.ravel()))


class DarcyModel(ForwardModel):
    """Forward model with prediction "r1" (the parameter field itself)
    or "r2" (the pressure field)."""

    def __init__(self, problem: DarcyProblem, prediction: str = "r2"):
        super().__init__()
        if prediction not in ("r1", "r2"):
            raise DimensionMismatch(f"unknown Darcy prediction {prediction!r}")
        self.problem = problem
        self.prediction = prediction

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
        # each sample's solve reads its own row, so a sample-last block (as
        # realize_batch returns) is copied to row-major once, not read strided
        xs = np.ascontiguousarray(self._parameter_batch(xs))
        coefs = _conductivity(self.problem.mesh, xs)
        us = np.empty_like(xs)
        for k in range(len(xs)):
            us[k] = BandedStiffness(self.problem, xs[k], coefs[k]).solve(self.problem.f_int)
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

    def _observed(self, expansion: AffineExpansion, reference):
        """Factor at the reference, its forward field u0 and the observation
        derivatives dq (M, K): the 1 + K solves every entry point shares."""
        op = BandedStiffness(self.problem, reference)
        u0 = op.solve(self.problem.f_int)
        dq = op.observed_first_order(expansion.modes, u0)
        self.solve_count += 1 + self.observation_dim
        return op, u0, dq

    def linearize(self, expansion: AffineExpansion, reference):
        _, u0, dq = self._observed(expansion, reference)
        return self.problem.obs_matrix @ u0, dq

    def evaluate_at(self, expansion: AffineExpansion, reference) -> ModelEvaluations:
        mesh = self.problem.mesh
        ref = np.asarray(reference, dtype=float)
        op, u0, dq = self._observed(expansion, ref)

        if self.prediction == "r1":
            r0 = ref.copy()
            dr_modes = expansion.modes.copy()
            d2r_expected = np.zeros_like(r0)
        else:
            r0 = u0
            xibars = _triangle_means(mesh, expansion.modes)  # (M, T)
            dr_modes = op.solve(op.first_order_rhs(xibars, u0)).T.copy()
            # the mean direction joins the modes with weight 1; its centroid
            # values and w1 are E[z] @ theirs (zero under centered laws)
            means = expansion.coefficient_means()
            d2r_expected = op.second_order(
                np.vstack([xibars, means @ xibars]),
                np.append(expansion.coefficient_variances(), 1.0),
                u0,
                np.vstack([dr_modes, means @ dr_modes]),
            )
            self.solve_count += expansion.n_modes + 1

        return ModelEvaluations(
            q0=self.problem.obs_matrix @ u0,
            dq_modes=dq,
            r0=r0,
            dr_modes=dr_modes,
            d2r_expected=d2r_expected,
            reference=ref,
            law_means=expansion.coefficient_means(),
            law_variances=expansion.coefficient_variances(),
        )


def build_darcy_kle(mesh: TriangularMesh, tol: float) -> KleBasis:
    """KLE of the Gaussian kernel on the model mesh."""
    return build_kle(KERNEL_GAMMA, mesh, tol)


def build_darcy(
    mesh_level: int,
    kle_tol: float = 1e-3,
    centered: bool = True,
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
            CoefficientLaw.uniform_shifted(np.sqrt(v), UNCENTERED_OFFSET)
            for v in basis.eigenvalues
        )
    expansion = AffineExpansion(
        x0=np.ones(mesh.n_nodes), modes=basis.eigenfields, laws=laws
    )
    return DarcyModel(problem, prediction), expansion
