"""Dense symmetric linear algebra used throughout the package.

Conventions:
  - an SpdMatrix wraps the dense entries of a symmetric positive definite
    matrix together with a lazily computed Cholesky factor,
  - weighted inner products <u, v>_S = u^T S^{-1} v are always evaluated
    through the Cholesky factor, never through an explicit inverse,
  - the mass-weighted norms take the mass matrix as a dense array or as a
    scipy.sparse matrix and touch it only through products m @ x,
  - there is no eigensolver here: prior.build_kle hands its matrix-free
    Galerkin pencil to ARPACK (or, on small meshes, to scipy.linalg.eigh)
    itself.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, NotSpd, SolverFailure

# Relative asymmetry tolerated before a matrix is rejected outright.
_SYM_RTOL = 1e-12


def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray, what: str) -> None:
    scale = np.abs(a).max() if a.size else 0.0
    gap = np.abs(a - a.T).max() if a.size else 0.0
    if gap > _SYM_RTOL * max(scale, 1e-300):
        raise NotSpd(f"{what} is not symmetric (relative gap {gap / scale:.3e})")


class SpdMatrix:
    """Symmetric positive definite matrix with a cached Cholesky factor."""

    def __init__(self, entries):
        a = _as_square(entries)
        if not np.all(np.isfinite(a)):
            raise NotSpd("matrix has non-finite entries")
        _check_symmetric(a, "matrix")
        self.entries = a.copy()
        self._lower = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """Lower-triangular Cholesky factor L with L L^T = entries."""
        if self._lower is None:
            try:
                self._lower = np.linalg.cholesky(self.entries)
            except np.linalg.LinAlgError as exc:
                raise NotSpd(f"Cholesky factorization failed: {exc}") from exc
        return self._lower

    def solve(self, rhs):
        """Solve entries @ x = rhs for one right-hand side or a stack of them.

        A non-finite right-hand side raises SolverFailure.
        """
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has leading dimension {b.shape[0]}, matrix is {self.n}x{self.n}"
            )
        if not np.isfinite(b).all():
            raise SolverFailure("right-hand side has non-finite entries")
        L = self.factor
        y = solve_triangular(L, b, lower=True, check_finite=False)
        return solve_triangular(L.T, y, lower=False, check_finite=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(n={self.n})"


def _as_mass(mass):
    """A square mass matrix, dense or scipy.sparse (kept sparse)."""
    # sparse matrices carry nnz; everything else is read as a dense array
    m = mass if hasattr(mass, "nnz") else np.asarray(mass, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _root_of_square(val: float, operand) -> float:
    """Norm from its computed square.

    Overflowing terms of both signs sum to NaN or to -inf (BLAS dot
    products differ) although the square of a finite operand is positive,
    so a non-finite square of a finite operand is an overflow and the norm
    is inf.  Roundoff can leave a tiny negative square for an operand ~ 0.
    """
    if not np.isfinite(val) and np.isfinite(operand).all():
        return np.inf
    return float(np.sqrt(max(val, 0.0)))


def field_l2_norm(mass, coeffs) -> float:
    """Norm sqrt(c^T (M c)) of a nodal field c in the mass inner product.

    M may be dense or scipy.sparse; it enters through one product M @ c.
    """
    m = _as_mass(mass)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (m.shape[0],):
        raise DimensionMismatch(f"coefficients {c.shape} do not fit mass matrix {m.shape}")
    # overflow in huge fields is reported as inf, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(c @ (m @ c))
    return _root_of_square(val, c)


def tensor_l2_norm(mass, k) -> float:
    """Hilbert-Schmidt norm sqrt(trace(M K M K^T)) of a nodal tensor K.

    Evaluated as sum((M K) * (K M)), so a dense or scipy.sparse M enters
    through two products with K.  For K = u v^T this factors into the
    product of the field norms of u and v.
    """
    m = _as_mass(mass)
    kk = _as_square(k)
    if kk.shape != m.shape:
        raise DimensionMismatch(f"tensor {kk.shape} does not fit mass matrix {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(np.sum((m @ kk) * (kk @ m)))
    return _root_of_square(val, kk)
