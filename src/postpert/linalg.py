"""Dense symmetric linear algebra used throughout the package.

Conventions:
  - an SpdMatrix wraps the dense entries of a symmetric positive definite
    matrix together with a lazily computed Cholesky factor,
  - weighted inner products <u, v>_S = u^T S^{-1} v are always evaluated
    through the Cholesky factor, never through an explicit inverse,
  - generalized symmetric eigenproblems a v = lambda m v are reduced with
    the Cholesky factor of m and handed to a dense symmetric eigensolver.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ConvergenceFailure, DimensionMismatch, EmptyBasis, NotSpd, SolverFailure

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


def field_l2_norm(m: SpdMatrix, coeffs) -> float:
    """Norm sqrt(c^T M c) of a nodal field c in the mass inner product."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (m.n,):
        raise DimensionMismatch(f"coefficients {c.shape} do not fit mass matrix {m.n}")
    # overflow in huge fields is reported as inf, not as a warning
    with np.errstate(over="ignore"):
        val = float(c @ m.entries @ c)
    # roundoff can leave a tiny negative value for c ~ 0
    return float(np.sqrt(max(val, 0.0)))


def tensor_l2_norm(m: SpdMatrix, k) -> float:
    """Hilbert-Schmidt norm sqrt(trace(M K M K^T)) of a nodal tensor K.

    For K = u v^T this factors into the product of the field norms of u and v.
    """
    kk = _as_square(k)
    if kk.shape[0] != m.n:
        raise DimensionMismatch(f"tensor {kk.shape} does not fit mass matrix {m.n}")
    with np.errstate(over="ignore"):
        mk = m.entries @ kk
        km = kk @ m.entries
        val = float(np.sum(mk * km))
    return float(np.sqrt(max(val, 0.0)))


def generalized_sym_eig(
    a, m: SpdMatrix, count_or_tol=None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve a v = lambda m v for a symmetric and m SPD.

    The problem is reduced to standard form with the Cholesky factor of m
    and solved densely.  Returns (values, vectors) like np.linalg.eigh, but
    with values non-increasing; vectors[:, k] belongs to values[k] and the
    vectors are m-orthonormal.

    count_or_tol selects the truncation rule:
      - None: keep everything,
      - int k: keep the k largest eigenvalues,
      - float tol: keep eigenvalues with lambda_i > tol * lambda_1.
    """
    a = _as_square(a)
    if a.shape[0] != m.n:
        raise DimensionMismatch(f"operand {a.shape} does not match weight {m.n}")
    _check_symmetric(a, "left-hand operand")

    L = m.factor
    half = solve_triangular(L, a, lower=True)
    b = solve_triangular(L, half.T, lower=True)
    b = 0.5 * (b + b.T)
    try:
        values, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    order = np.argsort(values)[::-1]
    values = values[order]
    vecs = vecs[:, order]

    if count_or_tol is None:
        keep = values.size
    elif isinstance(count_or_tol, (int, np.integer)):
        if count_or_tol < 1:
            raise DimensionMismatch("requested mode count must be >= 1")
        keep = min(int(count_or_tol), values.size)
    else:
        tol = float(count_or_tol)
        if tol <= 0.0:
            raise DimensionMismatch("relative truncation tolerance must be > 0")
        lead = values[0] if values.size else 0.0
        if lead <= 0.0:
            raise EmptyBasis("leading eigenvalue is not positive")
        keep = int(np.sum(values > tol * lead))
        if keep == 0:
            raise EmptyBasis("no eigenvalue passed the truncation threshold")

    vectors = solve_triangular(L.T, vecs[:, :keep], lower=False)
    return values[:keep], vectors
