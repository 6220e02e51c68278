"""Independent numerical routines used as cross-checks in the tests.

Everything here is deliberately written from scratch with plain loops and
textbook algorithms, avoiding the library's own linear algebra and any
numpy.linalg decompositions, so that agreement between a library result and
an oracle result is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np


def gauss_solve(a, b):
    """Solve a dense system by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or x.shape != (n,):
        raise ValueError("gauss_solve expects a square matrix and a vector")
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            raise ValueError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def cholesky_lower(a):
    """Plain-loop Cholesky factor of a symmetric positive definite matrix."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - low[i, :j] @ low[j, :j]
            if i == j:
                if acc <= 0.0:
                    raise ValueError("matrix is not positive definite")
                low[i, i] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


def jacobi_eigenvalues(a, sweeps=50, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, float(np.max(np.abs(np.diag(a))))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def generalized_eigenvalues(a, m):
    """Generalized symmetric eigenvalues a v = lam m v via explicit reduction.

    Reduces with the plain-loop Cholesky of m, then runs the Jacobi oracle on
    the transformed matrix; returns values sorted descending.
    """
    low = cholesky_lower(m)
    n = low.shape[0]
    # forward substitutions implement inv(L) a inv(L)^T without any solver
    work = np.array(a, dtype=float)
    for col in range(n):
        work[:, col] = _forward_sub(low, work[:, col])
    for row in range(n):
        work[row, :] = _forward_sub(low, work[row, :])
    work = 0.5 * (work + work.T)
    return jacobi_eigenvalues(work)


def _forward_sub(low, b):
    x = np.array(b, dtype=float)
    for i in range(low.shape[0]):
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x


def fourier_poisson_center(n_terms=100):
    """Center value of -laplace(u) = 1 on the unit square, zero boundary.

    Double sine series summed at (1/2, 1/2); even indices drop out and the
    odd ones alternate in sign.
    """
    total = 0.0
    for j in range(1, 2 * n_terms, 2):
        sj = 1.0 if (j % 4) == 1 else -1.0
        for k in range(1, 2 * n_terms, 2):
            sk = 1.0 if (k % 4) == 1 else -1.0
            total += 16.0 * sj * sk / (math.pi ** 4 * j * k * (j * j + k * k))
    return total


def observed_order(step_sizes, errors):
    """Least-squares slope of log(error) against log(step size)."""
    lx = np.log(np.asarray(step_sizes, dtype=float))
    ly = np.log(np.asarray(errors, dtype=float))
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(coef[0])


def conjugate_posterior_1d(q0, q1, prior_var, noise_var, delta):
    """Closed-form posterior of z ~ N(0, prior_var) under delta = q0 + q1 z + noise.

    Returns (mean, variance) of the exact Gaussian posterior.
    """
    gain = prior_var * q1 / (noise_var + q1 * q1 * prior_var)
    mean = gain * (delta - q0)
    var = prior_var * noise_var / (noise_var + q1 * q1 * prior_var)
    return mean, var


def predator_prey_invariant(y1, y2):
    """Conserved quantity of the unperturbed predator-prey flow."""
    return 0.15 * y1 - 7.5 * math.log(y1) + 0.075 * y2 - 7.5 * math.log(y2)


def lv_march(xi, sweeps, y_init=(20.0, 20.0)):
    """Predator-prey populations along one path, by a plain-float loop.

    Each step is an explicit Euler predictor followed by `sweeps`
    implicit-Euler fixed-point sweeps of

        y1' = (7.5 + xi) y1 - 0.075 y1 y2,    y2' = 0.15 y1 y2 - 7.5 y2,

    with the corrector's forcing taken at the step's end point.  Returns
    (y1, y2, collapse): the populations at every grid index the path reaches
    while both stay positive, and the number of the step that first leaves
    the positive quadrant (None if no step does).
    """
    xi = [float(v) for v in xi]
    h = 1.0 / (len(xi) - 1)
    y1, y2 = [float(y_init[0])], [float(y_init[1])]
    for n in range(len(xi) - 1):
        p, q = y1[-1], y2[-1]
        a = p + h * ((7.5 + xi[n]) * p - 0.075 * p * q)
        b = q + h * (0.15 * p * q - 7.5 * q)
        for _ in range(sweeps):
            a, b = (
                p + h * ((7.5 + xi[n + 1]) * a - 0.075 * a * b),
                q + h * (0.15 * a * b - 7.5 * b),
            )
        if a <= 0.0 or b <= 0.0:
            return np.array(y1), np.array(y2), n + 1
        y1.append(a)
        y2.append(b)
    return np.array(y1), np.array(y2), None


def _back_sub(upper, b):
    x = np.array(b, dtype=float)
    for i in range(upper.shape[0] - 1, -1, -1):
        x[i] = (x[i] - upper[i, i + 1 :] @ x[i + 1 :]) / upper[i, i]
    return x


def laplace_importance_mean(model, expansion, meas, evals, n_pairs, seed=0):
    """Posterior mean of the prediction by importance sampling from a Laplace proposal.

    For standard-normal coefficient laws the proposal is N(z*, H^-1) with the
    Gauss-Newton Hessian H = I + alpha^2 J Sigma^-1 J^T and the mode
    z* = H^-1 alpha J Sigma^-1 (delta - q0) of the posterior linearized at the
    bundle's reference (J = evals.dq_modes).  Draws come in antithetic pairs
    z* +- L^-T eps with H = L L^T, and each carries the exact weight
    prior x likelihood / proposal, so the self-normalized ratio is consistent
    whatever the proposal; the proposal only sets its variance.

    Returns (mean, half_mean, ess_fraction): the estimate from all pairs, the
    estimate from the first half of them (their distance is a noise gauge),
    and the effective sample size of the weights as a fraction of the draws.
    """
    if any(law.kind != "standard-normal" for law in expansion.laws):
        raise ValueError("the Laplace proposal is built for standard-normal laws")
    if not np.array_equal(evals.reference, expansion.x0):
        raise ValueError("the derivative bundle must be taken at the expansion's x0")
    alpha = expansion.alpha
    jac = np.asarray(evals.dq_modes, dtype=float)
    m, k = jac.shape
    sigma = meas.sigma.entries
    sigma_inv = np.column_stack([gauss_solve(sigma, e) for e in np.eye(k)])
    hess = np.eye(m) + alpha ** 2 * jac @ sigma_inv @ jac.T
    low = cholesky_lower(hess)
    center = _back_sub(low.T, _forward_sub(low, alpha * jac @ sigma_inv @ (meas.data - evals.q0)))
    spread = np.column_stack([_back_sub(low.T, e) for e in np.eye(m)])  # L^-T

    rng = np.random.default_rng(seed)
    half_pairs = n_pairs // 2
    chunks = []  # (log-shift, weight sum, weighted prediction sum, in first half)
    logws = []
    for first, count in ((True, half_pairs), (False, n_pairs - half_pairs)):
        done = 0
        while done < count:
            npairs = min(1024, count - done)
            eps = rng.standard_normal((npairs, m))
            step = eps @ spread.T
            z = np.concatenate([center + step, center - step])
            states = model.solve_state_batch(expansion.realize_batch(z))
            resid = meas.data - model.observe_state_batch(states)
            logw = (
                -0.5 * np.sum(z * z, axis=1)
                - 0.5 * np.einsum("bi,ij,bj->b", resid, sigma_inv, resid)
                + 0.5 * np.concatenate([np.sum(eps * eps, axis=1)] * 2)
            )
            shift = float(logw.max())
            w = np.exp(logw - shift)
            chunks.append((shift, float(w.sum()), w @ model.predict_state_batch(states), first))
            logws.append(logw)
            done += npairs

    def ratio(parts):
        top = max(p[0] for p in parts)
        wsum = sum(math.exp(p[0] - top) * p[1] for p in parts)
        return sum(math.exp(p[0] - top) * p[2] for p in parts) / wsum

    logw = np.concatenate(logws)
    w = np.exp(logw - logw.max())
    ess_fraction = float(w.sum() ** 2 / (w.size * np.sum(w * w)))
    return ratio(chunks), ratio([c for c in chunks if c[3]]), ess_fraction


def expansion_moments(evals, meas, laws, alpha):
    """Expanded posterior (mean, correlation, covariance), term by term.

    Evaluates the formulas of the postpert.expansion module docstring with
    plain loops over modes and entries, writing the correlation's cross term
    u = alpha m1 + alpha^2 m2 out as its separate terms.  The data coupling
    <delta - q0, dq_j>_Sigma goes through gauss_solve.
    """
    n_modes, n_obs = np.shape(evals.dq_modes)
    z = len(evals.r0)
    r0, dr = evals.r0, evals.dr_modes
    d2 = np.zeros((n_modes, z)) if evals.d2r_diag is None else evals.d2r_diag
    d2m = np.zeros(z) if evals.d2r_meandir is None else evals.d2r_meandir
    weighted = gauss_solve(meas.sigma.entries, meas.data - evals.q0)
    coupling = [sum(evals.dq_modes[j, i] * weighted[i] for i in range(n_obs)) for j in range(n_modes)]

    m1 = np.zeros(z)
    half_d2 = np.zeros(z)  # (sum_j Var[z_j] d2r_j + d2r_mean) / 2
    coupled = np.zeros(z)  # sum_j Var[z_j] s_j dr_j
    for a in range(z):
        half_d2[a] = 0.5 * d2m[a]
        for j, law in enumerate(laws):
            m1[a] += law.mean * dr[j, a]
            half_d2[a] += 0.5 * law.variance * d2[j, a]
            coupled[a] += law.variance * coupling[j] * dr[j, a]

    mean = np.zeros(z)
    corr = np.zeros((z, z))
    cov = np.zeros((z, z))
    for a in range(z):
        mean[a] = r0[a] + alpha * m1[a] + alpha ** 2 * (half_d2[a] + coupled[a])
        for b in range(z):
            for j, law in enumerate(laws):
                cov[a, b] += alpha ** 2 * law.variance * dr[j, a] * dr[j, b]
            corr[a, b] = (
                r0[a] * r0[b]
                + alpha * (m1[a] * r0[b] + r0[a] * m1[b])
                + alpha ** 2 * (half_d2[a] * r0[b] + r0[a] * half_d2[b])
                + alpha ** 2 * (coupled[a] * r0[b] + r0[a] * coupled[b])
                + alpha ** 2 * m1[a] * m1[b]
                + cov[a, b]
            )
    return mean, corr, cov
