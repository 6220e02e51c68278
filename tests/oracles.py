"""Independent numerical routines used as cross-checks in the tests.

Everything here is deliberately written from scratch with plain loops and
textbook algorithms, avoiding the library's own linear algebra and any
numpy.linalg decompositions, so that agreement between a library result and
an oracle result is evidence rather than tautology.  kle_full_eigh is the
one exception: it checks the library's Lanczos solve on the separable
product against a full dense scipy eigensolve of the same pencil.  one_mode_bundle
and expected_curvature_by_direction are the others: they call the library's
evaluate_at one direction at a time, so that a bundle's one weighted
second-order field can be checked direction by direction.
"""

from __future__ import annotations

import math

import numpy as np

from postpert.errors import DimensionMismatch
from postpert.fem import local_stiffness
from postpert.model_api import evaluate_at
from postpert.prior import CLUSTER_RTOL, MODE_PROBE_SEED, AffineExpansion, CoefficientLaw


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


def dense_mass(mesh):
    """P1 mass matrix as a dense N x N array, duplicates summed by np.add.at.

    Written out from the element matrix |T| (1 + delta_ij) / 12, in the
    triplet order of the library's assembly, so that a sparse assembly of
    the same triplets on a uniform mesh must match it bit for bit.
    """
    n = len(mesh.nodes)
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m = np.zeros((n, n))
    tri = mesh.triangles
    vals = mesh.areas[:, None, None] * local[None, :, :]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    np.add.at(m, (rows, cols), vals.ravel())
    return m


def assemble_weighted_stiffness(mesh, tri_coef):
    """Dense N x N stiffness matrix of a piecewise-constant coefficient.

    The per-triangle Laplace matrices are scattered with np.add.at, the
    dense reference for the library's banded assembly.
    """
    c = np.asarray(tri_coef, dtype=float)
    if c.shape != (mesh.n_triangles,):
        raise DimensionMismatch("one coefficient per triangle expected")
    n = mesh.n_nodes
    vals = c[:, None, None] * local_stiffness(mesh)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals.ravel())
    return a


def gaussian_kernel(gamma):
    """Covariance kernel k(x, y) = exp(-gamma |x - y|^2) between point sets.

    The kernel maps (n, d) and (m, d) point arrays to the (n, m) matrix of
    values.  It builds |x - y|^2 from one np.subtract.outer per coordinate,
    squared and summed in place, and exponentiates in place, so an (n, m)
    call holds two (n, m) arrays and no (n, m, d) one.
    """

    def kernel(x, y):
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        d2 = np.subtract.outer(x[:, 0], y[:, 0])
        d2 *= d2
        for axis in range(1, x.shape[1]):
            diff = np.subtract.outer(x[:, axis], y[:, axis])
            diff *= diff
            d2 += diff
        d2 *= -gamma
        return np.exp(d2, out=d2)

    return kernel


def broadcast_gaussian_kernel(gamma):
    """exp(-gamma |x - y|^2) through one (n, m, d) broadcast difference."""

    def kernel(x, y):
        x = np.atleast_2d(x)
        y = np.atleast_2d(y)
        d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-gamma * d2)

    return kernel


def kle_galerkin(kernel, mesh):
    """Dense centroid-rule Galerkin matrix P^T K P with a dense projection P."""
    p = np.zeros((mesh.n_triangles, mesh.n_nodes))
    rows = np.repeat(np.arange(mesh.n_triangles), 3)
    np.add.at(p, (rows, mesh.triangles.ravel()), np.repeat(mesh.areas / 3.0, 3))
    g = p.T @ kernel(mesh.centroids, mesh.centroids) @ p
    return 0.5 * (g + g.T)


def kle_full_eigh(kernel, mesh, tol):
    """Reference KLE: every eigenpair of the dense pencil, then the cluster rule.

    A full scipy.linalg.eigh of (kle_galerkin, dense_mass) replaces the
    library's Lanczos solve on the separable product.  The canonical basis is the
    one build_kle documents, written as plain loops: consecutive eigenvalues
    at most CLUSTER_RTOL * lambda_1 apart form a cluster, and each cluster
    V is replaced by V Q where Q comes from Gram-Schmidt on the columns of
    (W^T M V)^T, W the first c rows of the seeded probe.  Returns
    (eigenvalues, eigenfields) like KleBasis.
    """
    from scipy.linalg import eigh

    m = dense_mass(mesh)
    values, vectors = eigh(kle_galerkin(kernel, mesh), m)
    values, vectors = values[::-1], vectors[:, ::-1]
    keep = int(np.sum(values > tol * values[0]))
    values, vectors = values[:keep], vectors[:, :keep].copy()

    clusters = [[0]]
    for i in range(1, keep):
        if values[i - 1] - values[i] <= CLUSTER_RTOL * values[0]:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    width = max(len(c) for c in clusters)
    probe = np.random.default_rng(MODE_PROBE_SEED).standard_normal((width, mesh.n_nodes))
    for cluster in clusters:
        v = vectors[:, cluster]
        cols = (probe[: len(cluster)] @ m @ v).T
        q = np.zeros_like(cols)
        for j in range(len(cluster)):
            w = cols[:, j].copy()
            for i in range(j):
                w -= (q[:, i] @ cols[:, j]) * q[:, i]
            q[:, j] = w / math.sqrt(w @ w)
        vectors[:, cluster] = v @ q
    return values, vectors.T


def gradient_rhs_loop(mesh, b, directions, u):
    """First-derivative right-hand sides of the Darcy operator, one loop each.

    For every direction xi and triangle T with vertices p0, p1, p2 this adds
    -exp(bbar_T) xibar_T |T| grad(phi_i) . grad(phi_k) u_k to the row of each
    interior vertex i, where bars are vertex averages.  Areas and hat
    gradients are recomputed from the coordinates.  Returns (n_int, M) with
    rows in the order of the interior vertices.
    """
    interior = [i for i in range(len(mesh.nodes)) if not mesh.boundary_mask[i]]
    row_of = {node: r for r, node in enumerate(interior)}
    directions = np.atleast_2d(directions)
    rhs = np.zeros((len(interior), len(directions)))
    for tri in mesh.triangles:
        (x0, y0), (x1, y1), (x2, y2) = (mesh.nodes[v] for v in tri)
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        area = 0.5 * det
        # gradient of the hat at vertex k: rotated opposite edge over det
        grads = [
            ((y1 - y2) / det, (x2 - x1) / det),
            ((y2 - y0) / det, (x0 - x2) / det),
            ((y0 - y1) / det, (x1 - x0) / det),
        ]
        coef = math.exp((b[tri[0]] + b[tri[1]] + b[tri[2]]) / 3.0)
        for i in range(3):
            if tri[i] not in row_of:
                continue
            flux = sum(
                area * (grads[i][0] * grads[k][0] + grads[i][1] * grads[k][1]) * u[tri[k]]
                for k in range(3)
            )
            for j, xi in enumerate(directions):
                xibar = (xi[tri[0]] + xi[tri[1]] + xi[tri[2]]) / 3.0
                rhs[row_of[tri[i]], j] -= coef * xibar * flux
    return rhs


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


def tikhonov_gradient(y, model, expansion, meas):
    """Gradient of the regularized misfit in reference coefficients y.

    g_j = -<delta - Q(x(y)), dq_j at x(y)>_Sigma
          + (y_j - alpha E[z_j]) / (alpha^2 Var[z_j])

    with x(y) = x0 + sum_j mode_j y_j.  The refinement direction equals
    -alpha^2 Var[z_j] g_j, which the tests check by computing both sides
    independently; the data coupling here goes through gauss_solve.
    """
    y = np.asarray(y, dtype=float)
    variances = expansion.coefficient_variances()
    if np.any(variances <= 0.0):
        raise ValueError("the Tikhonov gradient needs strictly positive variances")
    alpha = expansion.alpha
    q, dq = model.linearize(expansion, expansion.point_from_shift(y))
    coupled = dq @ gauss_solve(meas.sigma.entries, meas.data - q)
    prior_pull = (y - alpha * expansion.coefficient_means()) / (alpha ** 2 * variances)
    return -coupled + prior_pull


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



def lv_variational_march(y1, y2, xi, direction, sweeps):
    """Derivative of lv_march's populations along one direction, by a plain-float loop.

    The same predictor and `sweeps` corrector sweeps are applied to the
    variational system about the base populations (y1, y2) on the path xi,

        v1' = (7.5 + xi - 0.075 y2) v1 - 0.075 y1 v2 + direction y1,
        v2' = 0.15 y2 v1 + (0.15 y1 - 7.5) v2,

    with every coefficient formed afresh at each evaluation.  Returns
    (v1, v2) at every grid index.
    """
    y1, y2, xi, d = ([float(v) for v in arr] for arr in (y1, y2, xi, direction))
    h = 1.0 / (len(xi) - 1)

    def rates(t, w1, w2):
        return (
            (7.5 + xi[t] - 0.075 * y2[t]) * w1 + (-0.075 * y1[t]) * w2 + d[t] * y1[t],
            (0.15 * y2[t]) * w1 + (0.15 * y1[t] - 7.5) * w2,
        )

    v1, v2 = [0.0], [0.0]
    for n in range(len(xi) - 1):
        p, q = v1[-1], v2[-1]
        f1, f2 = rates(n, p, q)
        a, b = p + h * f1, q + h * f2
        for _ in range(sweeps):
            f1, f2 = rates(n + 1, a, b)
            a, b = p + h * f1, q + h * f2
        v1.append(a)
        v2.append(b)
    return np.array(v1), np.array(v2)

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
    d2 = evals.d2r_expected
    weighted = gauss_solve(meas.sigma.entries, meas.data - evals.q0)
    coupling = [sum(evals.dq_modes[j, i] * weighted[i] for i in range(n_obs)) for j in range(n_modes)]

    m1 = np.zeros(z)
    half_d2 = np.zeros(z)  # E[D^2 R[z, z]] / 2
    coupled = np.zeros(z)  # sum_j Var[z_j] s_j dr_j
    for a in range(z):
        half_d2[a] = 0.5 * d2[a]
        for j, law in enumerate(laws):
            m1[a] += law.mean * dr[j, a]
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


def one_mode_bundle(model, reference, xi):
    """Derivative bundle at the reference of an expansion whose one mode is
    xi under a standard-normal law, so that its d2r_expected is D^2 R[xi, xi]."""
    expansion = AffineExpansion(
        x0=np.asarray(reference, dtype=float),
        modes=np.asarray(xi, dtype=float)[None],
        laws=(CoefficientLaw.standard_normal(),),
    )
    return evaluate_at(model, expansion)


def expected_curvature_by_direction(model, expansion, reference):
    """E[D^2 R[z, z]] at the reference, term by term from one-mode bundles:
    sum_j Var[z_j] D^2 R[mode_j, mode_j] + D^2 R[mu, mu] with
    mu = sum_j E[z_j] mode_j."""
    total = one_mode_bundle(model, reference, expansion.coefficient_means() @ expansion.modes).d2r_expected
    for law, mode in zip(expansion.laws, expansion.modes):
        total = total + law.variance * one_mode_bundle(model, reference, mode).d2r_expected
    return total
