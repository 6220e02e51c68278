"""Acceptance gate: eight end-to-end checks, one test per criterion.

Every test is self-contained and ordered by criterion number; run with -v
to get the single pass/fail line per criterion.  Budgets are desk-scale,
so the whole module needs a few minutes, dominated by criterion 3's
low-discrepancy reference sweeps; criterion 4's importance-sampled
reference takes about 20 seconds.
"""

import math
import time

import numpy as np
import pytest

from postpert.cli import main
from postpert.darcy import (
    STUDY_OBSERVATIONS,
    DarcyModel,
    DarcyProblem,
    build_darcy,
    darcy_noise_covariance,
)
from postpert.errors import Diverged
from postpert.estimators import SampleBudget, estimate_posterior_sweep, tensor_grid_oracle
from postpert.expansion import expand_posterior_moments
from postpert.fem import build_unit_square_mesh
from postpert.lv import (
    OBSERVED_DATA,
    build_lotka_volterra,
    integrate,
    lv_noise_covariance,
)
from postpert.model_api import MeasurementSetup, evaluate_at
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.refine import RefineState, refine_step, run_refinement, tikhonov_gradient
from postpert.toy import ConjugateGaussianModel, PolynomialToyModel

from oracles import (
    conjugate_posterior_1d,
    fourier_poisson_center,
    laplace_importance_mean,
    observed_order,
    predator_prey_invariant,
)

QUANTITIES = ("mean", "correlation", "covariance")


def _moment_error(model, quantity, got, ref):
    if quantity == "mean":
        return model.field_error_norm(got.mean - ref.mean)
    return model.tensor_error_norm(getattr(got, quantity) - getattr(ref, quantity))


def test_criterion_1_conjugate_gaussian_oracle():
    """Expansion mean within the quartic bound; quadrature matches closed form."""
    q0, q1, delta, noise_sd = 0.2, 1.5, 0.9, 0.5
    model = ConjugateGaussianModel(q0, q1, noise_sd ** 2)
    meas = MeasurementSetup(data=np.array([delta]), sigma=model.noise_covariance())
    expansion = AffineExpansion(
        x0=np.zeros(1), modes=np.ones((1, 1)), laws=(CoefficientLaw.standard_normal(),)
    )
    evals = evaluate_at(model, expansion)
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        s = math.sqrt(s2)
        exact_mean, _ = conjugate_posterior_1d(q0, q1, s2, noise_sd ** 2, delta)
        got = expand_posterior_moments(evals, meas, expansion.laws, s)
        bound = 2.0 * s2 ** 2 * abs(q1) ** 3 * abs(delta - q0) / noise_sd ** 4
        assert abs(got.mean[0] - exact_mean) <= bound, f"s^2={s2}"
        quad = tensor_grid_oracle(model, expansion.with_alpha(s), meas, 40)
        assert abs(quad.mean[0] - exact_mean) <= 1e-10, f"s^2={s2}"


def test_criterion_2_toy_expansion_orders():
    """Log-log slopes vs the tensor-grid oracle on the two-mode cubic model."""
    alphas = [2.0 ** -k for k in range(2, 7)]
    configs = (
        ((CoefficientLaw.uniform_shifted(1.0, 0.3), CoefficientLaw.uniform_shifted(1.0, -0.2)), 2.7),
        ((CoefficientLaw.uniform_symmetric(1.0), CoefficientLaw.uniform_symmetric(1.0)), 3.7),
    )
    for laws, min_slope in configs:
        model = PolynomialToyModel()
        expansion = AffineExpansion(
            x0=np.array([0.2, -0.1]), modes=np.array([[1.0, 0.3], [-0.2, 0.8]]), laws=laws
        )
        meas = MeasurementSetup(data=np.array([0.25, -0.05]), sigma=model.noise_covariance())
        evals = evaluate_at(model, expansion)
        errors = {q: [] for q in QUANTITIES}
        for alpha in alphas:
            ref = tensor_grid_oracle(model, expansion.with_alpha(alpha), meas, 48)
            got = expand_posterior_moments(evals, meas, expansion.laws, alpha)
            for q in QUANTITIES:
                errors[q].append(_moment_error(model, q, got, ref))
        for q in QUANTITIES:
            slope = observed_order(alphas, errors[q])
            assert slope >= min_slope, (
                f"{q} slope {slope:.3f} < {min_slope} "
                f"({'centered' if min_slope > 3 else 'uncentered'} laws)"
            )


def test_criterion_3_darcy_convergence_orders():
    """Expansion vs 1e5-point low-discrepancy reference at mesh level 4."""
    start = time.perf_counter()
    meas = MeasurementSetup(data=STUDY_OBSERVATIONS, sigma=darcy_noise_covariance())
    alphas = [2.0 ** -k for k in range(3, 8)]
    budget = SampleBudget("halton", 100_000)
    for centered, min_slope in ((False, 2.7), (True, 3.7)):
        model_r1, expansion = build_darcy(4, kle_tol=1e-3, centered=centered, prediction="r1")
        model_r2, _ = build_darcy(4, kle_tol=1e-3, centered=centered, prediction="r2")
        models = (model_r1, model_r2)
        evals = [evaluate_at(m, expansion) for m in models]
        errors = {(m.prediction, q): [] for m in models for q in QUANTITIES}
        noise = {key: [] for key in errors}
        for alpha in alphas:
            grid, half = estimate_posterior_sweep(
                list(models), expansion.with_alpha(alpha), [meas], budget, half_split=True
            )
            for i, model in enumerate(models):
                got = expand_posterior_moments(evals[i], meas, expansion.laws, alpha)
                for q in QUANTITIES:
                    errors[(model.prediction, q)].append(_moment_error(model, q, got, grid[i][0]))
                    noise[(model.prediction, q)].append(
                        _moment_error(model, q, grid[i][0], half[i][0])
                    )
        for key, errs in errors.items():
            errs = np.asarray(errs)
            keep = errs >= 10.0 * np.asarray(noise[key])
            assert keep.sum() >= 2, f"{key}: reference too noisy to fit a slope"
            slope = observed_order(np.asarray(alphas)[keep], errs[keep])
            assert slope >= min_slope, (
                f"{'centered' if centered else 'uncentered'} {key}: "
                f"slope {slope:.3f} < {min_slope}, kept {keep.astype(int).tolist()}"
            )
    assert time.perf_counter() - start <= 1800.0


def test_criterion_4_lv_convergence_orders():
    """Centered mean-error slopes per noise scale, monotone across scales.

    The window 2^-4 .. 2^-7 sits where the quartic rate is asymptotic; each
    point is measured against a Laplace importance-sampled reference whose
    half-split noise must stay a tenth of the error it resolves.
    """
    start = time.perf_counter()
    sigmas = (5.0, 10.0, 20.0)
    alphas = [2.0 ** -k for k in range(4, 8)]
    labels = [f"alpha=2^{math.log2(a):g}" for a in alphas]
    model, expansion = build_lotka_volterra(n_modes=100)
    evals = evaluate_at(model, expansion)
    errors = np.empty((len(sigmas), len(alphas)))
    noise = np.empty_like(errors)
    ess = np.empty_like(errors)
    for j, alpha in enumerate(alphas):
        scaled = expansion.with_alpha(alpha)
        for i, s in enumerate(sigmas):
            meas = MeasurementSetup(data=OBSERVED_DATA, sigma=lv_noise_covariance(s))
            mean, half_mean, ess[i, j] = laplace_importance_mean(
                model, scaled, meas, evals, 5000, seed=0
            )
            got = expand_posterior_moments(evals, meas, expansion.laws, alpha)
            errors[i, j] = model.field_error_norm(got.mean - mean)
            noise[i, j] = model.field_error_norm(mean - half_mean)
    unresolved = [
        f"sigma={s:g}, {labels[j]}: error {errors[i, j]:.3e}, noise {noise[i, j]:.3e}, "
        f"ess fraction {ess[i, j]:.4f}"
        for i, s in enumerate(sigmas)
        for j in range(len(alphas))
        if not errors[i, j] >= 10.0 * noise[i, j]
    ]
    assert not unresolved, "reference too noisy to resolve the error: " + "; ".join(unresolved)
    # larger noise flattens the posterior, shrinking the error at every alpha
    for j in range(len(alphas)):
        column = errors[:, j]
        assert np.all(np.diff(column) < 0.0), f"{labels[j]}: errors {column}"
    slopes = [observed_order(alphas, errors[i]) for i in range(len(sigmas))]
    low = [f"sigma={s:g}: slope {v:.4f}" for s, v in zip(sigmas, slopes) if v < 3.5]
    assert not low, "mean-error slope below 3.5 for " + "; ".join(low) + (
        f"; all slopes {[round(v, 4) for v in slopes]}"
    )
    assert time.perf_counter() - start <= 1200.0


def test_criterion_5_darcy_refinement():
    """Divergence at large scales, monotone contraction and cubic-rate final
    errors at mid scales, and the preconditioned-gradient identity at every
    recorded iterate."""
    model, expansion = build_darcy(3, kle_tol=1e-3, centered=True, prediction="r1")
    meas = MeasurementSetup(data=STUDY_OBSERVATIONS, sigma=darcy_noise_covariance())
    histories = {}

    for alpha in (1.0, 0.5):
        with pytest.raises(Diverged) as info:
            run_refinement(model, expansion.with_alpha(alpha), meas)
        histories[alpha] = list(info.value.state.update_history)
        assert histories[alpha], f"alpha={alpha}: no iterates recorded before the flag"

    mid_alphas = (0.25, 0.125, 0.0625)
    final_errors = []
    budget = SampleBudget("halton", 50_000)
    for alpha in mid_alphas + (2.0 ** -5,):
        refined, state = run_refinement(model, expansion.with_alpha(alpha), meas)
        histories[alpha] = list(state.update_history)
        tail = state.update_history[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:])), (
            f"alpha={alpha}: update norms not monotone after iteration 5: {tail}"
        )
        if alpha in mid_alphas:
            means = estimate_posterior_sweep(
                [model], expansion.with_alpha(alpha), [meas], budget, second_moment=False
            )
            final_errors.append(model.field_error_norm(refined - means[0][0]))
    slope = observed_order(mid_alphas, final_errors)
    assert slope >= 2.7, f"final-error slope {slope:.3f} < 2.7 over {mid_alphas}"

    # replay each run and compare the step against the scaled gradient
    for alpha, history in histories.items():
        scaled = expansion.with_alpha(alpha)
        variances = scaled.coefficient_variances()
        state = RefineState.initial(scaled.n_modes)
        for _ in range(len(history)):
            grad = tikhonov_gradient(state.y, model, scaled, meas)
            stepped = refine_step(state, model, scaled, meas)
            d = stepped.y - state.y
            gap = np.linalg.norm(d + scaled.alpha ** 2 * variances * grad)
            assert gap <= 1e-10 * (1.0 + np.linalg.norm(d)), f"alpha={alpha}"
            state = stepped


def _along_directions(model, reference, directions):
    """Derivative bundle at the reference of an expansion whose modes are the
    given directions, through the ForwardModel interface the expansion uses."""
    laws = tuple(CoefficientLaw.standard_normal() for _ in directions)
    expansion = AffineExpansion(x0=reference, modes=np.array(directions), laws=laws)
    return evaluate_at(model, expansion)


def test_criterion_6_derivative_orders():
    """Finite-difference convergence of every derivative the expansion uses,
    ten random directions each."""
    rng = np.random.default_rng(12)
    model = DarcyModel(DarcyProblem(build_unit_square_mesh(2)), "r2")
    b = 0.2 * rng.normal(size=model.parameter_dim)
    directions = [rng.normal(size=model.parameter_dim) for _ in range(10)]
    ev = _along_directions(model, b, directions)
    first_steps = (1e-2, 5e-3, 2.5e-3)
    second_steps = (4e-2, 2e-2, 1e-2)
    for trial, xi in enumerate(directions):
        errs = []
        for h in first_steps:
            fd = (model.predict(b + h * xi) - model.predict(b - h * xi)) / (2 * h)
            errs.append(np.linalg.norm(fd - ev.dr_modes[trial]))
        order = observed_order(first_steps, errs)
        assert order >= 1.9, f"first derivative, direction {trial}: order {order:.3f}"

        errs = []
        for h in second_steps:
            fd = (model.predict(b + h * xi) - 2.0 * ev.r0 + model.predict(b - h * xi)) / (h * h)
            errs.append(np.linalg.norm(fd - ev.d2r_diag[trial]))
        order = observed_order(second_steps, errs)
        assert order >= 1.9, f"second derivative, direction {trial}: order {order:.3f}"

    model, expansion = build_lotka_volterra(n_modes=8, n_steps=1000)
    directions = [rng.normal(size=model.parameter_dim) for _ in range(10)]
    ev = _along_directions(model, expansion.x0, directions)
    path_steps = (2e-2, 1e-2, 5e-3)
    for trial, direction in enumerate(directions):
        errs = []
        for h in path_steps:
            fd = (
                model.observe(expansion.x0 + h * direction)
                - model.observe(expansion.x0 - h * direction)
            ) / (2 * h)
            errs.append(np.abs(fd - ev.dq_modes[trial]).max())
        order = observed_order(path_steps, errs)
        assert order >= 1.9, f"variational, direction {trial}: order {order:.3f}"


def test_criterion_7_physics_oracles():
    """Independent closed forms: series value of the flat-coefficient pressure,
    the coexistence equilibrium, and the conserved quantity's drift rate."""
    mesh = build_unit_square_mesh(5)
    center = DarcyModel(DarcyProblem(mesh)).observe(np.zeros(mesh.n_nodes))[0]
    series = fourier_poisson_center(100)
    assert abs(series - 0.07367) <= 1e-5
    assert abs(center - series) <= 2e-3

    traj = integrate(np.zeros(1001), y_init=(50.0, 100.0))
    dev = max(np.abs(traj.y1 - 50.0).max(), np.abs(traj.y2 - 100.0).max())
    assert dev <= 1e-10

    def drift(n_steps):
        t = integrate(np.zeros(n_steps + 1))
        v0 = predator_prey_invariant(t.y1[0], t.y2[0])
        return max(
            abs(predator_prey_invariant(a, b) - v0) for a, b in zip(t.y1, t.y2)
        )

    drifts = [drift(n) for n in (400, 800, 1600)]
    assert drifts[0] / drifts[1] >= 1.6, f"drifts {drifts}"
    assert drifts[1] / drifts[2] >= 1.6, f"drifts {drifts}"


def test_criterion_8_cli_byte_determinism(tmp_path):
    """Each study subcommand writes identical bytes across 1 and 8 threads."""
    studies = {
        "converge-darcy": [
            "converge", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25,0.125", "--reference", "qmc", "--samples", "800",
            "--seed", "3",
        ],
        "converge-lv": [
            "converge", "--model", "lotka-volterra", "--quantity", "mean,covariance",
            "--alphas", "0.25,0.125", "--reference", "mc", "--samples", "300",
            "--seed", "3",
        ],
        "refine-darcy": [
            "refine", "--model", "darcy", "--mesh-level", "2", "--kle-tol", "0.01",
            "--alphas", "0.25,0.125", "--iterations", "40", "--reference", "qmc",
            "--samples", "400", "--seed", "3",
        ],
        "generate-data": [
            "generate-data", "--model", "darcy", "--mesh-level", "2",
            "--kle-tol", "0.01", "--seed", "5",
        ],
        "kle-dump": ["kle-dump", "--mesh-level", "2", "--kle-tol", "0.01"],
    }
    for name, args in studies.items():
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{name}-t{threads}.csv"
            code = main(args + ["--threads", threads, "--output", str(out)])
            assert code == 0, f"{name} failed with {threads} threads"
            blob = out.read_bytes()
            final = out.with_name(out.stem + "-final.csv")
            if final.exists():
                blob += final.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"{name}: bytes differ across thread counts"
