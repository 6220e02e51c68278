import itertools

import numpy as np
import pytest

from postpert.errors import CostGuard, DegenerateWeights, DimensionMismatch
from postpert.estimators import (
    SampleBudget,
    _sample_stream,
    estimate_posterior,
    estimate_posterior_sweep,
    first_primes,
    tensor_grid_oracle,
)
from postpert.linalg import SpdMatrix
from postpert.model_api import ForwardModel, MeasurementSetup, evaluate_at
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.toy import ConjugateGaussianModel, PolynomialToyModel

from oracles import conjugate_posterior_1d, laplace_importance_mean

TOY_DATA = np.array([0.25, -0.05])


def _toy_setup(alpha, normal=False):
    model = PolynomialToyModel()
    if normal:
        laws = (CoefficientLaw.standard_normal(), CoefficientLaw.standard_normal())
    else:
        laws = (
            CoefficientLaw.uniform_shifted(1.0, 0.3),
            CoefficientLaw.uniform_shifted(1.0, -0.2),
        )
    expansion = AffineExpansion(
        x0=np.array([0.2, -0.1]),
        modes=np.array([[1.0, 0.3], [-0.2, 0.8]]),
        laws=laws,
        alpha=alpha,
    )
    meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
    return model, expansion, meas


class TestSampleBudget:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            SampleBudget("bootstrap", 10)
        with pytest.raises(DimensionMismatch):
            SampleBudget("halton", 1)
        with pytest.raises(DimensionMismatch, match="seed"):
            SampleBudget("antithetic-mc", 10, seed=-1)


def _halton_units(count, dim):
    """Halton points 1..count of the stream, mapped back from [-1, 1) to [0, 1)."""
    expansion = AffineExpansion(
        x0=np.zeros(dim),
        modes=np.eye(dim),
        laws=tuple(CoefficientLaw.uniform_symmetric(1.0) for _ in range(dim)),
    )
    blocks = list(_sample_stream(expansion, SampleBudget("halton", count)))
    assert all(logw == 0.0 for _, logw in blocks)
    return (np.vstack([native for native, _ in blocks]) + 1.0) / 2.0


class TestHaltonPoints:
    def test_radical_inverse_values(self):
        u = _halton_units(3, 2)
        assert u[0, 0] == pytest.approx(0.5)
        assert u[2, 0] == pytest.approx(0.75)
        assert u[1, 1] == pytest.approx(2.0 / 3.0)

    def test_first_primes(self):
        assert first_primes(6).tolist() == [2, 3, 5, 7, 11, 13]

    def test_points_fill_unit_cube(self):
        pts = _halton_units(199, 3)
        assert pts.shape == (199, 3)
        assert pts.min() >= 0.0 and pts.max() < 1.0
        assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.02


class TestRatioEstimator:
    def test_tiny_alpha_collapses_to_reference(self):
        model, expansion, meas = _toy_setup(alpha=1e-8)
        est = estimate_posterior(model, expansion, meas, SampleBudget("halton", 256))
        assert np.allclose(est.mean, model.predict(expansion.x0), atol=1e-7)
        assert np.linalg.norm(est.covariance) < 1e-14

    def test_flat_likelihood_antithetic_mean_is_exact(self):
        """With weights identically 1 the linear prediction averages exactly."""
        model = ConjugateGaussianModel(0.0, 1.0, noise_var=1e160)
        expansion = AffineExpansion(
            x0=np.array([0.7]),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=0.5,
        )
        meas = MeasurementSetup(data=np.array([0.3]), sigma=model.noise_covariance())
        est = estimate_posterior(
            model, expansion, meas, SampleBudget("antithetic-mc", 17, seed=5)
        )
        assert est.mean[0] == pytest.approx(0.7, abs=1e-14)

    def test_halton_against_tensor_grid(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        qmc = estimate_posterior(model, expansion, meas, SampleBudget("halton", 2 ** 16))
        oracle = tensor_grid_oracle(model, expansion, meas, 48)
        for name in ("mean", "correlation", "covariance"):
            a, b = getattr(qmc, name), getattr(oracle, name)
            assert np.linalg.norm(a - b) <= 1e-4 * np.linalg.norm(b)

    def test_antithetic_seed_determinism(self):
        model = ConjugateGaussianModel(0.0, 1.0, 0.5)
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=0.3,
        )
        meas = MeasurementSetup(data=np.array([0.2]), sigma=model.noise_covariance())
        budget = SampleBudget("antithetic-mc", 500, seed=9)
        a = estimate_posterior(model, expansion, meas, budget)
        b = estimate_posterior(model, expansion, meas, budget)
        c = estimate_posterior(
            model, expansion, meas, SampleBudget("antithetic-mc", 500, seed=10)
        )
        assert np.array_equal(a.mean, b.mean)
        assert not np.array_equal(a.mean, c.mean)

    def test_halton_requires_uniform_laws(self):
        model = ConjugateGaussianModel(0.0, 1.0, 0.5)
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
        )
        meas = MeasurementSetup(data=np.array([0.2]), sigma=model.noise_covariance())
        with pytest.raises(DimensionMismatch):
            estimate_posterior(model, expansion, meas, SampleBudget("halton", 16))

    def test_degenerate_weights_reported(self):
        model, expansion, _ = _toy_setup(alpha=0.25)
        absurd = MeasurementSetup(
            data=np.full(2, 1e200), sigma=model.noise_covariance()
        )
        with pytest.raises(DegenerateWeights):
            estimate_posterior(model, expansion, absurd, SampleBudget("halton", 16))


class TestSweep:
    def test_models_share_solves(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        other = PolynomialToyModel()
        before = model.solve_count
        estimate_posterior_sweep(
            [model, other], expansion, [meas], SampleBudget("halton", 300)
        )
        assert model.solve_count - before == 300
        assert other.solve_count == 0

    def test_multiple_measurements_reuse_solves(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        inflated = MeasurementSetup(
            data=meas.data, sigma=SpdMatrix(4.0 * meas.sigma.entries)
        )
        before = model.solve_count
        grid = estimate_posterior_sweep(
            [model], expansion, [meas, inflated], SampleBudget("halton", 300)
        )
        assert model.solve_count - before == 300
        assert not np.allclose(grid[0][0].mean, grid[0][1].mean)

    def test_half_split_equals_direct_half_run(self):
        """The half estimate is the run over the first half of the budget, for
        every first half that ends inside a block or on a block boundary."""
        cases = [
            # Halton halves end inside block 1, on the block 1/2 boundary and
            # inside block 2; antithetic halves inside block 1, on the block 2/3
            # boundary and inside block 3 (blocks hold 4096 rows).
            ("halton", 999),
            ("halton", 8192),
            ("halton", 9000),
            ("antithetic-mc", 999),
            ("antithetic-mc", 8192),
            ("antithetic-mc", 9000),
        ]
        for (kind, count), second_moment in itertools.product(cases, (True, False)):
            case = f"{kind} {count} second_moment={second_moment}"
            model, expansion, meas = _toy_setup(alpha=0.25, normal=kind == "antithetic-mc")

            def run(n, **split):
                return estimate_posterior_sweep(
                    [model], expansion, [meas], SampleBudget(kind, n, seed=4),
                    second_moment=second_moment, **split,
                )

            full, half = run(count, half_split=True)
            pairs = [(half, run((count + 1) // 2)), (full, run(count))]
            for got, want in pairs:
                if second_moment:
                    for name in ("mean", "correlation", "covariance"):
                        assert np.array_equal(
                            getattr(got[0][0], name), getattr(want[0][0], name)
                        ), case
                else:
                    assert np.array_equal(got[0][0], want[0][0]), case

    def test_tensor_grid_sweep_equals_per_study_oracles(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        models = [model, _StatePredictionToy()]
        inflated = MeasurementSetup(
            data=meas.data, sigma=SpdMatrix(4.0 * meas.sigma.entries)
        )
        budget = SampleBudget("tensor-grid", 24)
        grid, half = estimate_posterior_sweep(
            models, expansion, [meas, inflated], budget, half_split=True
        )
        assert half == [[None, None], [None, None]]
        for i, m in enumerate(models):
            for j, setup in enumerate((meas, inflated)):
                want = tensor_grid_oracle(m, expansion, setup, 24)
                for name in ("mean", "correlation", "covariance"):
                    assert np.array_equal(getattr(grid[i][j], name), getattr(want, name))
        assert not np.allclose(grid[0][0].mean, grid[1][0].mean)
        assert not np.allclose(grid[0][0].mean, grid[0][1].mean)

    def test_mean_only_mode(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        grid = estimate_posterior_sweep(
            [model], expansion, [meas], SampleBudget("halton", 200),
            second_moment=False,
        )
        assert isinstance(grid[0][0], np.ndarray)
        assert grid[0][0].shape == (2,)


class _StatePredictionToy(PolynomialToyModel):
    """The polynomial toy's solve and observation maps, predicting the parameter."""

    def predict_state_batch(self, states):
        return np.array(states, dtype=float)


class _CubicModel(ForwardModel):
    """Scalar prediction x^3 with a constant observation, for Gauss exactness."""

    @property
    def parameter_dim(self):
        return 1

    @property
    def observation_dim(self):
        return 1

    @property
    def prediction_dim(self):
        return 1

    def solve_state_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        self.solve_count += len(xs)
        return xs

    def observe_state_batch(self, states):
        return np.zeros((len(states), 1))

    def predict_state_batch(self, states):
        return states ** 3

    def noise_covariance(self):
        return SpdMatrix(np.eye(1))


class _NanFirstObservation(_CubicModel):
    """The cubic model whose very first sample observes NaN."""

    def __init__(self):
        super().__init__()
        self._observed = 0

    def observe_state_batch(self, states):
        q = super().observe_state_batch(states)
        if self._observed == 0:
            q[0] = np.nan
        self._observed += len(states)
        return q


class TestNonFiniteWeights:
    @pytest.mark.parametrize("kind, count", [("halton", 5000), ("tensor-grid", 8)])
    def test_nan_in_first_sample_is_reported(self, kind, count):
        """A NaN log-weight must not drop its block and leave the next one
        to stand for the whole budget."""
        model = _NanFirstObservation()
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.uniform_symmetric(1.0),),
        )
        meas = MeasurementSetup(data=np.zeros(1), sigma=SpdMatrix(np.eye(1)))
        with pytest.raises(DegenerateWeights, match=r"log-weight nan at sample 0"):
            estimate_posterior(model, expansion, meas, SampleBudget(kind, count))


class TestTensorGrid:
    def test_gauss_exactness_on_cubic(self):
        """4 nodes integrate polynomials up to degree 7 without error."""
        h = 0.8
        alpha = 0.5
        model = _CubicModel()
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.uniform_symmetric(h),),
            alpha=alpha,
        )
        meas = MeasurementSetup(data=np.zeros(1), sigma=SpdMatrix(np.eye(1) * 1e160))
        got = tensor_grid_oracle(model, expansion, meas, 4)
        assert got.mean[0] == pytest.approx(0.0, abs=1e-15)
        # E[(alpha z)^6] = alpha^6 h^6 / 7 for z uniform on [-h, h]
        assert got.correlation[0, 0] == pytest.approx(
            alpha ** 6 * h ** 6 / 7.0, rel=1e-13
        )

    def test_hermite_nodes_recover_scalar_posterior(self):
        model = ConjugateGaussianModel(0.0, 1.0, 1.0)
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=0.1,
        )
        meas = MeasurementSetup(data=np.array([0.1]), sigma=model.noise_covariance())
        got = tensor_grid_oracle(model, expansion, meas, 40)
        mean, var = conjugate_posterior_1d(0.0, 1.0, 0.01, 1.0, 0.1)
        assert abs(got.mean[0] - mean) < 1e-10
        assert abs(got.covariance[0, 0] - var) < 1e-10

    def test_dimension_guard(self):
        model = PolynomialToyModel()
        expansion = AffineExpansion(
            x0=np.zeros(2),
            modes=np.tile(np.eye(2), (4, 1))[:7][: 7 // 1],
            laws=tuple(CoefficientLaw.uniform_symmetric(1.0) for _ in range(7)),
        )
        meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
        with pytest.raises(CostGuard):
            tensor_grid_oracle(model, expansion, meas, 4)

    def test_gauss_rule_must_be_finite(self):
        """numpy's Hermite rule has NaN weights at 400 nodes; the grid refuses
        it by name before any solve, and 200 nodes still run."""
        model = ConjugateGaussianModel(0.0, 1.0, 1.0)
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=0.1,
        )
        meas = MeasurementSetup(data=np.array([0.1]), sigma=model.noise_covariance())
        with pytest.raises(CostGuard, match=r"400-node Gauss rule for standard-normal"):
            tensor_grid_oracle(model, expansion, meas, 400)
        assert model.solve_count == 0
        got = tensor_grid_oracle(model, expansion, meas, 200)
        assert model.solve_count == 200
        mean, _ = conjugate_posterior_1d(0.0, 1.0, 0.01, 1.0, 0.1)
        assert abs(got.mean[0] - mean) < 1e-10

    def test_minimum_node_count(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        with pytest.raises(DimensionMismatch):
            tensor_grid_oracle(model, expansion, meas, 3)


class TestLaplaceImportanceOracle:
    """The importance-sampled reference used by acceptance criterion 4."""

    def test_nonlinear_toy_against_tensor_grid(self):
        """The cubic model leaves the Gaussian proposal inexact, so only correct
        weights land on the quadrature mean; the proposal's own mean misses it by
        more than ten times the tolerance at both scales."""
        model = PolynomialToyModel()
        expansion = AffineExpansion(
            x0=np.array([0.2, -0.1]),
            modes=np.array([[1.0, 0.3], [-0.2, 0.8]]),
            laws=(CoefficientLaw.standard_normal(), CoefficientLaw.standard_normal()),
        )
        meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
        evals = evaluate_at(model, expansion)
        for alpha, tol in ((0.25, 1e-3), (0.125, 2.5e-4)):
            scaled = expansion.with_alpha(alpha)
            ref = tensor_grid_oracle(model, scaled, meas, 48).mean
            mean, half_mean, ess = laplace_importance_mean(
                model, scaled, meas, evals, 20_000, seed=0
            )
            assert np.abs(mean - ref).max() <= tol, f"alpha={alpha}"
            assert np.abs(half_mean - ref).max() <= 2.0 * tol, f"alpha={alpha}"
            assert 0.9 < ess < 1.0, f"alpha={alpha}: ess fraction {ess}"
        # the half estimate is the run over the first half of the same draws
        direct, _, _ = laplace_importance_mean(model, scaled, meas, evals, 10_000, seed=0)
        np.testing.assert_allclose(half_mean, direct, rtol=1e-12, atol=1e-15)

    def test_exact_proposal_on_conjugate_model(self):
        """For a linear model the proposal is the posterior: every weight is
        equal and the estimate is the closed-form mean up to rounding."""
        q0, q1, noise_var, delta = 0.2, 1.5, 0.25, 0.9
        model = ConjugateGaussianModel(q0, q1, noise_var)
        expansion = AffineExpansion(
            x0=np.zeros(1), modes=np.ones((1, 1)), laws=(CoefficientLaw.standard_normal(),)
        )
        meas = MeasurementSetup(data=np.array([delta]), sigma=model.noise_covariance())
        evals = evaluate_at(model, expansion)
        for alpha in (1.0, 0.3, 0.1):
            exact, _ = conjugate_posterior_1d(q0, q1, alpha ** 2, noise_var, delta)
            mean, half_mean, ess = laplace_importance_mean(
                model, expansion.with_alpha(alpha), meas, evals, 64, seed=3
            )
            assert mean[0] == pytest.approx(exact, abs=1e-14), f"alpha={alpha}"
            assert half_mean[0] == pytest.approx(exact, abs=1e-14), f"alpha={alpha}"
            assert ess == pytest.approx(1.0, abs=1e-12), f"alpha={alpha}"

    def test_rejects_non_gaussian_laws(self):
        model, expansion, meas = _toy_setup(alpha=0.25)
        evals = evaluate_at(model, expansion)
        with pytest.raises(ValueError):
            laplace_importance_mean(model, expansion, meas, evals, 16)
