import numpy as np
import pytest

from postpert.darcy import build_darcy
from postpert.errors import DimensionMismatch, MissingSecondDerivatives
from postpert.linalg import SpdMatrix
from postpert.model_api import (
    MeasurementSetup,
    ModelEvaluations,
    evaluate_at,
    generate_data,
)
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.toy import ConjugateGaussianModel, PolynomialToyModel

from oracles import observed_order


class TestMeasurementSetup:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            MeasurementSetup(data=np.ones(3), sigma=SpdMatrix(np.eye(2)))


class TestModelEvaluations:
    def _base_kwargs(self):
        return dict(
            q0=np.zeros(2),
            dq_modes=np.ones((3, 2)),
            r0=np.zeros(4),
            dr_modes=np.ones((3, 4)),
            reference=np.zeros(5),
        )

    def test_missing_second_derivatives_rejected(self):
        with pytest.raises(MissingSecondDerivatives):
            ModelEvaluations(d2r_diag=None, d2r_meandir=None, **self._base_kwargs())

    def test_affine_flag_allows_missing(self):
        ev = ModelEvaluations(
            d2r_diag=None,
            d2r_meandir=None,
            prediction_affine=True,
            **self._base_kwargs(),
        )
        assert np.array_equal(ev.second_diag(), np.zeros((3, 4)))
        assert np.array_equal(ev.second_meandir(), np.zeros(4))

    def test_shape_checks(self):
        kwargs = self._base_kwargs()
        kwargs["q0"] = np.zeros(3)
        with pytest.raises(DimensionMismatch):
            ModelEvaluations(
                d2r_diag=None, d2r_meandir=None, prediction_affine=True, **kwargs
            )


class TestEvaluateAt:
    def test_affine_prediction_has_no_curvature(self, darcy_level_2):
        model, expansion = darcy_level_2  # r1 prediction is the parameter itself
        ev = evaluate_at(model, expansion)
        assert ev.prediction_affine
        assert np.array_equal(ev.second_diag(), np.zeros_like(ev.dr_modes))

    def test_centered_laws_zero_mean_direction(self, toy_pair_centered):
        model, expansion = toy_pair_centered
        ev = evaluate_at(model, expansion)
        assert np.allclose(ev.second_meandir(), 0.0, atol=1e-15)

    def test_observation_derivatives_match_finite_differences(self, darcy_level_2):
        """Unit-direction dQ from the solver agrees with central differences."""
        model, expansion = darcy_level_2
        ev = evaluate_at(model, expansion)
        mode = expansion.modes[1]
        steps = np.array([1e-2, 5e-3, 2.5e-3])
        errs = []
        for h in steps:
            fd = (
                model.observe(expansion.x0 + h * mode)
                - model.observe(expansion.x0 - h * mode)
            ) / (2.0 * h)
            errs.append(np.linalg.norm(fd - ev.dq_modes[1]))
        assert observed_order(steps, errs) >= 1.9

    def test_reference_shape_checked(self, toy_pair):
        model, expansion = toy_pair
        with pytest.raises(DimensionMismatch):
            evaluate_at(model, expansion, reference=np.zeros(5))


class TestGenerateData:
    def test_fixed_seed_reproduces(self, toy_pair):
        model, expansion = toy_pair
        a = generate_data(model, expansion, seed=7)
        b = generate_data(model, expansion, seed=7)
        assert np.array_equal(a.data, b.data)

    def test_noiseless_limit_returns_observed_truth(self):
        """With vanishing noise the data converges on the true observation."""
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=0.3,
        )
        model = ConjugateGaussianModel(0.5, 2.0, noise_var=1e-20)
        meas = generate_data(model, expansion, seed=11)
        rng = np.random.default_rng(11)
        native = np.array([law.sample_native(rng, None) for law in expansion.laws])
        clean = model.observe(expansion.realize(native))
        assert np.allclose(meas.data, clean, atol=1e-9)

    def test_noise_sample_covariance(self, toy_pair):
        """Residuals between data and observed truth follow the stated noise law."""
        model, expansion = toy_pair
        sigma = model.noise_covariance().entries
        residuals = np.empty((10_000, 2))
        for seed in range(10_000):
            meas = generate_data(model, expansion, seed=seed)
            rng = np.random.default_rng(seed)
            native = np.array([law.sample_native(rng, None) for law in expansion.laws])
            clean = model.observe(expansion.realize(native))
            residuals[seed] = meas.data - clean
        sample = np.cov(residuals.T)
        # 1e4 draws give entrywise standard errors of a few 1e-4
        assert np.allclose(sample, sigma, atol=3e-3)
        assert np.allclose(residuals.mean(axis=0), 0.0, atol=3e-3)

