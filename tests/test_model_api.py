import numpy as np
import pytest

from postpert.darcy import build_darcy
from postpert.errors import DimensionMismatch
from postpert.linalg import SpdMatrix
from postpert.model_api import (
    MeasurementSetup,
    ModelEvaluations,
    evaluate_at,
    generate_data,
)
from postpert.lv import build_lotka_volterra
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
            d2r_diag=np.zeros((3, 4)),
            d2r_meandir=np.zeros(4),
            reference=np.zeros(5),
        )

    def test_complete_bundle_accepted(self):
        ev = ModelEvaluations(**self._base_kwargs())
        assert ev.n_modes == 3

    def test_missing_second_derivatives_rejected(self):
        for field in ("d2r_diag", "d2r_meandir"):
            kwargs = self._base_kwargs()
            kwargs[field] = None
            with pytest.raises(DimensionMismatch):
                ModelEvaluations(**kwargs)

    def test_shape_checks(self):
        for field, bad in (
            ("q0", np.zeros(3)),
            ("d2r_diag", np.zeros((3, 3))),
            ("d2r_meandir", np.zeros(3)),
        ):
            kwargs = self._base_kwargs()
            kwargs[field] = bad
            with pytest.raises(DimensionMismatch):
                ModelEvaluations(**kwargs)


def _conjugate():
    expansion = AffineExpansion(
        x0=np.array([0.3]), modes=np.array([[0.7]]), laws=(CoefficientLaw.standard_normal(),)
    )
    return ConjugateGaussianModel(0.5, 2.0, 0.1), expansion


def _polynomial():
    laws = (CoefficientLaw.uniform_shifted(1.0, 0.3), CoefficientLaw.uniform_shifted(1.0, -0.2))
    expansion = AffineExpansion(
        x0=np.array([0.2, -0.1]), modes=np.array([[1.0, 0.3], [-0.2, 0.8]]), laws=laws
    )
    return PolynomialToyModel(), expansion


# name -> builder of (model, expansion)
_EVERY_MODEL = {
    "darcy-r1": lambda: build_darcy(2, kle_tol=1e-2, centered=False, prediction="r1"),
    "darcy-r2": lambda: build_darcy(2, kle_tol=1e-2, centered=False, prediction="r2"),
    "lotka-volterra": lambda: build_lotka_volterra(n_modes=4, n_steps=100),
    "conjugate-gaussian": _conjugate,
    "polynomial-toy": _polynomial,
}


class TestEvaluateAt:
    def test_affine_prediction_has_no_curvature(self):
        """Affine predictions fill both second-derivative fields with zeros."""
        for name in ("darcy-r1", "lotka-volterra", "conjugate-gaussian"):
            ev = evaluate_at(*_EVERY_MODEL[name]())
            assert ev.d2r_diag.shape == ev.dr_modes.shape, name
            assert ev.d2r_meandir.shape == ev.r0.shape, name
            np.testing.assert_array_equal(ev.d2r_diag, 0.0, err_msg=name)
            np.testing.assert_array_equal(ev.d2r_meandir, 0.0, err_msg=name)

    @pytest.mark.parametrize("name", ["darcy-r2", "polynomial-toy"])
    def test_curved_prediction_has_second_derivatives(self, name):
        ev = evaluate_at(*_EVERY_MODEL[name]())
        assert ev.d2r_diag.shape == ev.dr_modes.shape
        assert ev.d2r_meandir.shape == ev.r0.shape
        assert ev.d2r_diag.any() and ev.d2r_meandir.any()

    def test_centered_laws_zero_mean_direction(self, toy_pair_centered):
        model, expansion = toy_pair_centered
        ev = evaluate_at(model, expansion)
        assert np.allclose(ev.d2r_meandir, 0.0, atol=1e-15)

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

