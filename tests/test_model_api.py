import numpy as np
import pytest

from postpert.darcy import build_darcy
from postpert.errors import DimensionMismatch
from postpert.linalg import SpdMatrix
from postpert.model_api import (
    ForwardModel,
    MeasurementSetup,
    ModelEvaluations,
    evaluate_at,
    generate_data,
)
from postpert.lv import build_lotka_volterra
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.toy import ConjugateGaussianModel, PolynomialToyModel

from oracles import observed_order, one_mode_bundle


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
            d2r_expected=np.zeros(4),
            reference=np.zeros(5),
            law_means=np.zeros(3),
            law_variances=np.ones(3),
        )

    def test_complete_bundle_accepted(self):
        ev = ModelEvaluations(**self._base_kwargs())
        assert ev.n_modes == 3

    def test_missing_second_derivatives_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["d2r_expected"] = None
        with pytest.raises(DimensionMismatch):
            ModelEvaluations(**kwargs)

    def test_shape_checks(self):
        for field, bad in (
            ("q0", np.zeros(3)),
            ("d2r_expected", np.zeros(3)),
            ("d2r_expected", np.zeros((3, 4))),
            ("law_means", np.zeros(2)),
            ("law_variances", np.ones((3, 1))),
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


# models declaring prediction_is_parameter, whose bundle the base class builds
_DECLARED = {
    "darcy-r1-centered": lambda: build_darcy(2, kle_tol=1e-2, centered=True, prediction="r1"),
    "darcy-r1-shifted": _EVERY_MODEL["darcy-r1"],
    "lotka-volterra": _EVERY_MODEL["lotka-volterra"],
    "conjugate-gaussian": _conjugate,
}


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDeclaredBundle:
    @pytest.mark.parametrize("moved", [False, True], ids=["x0", "moved"])
    @pytest.mark.parametrize("name", sorted(_DECLARED))
    def test_bundle_is_linearize_with_identity_prediction(self, name, moved):
        """The bundle is linearize's Q and dQ, the reference as r0, the modes
        as dR and zero curvature, bit for bit, at linearize's solve count."""
        model, expansion = _DECLARED[name]()
        reference = expansion.x0 + (0.01 * expansion.modes.sum(axis=0) if moved else 0.0)
        q0, dq = model.linearize(expansion, reference)
        cost = model.solve_count
        ev = evaluate_at(model, expansion, reference)
        assert model.solve_count == 2 * cost > 0
        for got, want in (
            (ev.q0, q0),
            (ev.dq_modes, dq),
            (ev.r0, reference),
            (ev.dr_modes, expansion.modes),
            (ev.d2r_expected, np.zeros(expansion.dim)),
            (ev.reference, reference),
            (ev.law_means, expansion.coefficient_means()),
            (ev.law_variances, expansion.coefficient_variances()),
        ):
            assert _same_bits(got, want)
        assert not np.shares_memory(ev.r0, reference)
        assert not np.shares_memory(ev.dr_modes, expansion.modes)

    def test_entry_points_a_model_must_supply(self, toy_pair):
        """An undeclared model without evaluate_at, and a declared one
        without linearize, raise NotImplementedError rather than recurse."""
        _, expansion = toy_pair
        undeclared = ForwardModel()
        declared = type(
            "Declared", (ForwardModel,), {"prediction_is_parameter": True, "parameter_dim": 2}
        )()
        assert declared.prediction_dim == 2
        for model in (undeclared, declared):
            for call in (model.evaluate_at, model.linearize):
                with pytest.raises(NotImplementedError):
                    call(expansion, expansion.x0)
        with pytest.raises(NotImplementedError):
            undeclared.prediction_dim


class TestEvaluateAt:
    def test_affine_prediction_has_no_curvature(self):
        """Affine predictions fill the second-order field with zeros."""
        for name in ("darcy-r1", "lotka-volterra", "conjugate-gaussian"):
            ev = evaluate_at(*_EVERY_MODEL[name]())
            assert ev.d2r_expected.shape == ev.r0.shape, name
            np.testing.assert_array_equal(ev.d2r_expected, 0.0, err_msg=name)

    @pytest.mark.parametrize("name", ["darcy-r2", "polynomial-toy"])
    def test_curved_prediction_has_second_derivatives(self, name):
        ev = evaluate_at(*_EVERY_MODEL[name]())
        assert ev.d2r_expected.shape == ev.r0.shape
        assert ev.d2r_expected.any()

    @pytest.mark.parametrize("name", sorted(_EVERY_MODEL))
    def test_bundle_carries_its_laws(self, name):
        """Every model records the law moments its bundle was taken with."""
        model, expansion = _EVERY_MODEL[name]()
        ev = evaluate_at(model, expansion)
        np.testing.assert_array_equal(ev.law_means, expansion.coefficient_means())
        np.testing.assert_array_equal(ev.law_variances, expansion.coefficient_variances())

    def test_centered_laws_zero_mean_direction(self, toy_pair_centered):
        """Centered laws leave only the variance-weighted mode curvatures."""
        model, expansion = toy_pair_centered
        ev = evaluate_at(model, expansion)
        want = sum(
            law.variance * one_mode_bundle(model, expansion.x0, mode).d2r_expected
            for law, mode in zip(expansion.laws, expansion.modes)
        )
        np.testing.assert_allclose(ev.d2r_expected, want, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("name", sorted(_EVERY_MODEL))
    def test_expansion_dim_checked(self, name):
        """An expansion over another parameter space is refused before a solve."""
        model, expansion = _EVERY_MODEL[name]()
        other = AffineExpansion(
            x0=np.zeros(expansion.dim + 1),
            modes=np.ones((1, expansion.dim + 1)),
            laws=(CoefficientLaw.standard_normal(),),
        )
        with pytest.raises(DimensionMismatch, match="parameter_dim"):
            evaluate_at(model, other)
        assert model.solve_count == 0


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
        clean = model.observe(expansion.realize_batch(native[None])[0])
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
            clean = model.observe(expansion.realize_batch(native[None])[0])
            residuals[seed] = meas.data - clean
        sample = np.cov(residuals.T)
        # 1e4 draws give entrywise standard errors of a few 1e-4
        assert np.allclose(sample, sigma, atol=3e-3)
        assert np.allclose(residuals.mean(axis=0), 0.0, atol=3e-3)

