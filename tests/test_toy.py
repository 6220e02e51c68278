import numpy as np
import pytest

from postpert.model_api import evaluate_at
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.toy import ConjugateGaussianModel, PolynomialToyModel

from oracles import expected_curvature_by_direction, one_mode_bundle


def _poly_expansion(x0=(0.2, -0.1)):
    return AffineExpansion(
        x0=np.asarray(x0, dtype=float),
        modes=np.array([[1.0, 0.3], [-0.2, 0.8]]),
        laws=(
            CoefficientLaw.uniform_shifted(1.0, 0.3),
            CoefficientLaw.uniform_shifted(1.0, -0.2),
        ),
        alpha=0.25,
    )


class TestConjugateGaussian:
    def test_forward_maps(self):
        model = ConjugateGaussianModel(0.5, 2.0, 0.1)
        assert model.observe(np.array([0.3]))[0] == pytest.approx(1.1)
        assert model.predict(np.array([0.3]))[0] == pytest.approx(0.3)
        assert model.noise_covariance().entries[0, 0] == 0.1

    def test_batches_match_loops(self):
        model = ConjugateGaussianModel(0.5, 2.0, 0.1)
        xs = np.linspace(-1.0, 1.0, 7)[:, None]
        states = model.solve_state_batch(xs)
        np.testing.assert_allclose(
            model.observe_state_batch(states)[:, 0], 0.5 + 2.0 * xs[:, 0]
        )
        np.testing.assert_allclose(model.predict_state_batch(states), xs)

    def test_evaluation_is_exactly_affine(self):
        model = ConjugateGaussianModel(0.5, 2.0, 0.1)
        expansion = AffineExpansion(
            x0=np.array([0.3]),
            modes=np.array([[0.7]]),
            laws=(CoefficientLaw.standard_normal(),),
        )
        ev = evaluate_at(model, expansion)
        assert ev.dq_modes[0, 0] == pytest.approx(1.4)
        assert ev.dr_modes[0, 0] == pytest.approx(0.7)
        np.testing.assert_array_equal(ev.d2r_expected, np.zeros(1))
        # shifting the reference shifts outputs linearly, derivatives stay put
        ev2 = evaluate_at(model, expansion, reference=np.array([1.3]))
        assert ev2.q0[0] - ev.q0[0] == pytest.approx(2.0)
        np.testing.assert_array_equal(ev2.dq_modes, ev.dq_modes)

    def test_solve_count_tracks_work(self):
        model = ConjugateGaussianModel(0.0, 1.0, 1.0)
        assert model.solve_count == 0
        model.observe(np.zeros(1))
        model.solve_state_batch(np.zeros((5, 1)))
        assert model.solve_count == 6


class TestPolynomialToy:
    def test_batches_match_loops(self):
        model = PolynomialToyModel()
        xs = np.array([[0.0, 0.0], [0.2, -0.1], [-0.4, 0.3]])
        states = model.solve_state_batch(xs)
        obs = model.observe_state_batch(states)
        pred = model.predict_state_batch(states)
        for k, x in enumerate(xs):
            np.testing.assert_allclose(obs[k], model.observe(x))
            np.testing.assert_allclose(pred[k], model.predict(x))
            np.testing.assert_allclose(obs[k], model._q(*x))
            np.testing.assert_allclose(pred[k], model._r(*x))

    @pytest.mark.parametrize("point", [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.4)])
    def test_jacobians_match_finite_differences(self, point):
        model = PolynomialToyModel()
        x = np.asarray(point, dtype=float)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            dq = (model.observe(x + e) - model.observe(x - e)) / (2 * h)
            dr = (model.predict(x + e) - model.predict(x - e)) / (2 * h)
            np.testing.assert_allclose(dq, model._q_jacobian(*x)[:, j], atol=1e-8)
            np.testing.assert_allclose(dr, model._r_jacobian(*x)[:, j], atol=1e-8)

    def test_hessians_match_finite_differences(self):
        model = PolynomialToyModel()
        x = np.array([0.15, -0.25])
        h = 1e-5
        h1, h2 = model._r_hessians(*x)
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i], ej[j] = h, h
                vals = (
                    model.predict(x + ei + ej)
                    - model.predict(x + ei - ej)
                    - model.predict(x - ei + ej)
                    + model.predict(x - ei - ej)
                ) / (4 * h * h)
                assert vals[0] == pytest.approx(h1[i, j], abs=1e-5)
                assert vals[1] == pytest.approx(h2[i, j], abs=1e-5)

    def test_evaluation_curvature_along_modes(self):
        """A one-mode bundle holds the exact second directional derivative."""
        model = PolynomialToyModel()
        expansion = _poly_expansion()
        h = 1e-4
        for mode in expansion.modes:
            ev = one_mode_bundle(model, expansion.x0, mode)
            fd = (
                model.predict(expansion.x0 + h * mode)
                - 2 * model.predict(expansion.x0)
                + model.predict(expansion.x0 - h * mode)
            ) / (h * h)
            np.testing.assert_allclose(ev.d2r_expected, fd, atol=1e-5)

    def test_evaluation_curvature_along_mean_shift(self):
        """Under shifted laws the bundle's field is the variance-weighted
        sum of the one-mode fields plus the one along the mean shift.  Like
        the Darcy bundle, it counts 1 + M + 1 solves."""
        model = PolynomialToyModel()
        expansion = _poly_expansion()
        ev = evaluate_at(model, expansion)
        assert model.solve_count == 1 + expansion.n_modes + 1
        w = expansion.coefficient_means() @ expansion.modes
        h = 1e-4
        fd = (
            model.predict(expansion.x0 + h * w)
            - 2 * model.predict(expansion.x0)
            + model.predict(expansion.x0 - h * w)
        ) / (h * h)
        np.testing.assert_allclose(one_mode_bundle(model, expansion.x0, w).d2r_expected, fd, atol=1e-5)
        want = expected_curvature_by_direction(model, expansion, expansion.x0)
        np.testing.assert_allclose(ev.d2r_expected, want, rtol=1e-12, atol=0)

    def test_centered_laws_drop_mean_direction(self):
        model = PolynomialToyModel()
        expansion = AffineExpansion(
            x0=np.array([0.2, -0.1]),
            modes=np.array([[1.0, 0.3], [-0.2, 0.8]]),
            laws=(
                CoefficientLaw.uniform_symmetric(1.0),
                CoefficientLaw.uniform_symmetric(1.0),
            ),
        )
        ev = evaluate_at(model, expansion)
        want = sum(
            law.variance * one_mode_bundle(model, expansion.x0, mode).d2r_expected
            for law, mode in zip(expansion.laws, expansion.modes)
        )
        np.testing.assert_allclose(ev.d2r_expected, want, rtol=1e-12, atol=0)

    def test_noise_covariance_default(self):
        sigma = PolynomialToyModel().noise_covariance().entries
        np.testing.assert_allclose(sigma, [[0.04, 0.008], [0.008, 0.05]])
        np.testing.assert_allclose(sigma, sigma.T)
