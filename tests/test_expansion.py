import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postpert.errors import DimensionMismatch, SolverFailure
from postpert.estimators import tensor_grid_oracle
from postpert.expansion import PosteriorMoments, expand_posterior_moments
from postpert.linalg import SpdMatrix
from postpert.model_api import MeasurementSetup, ModelEvaluations, data_coupling, evaluate_at
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.refine import run_refinement
from postpert.toy import ConjugateGaussianModel

from oracles import conjugate_posterior_1d, expansion_moments

TOY_DATA = np.array([0.25, -0.05])


def _still_evals(r0, n_modes=2, z=2, k=2):
    """Evaluations with every derivative zero, for fixed-point style checks."""
    return ModelEvaluations(
        q0=np.zeros(k),
        dq_modes=np.zeros((n_modes, k)),
        r0=np.asarray(r0, dtype=float),
        dr_modes=np.zeros((n_modes, z)),
        d2r_diag=np.zeros((n_modes, z)),
        d2r_meandir=np.zeros(z),
        reference=np.zeros(z),
    )


def _uniform_laws(n):
    return tuple(CoefficientLaw.uniform_symmetric(1.0) for _ in range(n))


class TestDegenerateInputs:
    def test_zero_derivatives_mean_is_reference(self):
        ev = _still_evals([1.5, -2.0])
        meas = MeasurementSetup(data=np.zeros(2), sigma=SpdMatrix(np.eye(2)))
        got = expand_posterior_moments(ev, meas, _uniform_laws(2), alpha=0.3).mean
        assert np.allclose(got, [1.5, -2.0])

    def test_zero_derivatives_correlation_is_outer_square(self):
        ev = _still_evals([1.5, -2.0])
        meas = MeasurementSetup(data=np.zeros(2), sigma=SpdMatrix(np.eye(2)))
        got = expand_posterior_moments(ev, meas, _uniform_laws(2), alpha=0.3).correlation
        assert np.allclose(got, np.outer([1.5, -2.0], [1.5, -2.0]))

    def test_zero_derivatives_covariance_vanishes(self):
        ev = _still_evals([1.5, -2.0])
        meas = MeasurementSetup(data=np.zeros(2), sigma=SpdMatrix(np.eye(2)))
        got = expand_posterior_moments(ev, meas, _uniform_laws(2), alpha=0.3).covariance
        assert np.allclose(got, 0.0)

    def test_non_finite_observation_is_a_solver_failure(self):
        """A model that observes NaN at the reference point stops the data
        coupling with a package error, before any moment is formed."""
        meas = MeasurementSetup(data=np.zeros(2), sigma=SpdMatrix(np.eye(2)))
        with pytest.raises(SolverFailure, match="non-finite"):
            data_coupling(meas, [np.nan, 0.0], np.eye(2))
        model = ConjugateGaussianModel(q0=np.nan, q1=2.0, noise_var=1.0)
        expansion = AffineExpansion(
            x0=np.zeros(1), modes=np.ones((1, 1)), laws=_uniform_laws(1), alpha=0.3
        )
        meas = MeasurementSetup(data=np.zeros(1), sigma=model.noise_covariance())
        ev = evaluate_at(model, expansion)
        with pytest.raises(SolverFailure, match="non-finite"):
            expand_posterior_moments(ev, meas, expansion.laws, alpha=0.3)
        with pytest.raises(SolverFailure, match="non-finite"):
            run_refinement(model, expansion, meas)


class TestScalarClosedForm:
    """Scalar linear model where the exact posterior is Gaussian."""

    def _setup(self, prior_var=0.01, noise_var=1.0, q1=1.0, delta=0.1):
        model = ConjugateGaussianModel(0.0, q1, noise_var)
        expansion = AffineExpansion(
            x0=np.zeros(1),
            modes=np.ones((1, 1)),
            laws=(CoefficientLaw.standard_normal(),),
            alpha=np.sqrt(prior_var),
        )
        meas = MeasurementSetup(data=np.array([delta]), sigma=model.noise_covariance())
        ev = evaluate_at(model, expansion)
        return ev, meas, expansion

    def test_mean_gap_is_fourth_order(self):
        ev, meas, expansion = self._setup()
        got = expand_posterior_moments(ev, meas, expansion.laws, expansion.alpha).mean[0]
        assert got == pytest.approx(1e-3, rel=1e-12)
        exact, _ = conjugate_posterior_1d(0.0, 1.0, 0.01, 1.0, 0.1)
        assert exact == pytest.approx(0.1 * 0.01 / 1.01, rel=1e-12)
        gap = abs(got - exact)
        assert gap == pytest.approx(9.900990099e-6, rel=1e-6)

    def test_mean_gap_scales_with_prior_variance_squared(self):
        gaps = []
        s2_values = [1e-1, 1e-2, 1e-3, 1e-4]
        for s2 in s2_values:
            ev, meas, expansion = self._setup(prior_var=s2)
            got = expand_posterior_moments(ev, meas, expansion.laws, expansion.alpha).mean[0]
            exact, _ = conjugate_posterior_1d(0.0, 1.0, s2, 1.0, 0.1)
            gaps.append(abs(got - exact))
        gaps = np.array(gaps)
        ratios = gaps[:-1] / gaps[1:]
        # halving s^2 by 10 must shrink the gap by about 100
        assert np.all(ratios > 50.0)

    def test_second_moment_gap_is_fourth_order(self):
        ev, meas, expansion = self._setup()
        got = expand_posterior_moments(ev, meas, expansion.laws, expansion.alpha).correlation
        mean, var = conjugate_posterior_1d(0.0, 1.0, 0.01, 1.0, 0.1)
        exact_second = var + mean ** 2
        assert got[0, 0] == pytest.approx(0.01, rel=1e-12)
        assert abs(got[0, 0] - exact_second) < 1.2e-4


class TestRankOneCovariance:
    def test_single_mode_formula(self):
        v = np.array([2.0, -1.0, 0.5])
        lam = 0.9
        ev = ModelEvaluations(
            q0=np.zeros(1),
            dq_modes=np.zeros((1, 1)),
            r0=np.zeros(3),
            dr_modes=v[None, :],
            d2r_diag=np.zeros((1, 3)),
            d2r_meandir=np.zeros(3),
            reference=np.zeros(3),
        )
        laws = (CoefficientLaw.uniform_symmetric(np.sqrt(lam)),)
        meas = MeasurementSetup(data=np.ones(1), sigma=SpdMatrix(np.eye(1)))
        got = expand_posterior_moments(ev, meas, laws, alpha=0.5).covariance
        assert np.allclose(got, 0.25 * lam / 3.0 * np.outer(v, v), rtol=1e-13)


class TestAgainstQuadratureOracle:
    """Two-mode cubic model against the tensorized Gauss reference."""

    def _errors(self, model, expansion, alpha):
        meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
        ev = evaluate_at(model, expansion)
        exp_m = expand_posterior_moments(ev, meas, expansion.laws, alpha)
        oracle = tensor_grid_oracle(model, expansion.with_alpha(alpha), meas, 48)
        return (
            float(np.linalg.norm(exp_m.mean - oracle.mean)),
            float(np.linalg.norm(exp_m.correlation - oracle.correlation)),
            float(np.linalg.norm(exp_m.covariance - oracle.covariance)),
        )

    def test_uncentered_third_order(self, toy_pair):
        model, expansion = toy_pair
        e_coarse = self._errors(model, expansion, 0.25)
        e_fine = self._errors(model, expansion, 0.125)
        for coarse, fine in zip(e_coarse, e_fine):
            assert fine <= coarse / 5.0

    def test_centered_fourth_order(self, toy_pair_centered):
        model, expansion = toy_pair_centered
        e_coarse = self._errors(model, expansion, 0.25)
        e_fine = self._errors(model, expansion, 0.125)
        for coarse, fine in zip(e_coarse, e_fine):
            assert fine <= coarse / 10.0


class TestMomentsBundle:
    def test_symmetric_outputs(self, toy_pair):
        model, expansion = toy_pair
        meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
        ev = evaluate_at(model, expansion)
        moments = expand_posterior_moments(ev, meas, expansion.laws, 0.3)
        assert np.array_equal(moments.correlation, moments.correlation.T)
        assert np.array_equal(moments.covariance, moments.covariance.T)

    def test_alpha_sweep_reuses_solves(self, toy_pair):
        model, expansion = toy_pair
        meas = MeasurementSetup(data=TOY_DATA, sigma=model.noise_covariance())
        ev = evaluate_at(model, expansion)
        before = model.solve_count
        for alpha in (0.5, 0.25, 0.125, 0.0625):
            expand_posterior_moments(ev, meas, expansion.laws, alpha)
        assert model.solve_count == before

    def test_moment_validation(self):
        with pytest.raises(DimensionMismatch):
            PosteriorMoments(
                mean=np.zeros(2),
                correlation=np.zeros((3, 3)),
                covariance=np.zeros((2, 2)),
            )


_LAW_FAMILIES = {
    "centered": lambda rng: CoefficientLaw.uniform_symmetric(rng.uniform(0.5, 2.0)),
    "shifted": lambda rng: CoefficientLaw.uniform_shifted(
        rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    ),
    "normal": lambda rng: CoefficientLaw.standard_normal(),
}


class TestAgainstTermByTermOracle:
    """The coefficient-once routine against a plain-loop evaluation of the
    module docstring's formulas, on random derivative bundles."""

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 5),
        z=st.integers(2, 5),
        m=st.integers(1, 4),
        second=st.booleans(),
        family=st.sampled_from(sorted(_LAW_FAMILIES)),
        alpha=st.floats(2.0 ** -6, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_oracle(self, k, z, m, second, family, alpha, seed):
        rng = np.random.default_rng(seed)
        ev = ModelEvaluations(
            q0=rng.normal(size=k),
            dq_modes=rng.normal(size=(m, k)),
            r0=rng.normal(size=z),
            dr_modes=rng.normal(size=(m, z)),
            d2r_diag=rng.normal(size=(m, z)) if second else np.zeros((m, z)),
            d2r_meandir=rng.normal(size=z) if second else np.zeros(z),
            reference=np.zeros(3),
        )
        root = rng.normal(size=(k, k))
        sigma = SpdMatrix(root @ root.T + k * np.eye(k))
        meas = MeasurementSetup(data=rng.normal(size=k), sigma=sigma)
        laws = tuple(_LAW_FAMILIES[family](rng) for _ in range(m))

        got = expand_posterior_moments(ev, meas, laws, alpha)
        want = expansion_moments(ev, meas, laws, alpha)
        for name, value, ref in zip(
            ("mean", "correlation", "covariance"),
            (got.mean, got.correlation, got.covariance),
            want,
        ):
            np.testing.assert_allclose(
                value, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=name
            )
        assert np.array_equal(got.correlation, got.correlation.T)
        assert np.array_equal(got.covariance, got.covariance.T)


class TestMemoryProfile:
    def test_peak_is_at_most_four_square_arrays(self):
        """At Z = 1001 and M = 100 one expansion holds at most four Z x Z
        arrays at once: the two outputs plus working buffers."""
        z, m, k = 1001, 100, 3
        rng = np.random.default_rng(11)
        ev = ModelEvaluations(
            q0=rng.normal(size=k),
            dq_modes=rng.normal(size=(m, k)),
            r0=rng.normal(size=z),
            dr_modes=rng.normal(size=(m, z)),
            d2r_diag=rng.normal(size=(m, z)),
            d2r_meandir=rng.normal(size=z),
            reference=np.zeros(3),
        )
        meas = MeasurementSetup(data=rng.normal(size=k), sigma=SpdMatrix(np.eye(k)))
        laws = tuple(CoefficientLaw.standard_normal() for _ in range(m))
        tracemalloc.start()
        try:
            moments = expand_posterior_moments(ev, meas, laws, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert moments.covariance.shape == (z, z)
        assert peak <= 4 * z * z * 8, f"peak {peak / (z * z * 8):.2f} Z x Z arrays"
