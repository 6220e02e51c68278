import csv

import numpy as np
import pytest

from postpert.cli import StudyConfig, run_refinement_study
from postpert.darcy import STUDY_OBSERVATIONS, darcy_noise_covariance
from postpert.errors import DimensionMismatch, Diverged, PostpertError
from postpert.model_api import MeasurementSetup
from postpert.prior import AffineExpansion, CoefficientLaw
from postpert.refine import RefineState, refine_step, run_refinement
from postpert.toy import ConjugateGaussianModel

from oracles import conjugate_posterior_1d, tikhonov_gradient


def _scalar_setup(q1=1.0, noise_var=1.0, prior_std=0.1, delta=0.1):
    model = ConjugateGaussianModel(0.0, q1, noise_var)
    expansion = AffineExpansion(
        x0=np.zeros(1),
        modes=np.ones((1, 1)),
        laws=(CoefficientLaw.standard_normal(),),
        alpha=prior_std,
    )
    meas = MeasurementSetup(data=np.array([delta]), sigma=model.noise_covariance())
    return model, expansion, meas


def _darcy_setup(darcy_level_3):
    model, expansion = darcy_level_3
    meas = MeasurementSetup(data=STUDY_OBSERVATIONS, sigma=darcy_noise_covariance())
    return model, expansion, meas


class TestRefineStep:
    def test_zero_residual_zero_bias_is_fixed_point(self):
        model, expansion, _ = _scalar_setup()
        meas = MeasurementSetup(data=np.zeros(1), sigma=model.noise_covariance())
        state = refine_step(RefineState.initial(1), model, expansion, meas)
        assert state.update_history == [0.0]
        assert state.y == pytest.approx(0.0)

    def test_update_applies_step_scale(self):
        model, expansion, meas = _scalar_setup()
        full = refine_step(RefineState.initial(1), model, expansion, meas, 1.0)
        halved = refine_step(RefineState.initial(1), model, expansion, meas, 0.5)
        assert halved.y[0] == pytest.approx(0.5 * full.y[0], rel=1e-14)
        # recorded norms describe the direction, not the applied step
        assert halved.update_history == full.update_history

    def test_bound_triggers_diverged(self):
        model, expansion, meas = _scalar_setup()
        with pytest.raises(Diverged):
            refine_step(
                RefineState.initial(1), model, expansion, meas, 1.0, divergence_bound=1e-12
            )


class TestScalarConvergence:
    def test_converges_to_exact_posterior_mean(self):
        model, expansion, meas = _scalar_setup()
        refined, state = run_refinement(model, expansion, meas)
        want, _ = conjugate_posterior_1d(0.0, 1.0, 0.01, 1.0, 0.1)
        assert refined[0] == pytest.approx(want, abs=1e-12)
        assert state.update_history[-1] <= 1e-12

    def test_geometric_decay_ratio(self):
        """Linear problem contracts update norms by |1 - step (1 + q1^2 s^2 / sigma^2)|."""
        model, expansion, meas = _scalar_setup()
        _, state = run_refinement(model, expansion, meas, step_scale=0.3)
        kappa = 1.0 + 1.0 * 0.01 / 1.0
        want = abs(1.0 - 0.3 * kappa)
        h = state.update_history
        ratios = [b / a for a, b in zip(h[2:-2], h[3:-1])]
        assert ratios == pytest.approx([want] * len(ratios), rel=1e-6)

    def test_fixed_point_start_stops_immediately(self):
        model, expansion, _ = _scalar_setup()
        meas = MeasurementSetup(data=np.zeros(1), sigma=model.noise_covariance())
        refined, state = run_refinement(model, expansion, meas)
        assert state.update_history == [0.0]
        assert np.array_equal(refined, expansion.x0)


class TestTikhonovGradient:
    def test_vanishes_at_the_fixed_point(self):
        model, expansion, meas = _scalar_setup()
        refined, state = run_refinement(model, expansion, meas)
        g = tikhonov_gradient(state.y, model, expansion, meas)
        assert abs(g[0]) < 1e-9

    def test_descent_direction_everywhere(self, darcy_level_3):
        model, expansion, meas = _darcy_setup(darcy_level_3)
        exp_a = expansion.with_alpha(0.125)
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = 0.05 * rng.normal(size=exp_a.n_modes)
            state = RefineState(y=y.copy())
            g = tikhonov_gradient(y, model, exp_a, meas)
            stepped = refine_step(state, model, exp_a, meas)
            d = stepped.y - y
            assert d @ g < 0.0

    def test_update_equals_preconditioned_gradient(self, darcy_level_3):
        """The step direction is exactly -alpha^2 Var[z] times the gradient."""
        model, expansion, meas = _darcy_setup(darcy_level_3)
        exp_a = expansion.with_alpha(0.25)
        variances = exp_a.coefficient_variances()
        state = RefineState.initial(exp_a.n_modes)
        for _ in range(6):
            g = tikhonov_gradient(state.y, model, exp_a, meas)
            stepped = refine_step(state, model, exp_a, meas)
            d = stepped.y - state.y
            rhs = -exp_a.alpha ** 2 * variances * g
            assert np.linalg.norm(d - rhs) <= 1e-10 * (1.0 + np.linalg.norm(d))
            state = stepped


class TestDarcyRefinement:
    def test_expansion_of_another_dim_rejected(self, darcy_level_2, darcy_level_3):
        """An L2 model refined with an L3 expansion, and the reverse."""
        meas = MeasurementSetup(data=STUDY_OBSERVATIONS, sigma=darcy_noise_covariance())
        for (model, _), (_, expansion) in ((darcy_level_2, darcy_level_3), (darcy_level_3, darcy_level_2)):
            with pytest.raises(DimensionMismatch, match="parameter_dim"):
                run_refinement(model, expansion, meas)

    def test_large_alpha_diverges(self, darcy_level_3):
        model, expansion, meas = _darcy_setup(darcy_level_3)
        for alpha in (0.5, 1.0):
            with pytest.raises(Diverged) as info:
                run_refinement(model, expansion.with_alpha(alpha), meas)
            assert info.value.state.update_history  # partial history preserved

    def test_mid_alpha_monotone_after_burn_in(self, darcy_level_3):
        model, expansion, meas = _darcy_setup(darcy_level_3)
        _, state = run_refinement(model, expansion.with_alpha(0.25), meas)
        h = state.update_history
        assert len(h) >= 6
        tail = h[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))


class TestHistoryExport:
    def _study(self, path, alphas):
        return StudyConfig(
            mesh_level=2, kle_tol=1e-2, alphas=alphas, iterations=3,
            reference="none", seed=3, output=str(path),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "hist.csv"
        histories, _ = run_refinement_study(self._study(path, (0.5, 0.25)))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "iteration", "update_norm"]
        want = [(a, it, norm) for a, h in histories.items() for it, norm in enumerate(h)]
        assert len(want) == 6
        assert [(float(a), int(it), float(n)) for a, it, n in rows[1:]] == want

    def test_empty_histories(self, tmp_path):
        """No alpha means no history to write: the study is rejected, no file is left."""
        path = tmp_path / "hist.csv"
        with pytest.raises(PostpertError, match="alphas"):
            run_refinement_study(self._study(path, ()))
        assert not path.exists()
