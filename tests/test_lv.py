import math
import tracemalloc

import numpy as np
import pytest

from postpert.errors import DimensionMismatch, NonPositiveState
from postpert.lv import (
    CORRECTOR_SWEEPS,
    INITIAL_STATE,
    OBSERVED_DATA,
    LotkaVolterraModel,
    Trajectory,
    build_lotka_volterra,
    integrate,
    integrate_derivative_many,
    lv_noise_covariance,
    lv_observe,
    lv_time_grid,
    observation_indices,
)
from postpert.model_api import evaluate_at

from oracles import lv_march, lv_variational_march, predator_prey_invariant


class TestTimeGrid:
    def test_observation_steps_land_on_grid(self):
        np.testing.assert_array_equal(observation_indices(1000), [250, 500, 750, 1000])
        grid = lv_time_grid(1000)
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 1001
        assert grid[250] == pytest.approx(0.25)

    def test_step_count_must_divide_quarters(self):
        with pytest.raises(DimensionMismatch):
            lv_time_grid(250)


class TestIntegrator:
    def test_equilibrium_is_exactly_stationary(self):
        traj = integrate(np.zeros(401), y_init=(50.0, 100.0))
        np.testing.assert_array_equal(traj.y1, 50.0)
        np.testing.assert_array_equal(traj.y2, 100.0)

    def test_prey_grows_from_initial_state(self):
        traj = integrate(np.zeros(1001))
        assert traj.y1[0] == INITIAL_STATE[0]
        assert traj.y1[10] > traj.y1[0]
        assert np.all(traj.y1 > 0) and np.all(traj.y2 > 0)

    def test_self_convergence_is_first_order(self):
        obs = {n: lv_observe(integrate(np.zeros(n + 1))) for n in (400, 800, 1600)}
        d1 = np.abs(obs[400] - obs[800]).max()
        d2 = np.abs(obs[800] - obs[1600]).max()
        assert 0.85 < math.log2(d1 / d2) < 1.15

    def test_first_integral_drift_shrinks_linearly(self):
        def drift(n):
            t = integrate(np.zeros(n + 1))
            v = predator_prey_invariant(t.y1[0], t.y2[0])
            worst = 0.0
            for a, b in zip(t.y1, t.y2):
                worst = max(worst, abs(predator_prey_invariant(a, b) - v))
            return worst

        coarse, fine = drift(200), drift(3200)
        assert coarse / fine > 8.0  # 16x more steps, first-order scheme

    def test_collapse_to_nonpositive_population_raises(self):
        with pytest.raises(NonPositiveState):
            integrate(np.full(101, -1e4))

    def test_one_path_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(21)
        xi = np.cumsum(rng.normal(scale=0.3, size=401))
        traj = integrate(xi)
        y1, y2, collapse = lv_march(xi, CORRECTOR_SWEEPS)
        assert collapse is None
        np.testing.assert_allclose(traj.y1, y1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(traj.y2, y2, rtol=1e-13, atol=0)

    def test_one_collapsing_row_names_the_oracle_step(self):
        """Only the middle row collapses; the batch and the single path both
        report the step at which the oracle first leaves the quadrant."""
        rng = np.random.default_rng(22)
        xs = 0.2 * rng.normal(size=(3, 201))
        xs[1, 90:] = -400.0
        steps = [lv_march(x, CORRECTOR_SWEEPS)[2] for x in xs]
        assert steps[0] is None and steps[2] is None and steps[1] is not None
        model = LotkaVolterraModel(n_steps=200)
        pattern = rf"\bat step {steps[1]}$"
        with pytest.raises(NonPositiveState, match=pattern):
            model.solve_state_batch(xs)
        with pytest.raises(NonPositiveState, match=pattern):
            integrate(xs[1])

    def test_batch_rows_equal_paths_marched_alone(self):
        """The march is elementwise across the batch, so a path's bits do not
        depend on its batch mates; byte determinism across --threads rests
        on this."""
        rng = np.random.default_rng(24)
        xs = np.cumsum(rng.normal(scale=0.3, size=(7, 201)), axis=1)
        model = LotkaVolterraModel(n_steps=200)
        batch = model.solve_state_batch(xs).observed
        idx = observation_indices(200)
        for k, x in enumerate(xs):
            np.testing.assert_array_equal(batch[k], model.solve_state_batch(x[None]).observed[0])
            traj = integrate(x)
            np.testing.assert_array_equal(batch[k, 0::2], traj.y1[idx])
            np.testing.assert_array_equal(batch[k, 1::2], traj.y2[idx])

    def test_nan_path_neither_raises_nor_hides_a_collapse(self):
        xs = np.zeros((2, 101))
        xs[0, 0] = np.nan
        assert np.isnan(LotkaVolterraModel(n_steps=100).solve_state_batch(xs[:1]).observed).all()
        xs[1] = -1e4
        with pytest.raises(NonPositiveState):
            LotkaVolterraModel(n_steps=100).solve_state_batch(xs)

    def test_batch_march_makes_no_full_size_copy(self):
        """Peak traced memory stays below the size of the input paths, so
        no (n+1, B) transposed table is built."""
        model = LotkaVolterraModel(n_steps=1000)
        xs = np.zeros((512, 1001))
        tracemalloc.start()
        try:
            model.solve_state_batch(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < xs.nbytes

    def test_trajectory_length_validation(self):
        with pytest.raises(DimensionMismatch):
            Trajectory(lv_time_grid(4), np.zeros(5), np.zeros(5), np.zeros(4))


class TestVariationalSolves:
    def test_matches_central_differences(self):
        model, expansion = build_lotka_volterra(n_modes=8, n_steps=200)
        base = integrate(expansion.x0)
        mode = expansion.modes[2]
        deriv = integrate_derivative_many(base, mode[None])[0]
        idx = observation_indices(200)
        h = 1e-4
        fd = (model.observe(expansion.x0 + h * mode) - model.observe(expansion.x0 - h * mode)) / (
            2 * h
        )
        got = np.empty(8)
        got[0::2] = deriv[0, idx]
        got[1::2] = deriv[1, idx]
        np.testing.assert_allclose(got, fd, atol=1e-5)

    def test_linearity_in_the_direction(self):
        model, expansion = build_lotka_volterra(n_modes=4, n_steps=200)
        base = integrate(expansion.x0)
        single = integrate_derivative_many(base, expansion.modes[2:3])
        doubled = integrate_derivative_many(base, 2.0 * expansion.modes[2:3])
        np.testing.assert_array_equal(doubled, 2.0 * single)

    def test_many_stacks_single_directions(self):
        _, expansion = build_lotka_volterra(n_modes=3, n_steps=200)
        base = integrate(expansion.x0)
        stacked = integrate_derivative_many(base, expansion.modes)
        for m, mode in enumerate(expansion.modes):
            np.testing.assert_array_equal(stacked[m], integrate_derivative_many(base, mode[None])[0])

    def test_matches_plain_loop_oracle_bitwise(self):
        """Coefficients formed once per grid index give the same bits as
        forming them at every evaluation."""
        rng = np.random.default_rng(23)
        xi = np.cumsum(rng.normal(scale=0.3, size=201))
        _, expansion = build_lotka_volterra(n_modes=3, n_steps=200)
        base = integrate(xi)
        got = integrate_derivative_many(base, expansion.modes)
        for m, mode in enumerate(expansion.modes):
            v1, v2 = lv_variational_march(base.y1, base.y2, xi, mode, CORRECTOR_SWEEPS)
            np.testing.assert_array_equal(got[m, 0], v1)
            np.testing.assert_array_equal(got[m, 1], v2)

    def test_direction_grid_must_match_base(self):
        base = integrate(np.zeros(201))
        with pytest.raises(DimensionMismatch):
            integrate_derivative_many(base, np.zeros((2, 105)))


class TestObservation:
    def test_interleaves_populations(self):
        tgrid = lv_time_grid(4)
        traj = Trajectory(tgrid, np.arange(5.0), np.arange(10.0, 15.0), np.zeros(5))
        np.testing.assert_array_equal(
            lv_observe(traj), [1.0, 11.0, 2.0, 12.0, 3.0, 13.0, 4.0, 14.0]
        )

    def test_recorded_data_layout(self):
        assert OBSERVED_DATA.shape == (8,)
        assert np.all(OBSERVED_DATA > 0)
        # final snapshot matches the initial populations (period-one data)
        np.testing.assert_array_equal(OBSERVED_DATA[6:], INITIAL_STATE)


class TestNoiseCovariance:
    def test_block_structure(self):
        sig = lv_noise_covariance(5.0).entries
        assert sig.shape == (8, 8)
        np.testing.assert_allclose(np.diag(sig), 5.0)
        assert sig[0, 1] == pytest.approx(0.5)
        assert sig[0, 2] == 0.0
        assert sig[2, 3] == pytest.approx(0.5)

    def test_scale_is_linear(self):
        np.testing.assert_allclose(
            lv_noise_covariance(20.0).entries, 4.0 * lv_noise_covariance(5.0).entries
        )


class TestModelWiring:
    def test_dimensions_and_norms(self, lv_small):
        model, expansion = lv_small
        assert model.parameter_dim == len(expansion.x0)
        assert model.observation_dim == 8
        assert model.prediction_dim == model.parameter_dim
        assert model.field_norm_name == "max"
        assert model.field_error_norm([-3.0, 2.0]) == 3.0
        assert model.tensor_error_norm([[1.0, -4.0], [0.0, 2.0]]) == 4.0

    def test_batch_observations_match_loop(self, lv_small):
        """Every row of a batched solve against the plain-loop oracle march."""
        model, expansion = lv_small
        rng = np.random.default_rng(5)
        xs = expansion.x0 + rng.normal(size=(6, model.parameter_dim))
        batch = model.observe_state_batch(model.solve_state_batch(xs))
        idx = observation_indices(model.n_steps)
        for k in range(len(xs)):
            y1, y2, collapse = lv_march(xs[k], CORRECTOR_SWEEPS)
            assert collapse is None
            np.testing.assert_allclose(batch[k, 0::2], y1[idx], rtol=1e-13, atol=0)
            np.testing.assert_allclose(batch[k, 1::2], y2[idx], rtol=1e-13, atol=0)

    def test_observe_validates_path_shape(self, lv_small):
        model, _ = lv_small
        before = model.solve_count
        for bad in (np.zeros(model.parameter_dim + 4), np.zeros((2, model.parameter_dim))):
            for entry in (model.observe, model.predict):
                with pytest.raises(DimensionMismatch):
                    entry(bad)
        assert model.solve_count == before

    def test_evaluation_is_affine_in_the_path(self, lv_small):
        model, expansion = lv_small
        ev = evaluate_at(model, expansion)
        np.testing.assert_array_equal(ev.dr_modes, expansion.modes)
        np.testing.assert_array_equal(ev.d2r_diag, 0.0)
        np.testing.assert_allclose(ev.q0, model.observe(expansion.x0), rtol=1e-13)

    def test_bridge_prior_shape(self):
        model, expansion = build_lotka_volterra(n_modes=6, n_steps=200)
        assert expansion.modes.shape == (6, 201)
        t = model.tgrid
        np.testing.assert_allclose(
            expansion.modes[0], np.sqrt(2.0) * np.sin(np.pi * t) / np.pi, atol=1e-14
        )
        assert all(law.kind == "standard-normal" for law in expansion.laws)
