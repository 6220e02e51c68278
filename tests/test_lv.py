import math
import tracemalloc

import numpy as np
import pytest

from postpert.errors import DimensionMismatch, NonPositiveState
from postpert.estimators import SampleBudget, estimate_posterior_sweep
from postpert.lv import (
    CORRECTOR_SWEEPS,
    INITIAL_STATE,
    OBSERVED_DATA,
    LotkaVolterraModel,
    Trajectory,
    _coefficient_paths,
    _march,
    build_lotka_volterra,
    integrate,
    lv_noise_covariance,
    lv_observe,
    lv_time_grid,
    observation_indices,
)
from postpert.model_api import MeasurementSetup, evaluate_at
from postpert.prior import REALIZE_SLAB, AffineExpansion, CoefficientLaw, brownian_bridge_modes

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
        """Peak traced memory stays below the size of the input paths for a
        row-major and for a sample-last block: the march copies nothing,
        whatever the layout."""
        model = LotkaVolterraModel(n_steps=1000)
        for xs in (np.zeros((512, 1001)), np.zeros((1001, 512)).T):
            tracemalloc.start()
            try:
                model.solve_state_batch(xs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < xs.nbytes

    def test_march_bits_do_not_depend_on_layout(self):
        """A row-major block and its sample-last copy march to the same bits."""
        rng = np.random.default_rng(25)
        xs = np.cumsum(rng.normal(scale=0.3, size=(9, 201)), axis=1)
        record = observation_indices(200)
        row_major = _march(xs.T, 200, record)
        sample_last = _march(np.asfortranarray(xs).T, 200, record)
        for a, b in zip(row_major, sample_last):
            np.testing.assert_array_equal(a, b)

    def test_trajectory_length_validation(self):
        with pytest.raises(DimensionMismatch):
            Trajectory(lv_time_grid(4), np.zeros(5), np.zeros(5), np.zeros(4))


class TestVariationalSolves:
    """Observation derivatives of linearize, taken from the adjoint sweeps."""

    def test_matches_central_differences(self):
        model, expansion = build_lotka_volterra(n_modes=8, n_steps=200)
        _, dq = model.linearize(expansion, expansion.x0)
        h = 1e-4
        for mode, got in zip(expansion.modes, dq):
            fd = (model.observe(expansion.x0 + h * mode) - model.observe(expansion.x0 - h * mode)) / (
                2 * h
            )
            np.testing.assert_allclose(got, fd, atol=1e-5)

    def test_linearity_in_the_direction(self):
        model, expansion = build_lotka_volterra(n_modes=4, n_steps=200)
        doubled = AffineExpansion(expansion.x0, 2.0 * expansion.modes, expansion.laws)
        q, dq = model.linearize(expansion, expansion.x0)
        q2, dq2 = model.linearize(doubled, expansion.x0)
        np.testing.assert_array_equal(q2, q)
        np.testing.assert_array_equal(dq2, 2.0 * dq)

    def test_many_stacks_single_directions(self):
        """Up to the summation order of modes @ sensitivities, which BLAS
        picks by the number of modes."""
        model, expansion = build_lotka_volterra(n_modes=3, n_steps=200)
        _, stacked = model.linearize(expansion, expansion.x0)
        for m, mode in enumerate(expansion.modes):
            single = AffineExpansion(expansion.x0, mode[None], expansion.laws[:1])
            _, dq = model.linearize(single, expansion.x0)
            np.testing.assert_allclose(stacked[m], dq[0], rtol=0, atol=1e-14 * np.abs(dq).max())

    def test_matches_plain_loop_oracle(self):
        """Mode by mode against the tangent march of the plain-loop oracle,
        relative to each mode's largest derivative: the two sum the same
        terms in different orders (5.9e-15 measured)."""
        rng = np.random.default_rng(23)
        xi = np.cumsum(rng.normal(scale=0.3, size=201))
        model, expansion = build_lotka_volterra(n_modes=6, n_steps=200)
        q, dq = model.linearize(expansion, xi)
        np.testing.assert_array_equal(q, model.observe(xi))
        base = integrate(xi)
        idx = observation_indices(200)
        for mode, got in zip(expansion.modes, dq):
            v1, v2 = lv_variational_march(base.y1, base.y2, xi, mode, CORRECTOR_SWEEPS)
            want = np.empty(8)
            want[0::2], want[1::2] = v1[idx], v2[idx]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_direction_grid_must_match_base(self):
        model, expansion = build_lotka_volterra(n_modes=2, n_steps=100)
        with pytest.raises(DimensionMismatch):
            model.linearize(expansion, np.zeros(201))

    def test_solve_count_is_one_forward_plus_one_adjoint_per_observation(self):
        model, expansion = build_lotka_volterra(n_modes=12, n_steps=200)
        model.linearize(expansion, expansion.x0)
        assert model.solve_count == 1 + model.observation_dim


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

    def test_batch_width_validated(self, lv_small):
        """Paths on a coarser grid are refused; marching them would leave
        the observation slots past their end unwritten."""
        model, _ = lv_small
        before = model.solve_count
        coarse = np.zeros((3, model.n_steps // 2 + 1))
        with pytest.raises(DimensionMismatch):
            model.solve_state_batch(coarse)
        assert model.solve_count == before

    def test_evaluation_is_affine_in_the_path(self, lv_small):
        model, expansion = lv_small
        ev = evaluate_at(model, expansion)
        np.testing.assert_array_equal(ev.dr_modes, expansion.modes)
        np.testing.assert_array_equal(ev.d2r_expected, 0.0)
        np.testing.assert_allclose(ev.q0, model.observe(expansion.x0), rtol=1e-13)

    def test_bridge_prior_shape(self):
        model, expansion = build_lotka_volterra(n_modes=6, n_steps=200)
        assert expansion.modes.shape == (6, 201)
        t = model.tgrid
        np.testing.assert_allclose(
            expansion.modes[0], np.sqrt(2.0) * np.sin(np.pi * t) / np.pi, atol=1e-14
        )
        assert all(law.kind == "standard-normal" for law in expansion.laws)


class _Forwarding:
    """Forwards every attribute to its target, as a tracing wrapper does; an
    isinstance check on it fails."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _bridge_expansion(n_points, n_modes=5, alpha=0.7):
    """Bridge modes on n_points time points about a nonzero ramp."""
    t = np.linspace(0.0, 1.0, n_points)
    return AffineExpansion(
        x0=0.3 * t - 0.1,
        modes=brownian_bridge_modes(n_modes, t),
        laws=tuple(CoefficientLaw.standard_normal() for _ in range(n_modes)),
        alpha=alpha,
    )


class TestCoefficientSlabs:
    """Paths realized a slab of time points at a time, from coefficients."""

    @pytest.mark.parametrize(
        "n_points", [REALIZE_SLAB - 1, REALIZE_SLAB, REALIZE_SLAB + 1, 3 * REALIZE_SLAB + 5]
    )
    @pytest.mark.parametrize("batch", [1, REALIZE_SLAB - 1, REALIZE_SLAB + 1, 100])
    def test_equals_march_on_realized_block(self, n_points, batch):
        """Bit for bit, for grids shorter than, equal to and longer than a
        slab, ending inside one, and for batches of one and around a slab."""
        expansion = _bridge_expansion(n_points)
        native = np.random.default_rng(n_points + batch).standard_normal((batch, 5))
        record = range(0, n_points, 7)
        got = _march(_coefficient_paths(expansion, expansion.coefficients(native)), n_points - 1, record)
        want = _march(expansion.realize_batch(native).T, n_points - 1, record)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_model_observes_the_realized_block(self):
        model, expansion = build_lotka_volterra(n_modes=20, n_steps=200)
        expansion = expansion.with_alpha(0.5)
        native = np.random.default_rng(26).standard_normal((300, 20))
        before = model.solve_count
        got = model.solve_coefficient_batch(expansion, expansion.coefficients(native))
        assert model.solve_count - before == 300
        want = model.solve_state_batch(expansion.realize_batch(native))
        np.testing.assert_array_equal(got.observed, want.observed)
        with pytest.raises(DimensionMismatch, match="no paths"):
            model.predict_state_batch(got)

    def test_collapsing_row_names_the_step_of_integrate(self):
        """Only the middle row collapses, and at the step integrate reports
        for its realized path."""
        t = lv_time_grid(200)
        step = np.where(t >= 0.45, -1.0, 0.0)
        expansion = AffineExpansion(
            x0=np.zeros(201),
            modes=np.array([np.sin(np.pi * t), step]),
            laws=(CoefficientLaw.standard_normal(),) * 2,
        )
        z = np.array([[0.3, 0.1, -0.2], [0.0, 400.0, 0.0]])
        with pytest.raises(NonPositiveState) as alone:
            integrate(expansion.realize_batch(z.T[1:2])[0])  # normal laws: z is native
        with pytest.raises(NonPositiveState) as batch:
            LotkaVolterraModel(n_steps=200).solve_coefficient_batch(expansion, z)
        assert str(alone.value).endswith("at step 90")
        assert str(batch.value) == str(alone.value)

    def test_nan_path_neither_raises_nor_hides_a_collapse(self):
        model, expansion = build_lotka_volterra(n_modes=3, n_steps=100)
        z = np.zeros((3, 2))
        z[0, 0] = np.nan
        assert np.isnan(model.solve_coefficient_batch(expansion, z[:, :1]).observed).all()
        z[:, 1] = -1e5
        with pytest.raises(NonPositiveState):
            model.solve_coefficient_batch(expansion, z)

    def test_expansion_of_another_grid_is_refused(self):
        model, _ = build_lotka_volterra(n_modes=3, n_steps=100)
        _, other = build_lotka_volterra(n_modes=3, n_steps=200)
        with pytest.raises(DimensionMismatch, match="parameter_dim"):
            model.solve_coefficient_batch(other, np.zeros((3, 2)))
        assert model.solve_count == 0

    def test_expansion_is_read_through_attributes(self):
        """A wrapper that forwards attributes, as the benchmark's tracer
        passes, solves and sweeps to the same bits."""
        model, expansion = build_lotka_volterra(n_modes=10, n_steps=200)
        expansion = expansion.with_alpha(0.25)
        z = expansion.coefficients(np.random.default_rng(27).standard_normal((50, 10)))
        np.testing.assert_array_equal(
            model.solve_coefficient_batch(_Forwarding(expansion), z).observed,
            model.solve_coefficient_batch(expansion, z).observed,
        )
        meas = [MeasurementSetup(OBSERVED_DATA, lv_noise_covariance(10.0))]
        budget = SampleBudget("antithetic-mc", 300)
        got = estimate_posterior_sweep([_Forwarding(model)], _Forwarding(expansion), meas, budget)
        want = estimate_posterior_sweep([model], expansion, meas, budget)
        for name in ("mean", "correlation", "covariance"):
            np.testing.assert_array_equal(getattr(got[0][0], name), getattr(want[0][0], name))
