import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postpert.darcy import (
    OBSERVATION_POINTS,
    STUDY_OBSERVATIONS,
    BandedStiffness,
    DarcyModel,
    DarcyProblem,
    build_darcy,
    build_darcy_kle,
    darcy_noise_covariance,
)
from postpert.errors import DimensionMismatch, SolverFailure
from postpert.fem import assemble_weighted_stiffness, build_unit_square_mesh, load_vector
from postpert.model_api import evaluate_at
from postpert.prior import AffineExpansion, CoefficientLaw

from oracles import (
    fourier_poisson_center,
    gauss_solve,
    gradient_rhs_loop,
    jacobi_eigenvalues,
    observed_order,
)

# Point observations of the forward solution at the constant reference b = 1,
# mesh level 3.  Frozen from a run of the partial-pivoting direct solver.
Q0_LEVEL_3 = np.array([0.02652868, 0.01619475, 0.01619475, 0.01619475, 0.01619475])


def _pressure_model(mesh):
    return DarcyModel(DarcyProblem(mesh), "r2")


def _along(model, b, xi):
    """Derivative bundle at b of an expansion whose one mode is xi."""
    expansion = AffineExpansion(x0=b, modes=xi[None], laws=(CoefficientLaw.standard_normal(),))
    return evaluate_at(model, expansion)


class TestNoiseCovariance:
    def test_entries(self):
        sig = darcy_noise_covariance().entries
        assert sig.shape == (5, 5)
        np.testing.assert_allclose(np.diag(sig), 0.005)
        off = sig[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off, 0.001)

    def test_spectrum(self):
        """(J + 4I)/1000 has one eigenvalue (5+4)/1000 and four (0+4)/1000."""
        eigs = jacobi_eigenvalues(darcy_noise_covariance().entries.tolist())
        np.testing.assert_allclose(eigs, [0.009, 0.004, 0.004, 0.004, 0.004], rtol=0, atol=1e-14)


class TestForwardSolve:
    def test_reference_observations_level_3(self, mesh_level_3):
        q0 = _pressure_model(mesh_level_3).observe(np.ones(mesh_level_3.n_nodes))
        np.testing.assert_allclose(q0, Q0_LEVEL_3, atol=1e-8)
        # the four outer points are grid-symmetric images of each other
        np.testing.assert_allclose(q0[1:], q0[1], rtol=1e-13)

    def test_poisson_center_against_series(self, mesh_level_3):
        center = _pressure_model(mesh_level_3).observe(np.zeros(mesh_level_3.n_nodes))[0]
        assert center == pytest.approx(fourier_poisson_center(100), abs=2e-3)

    def test_constant_log_coefficient_rescales_solution(self, mesh_level_2):
        """exp(b + c) scales the operator, so u(b + c) = exp(-c) u(b) exactly."""
        rng = np.random.default_rng(7)
        b = 0.3 * rng.normal(size=mesh_level_2.n_nodes)
        model = _pressure_model(mesh_level_2)
        u = model.predict(b)
        shifted = model.predict(b + 0.8)
        np.testing.assert_allclose(shifted, np.exp(-0.8) * u, rtol=1e-13)

    def test_banded_path_matches_dense_factorization(self, mesh_level_3):
        """The banded solve and the model's pressure prediction against pivoted
        elimination on the dense interior block of the independently
        assembled stiffness matrix."""
        mesh = mesh_level_3
        rng = np.random.default_rng(11)
        b = 0.4 * rng.normal(size=mesh.n_nodes)
        idx = mesh.interior
        coef = np.exp(b[mesh.triangles].mean(axis=1))
        dense = np.zeros(mesh.n_nodes)
        dense[idx] = gauss_solve(
            assemble_weighted_stiffness(mesh, coef)[np.ix_(idx, idx)], load_vector(mesh)[idx]
        )
        np.testing.assert_allclose(DarcyProblem(mesh).solve_banded(b), dense, rtol=0, atol=1e-13)
        np.testing.assert_allclose(_pressure_model(mesh).predict(b), dense, rtol=0, atol=1e-13)

    def test_overflowing_coefficient_raises_without_warning(self, mesh_level_2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure):
                _pressure_model(mesh_level_2).observe(np.full(mesh_level_2.n_nodes, 2000.0))

    @pytest.mark.parametrize("entry", ["linearize", "evaluate_at"])
    def test_overflowing_coefficient_in_model_raises_without_warning(self, darcy_level_2, entry):
        model, expansion = darcy_level_2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure):
                getattr(model, entry)(expansion, np.full(model.parameter_dim, 2000.0))

    @pytest.mark.parametrize("entry", ["observe", "linearize", "evaluate_at"])
    @pytest.mark.parametrize("level", [-2000.0, 709.0])
    def test_factorization_breakdown_raises_solver_failure(self, darcy_level_2, entry, level):
        """exp(-2000) underflows to a zero stiffness matrix, which has no
        Cholesky factor; exp(709) is finite but the assembled band overflows.
        Every path reports both as the same error."""
        model, expansion = darcy_level_2
        b = np.full(model.parameter_dim, level)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="factorization"):
                if entry == "observe":
                    model.observe(b)
                else:
                    getattr(model, entry)(expansion, b)

    def test_observe_requires_fem_field(self, darcy_level_2):
        """observe and predict take one nodal field, not a stack of them."""
        model, _ = darcy_level_2
        fields = np.zeros((2, model.parameter_dim))
        for entry in (model.observe, model.predict):
            with pytest.raises(DimensionMismatch):
                entry(fields)

    def test_field_length_validated(self, darcy_level_2):
        model, _ = darcy_level_2
        before = model.solve_count
        for entry in (model.observe, model.predict):
            with pytest.raises(DimensionMismatch):
                entry(np.zeros(7))
        assert model.solve_count == before


class TestDerivativeSolves:
    def test_constant_direction_closed_form(self, mesh_level_2):
        """Along xi = 1 the solution is exp(-t) u0, so w1 = -u0 and w2 = u0."""
        b = np.ones(mesh_level_2.n_nodes)
        ev = _along(_pressure_model(mesh_level_2), b, np.ones(mesh_level_2.n_nodes))
        np.testing.assert_allclose(ev.dr_modes[0], -ev.r0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(ev.d2r_diag[0], ev.r0, rtol=0, atol=1e-14)

    def test_first_derivative_matches_central_difference(self, mesh_level_2):
        rng = np.random.default_rng(3)
        b = 0.2 * rng.normal(size=mesh_level_2.n_nodes)
        xi = rng.normal(size=mesh_level_2.n_nodes)
        model = _pressure_model(mesh_level_2)
        w1 = _along(model, b, xi).dr_modes[0]
        h = 1e-6
        fd = (model.predict(b + h * xi) - model.predict(b - h * xi)) / (2 * h)
        np.testing.assert_allclose(w1, fd, atol=1e-8)

    def test_second_derivative_matches_central_difference(self, mesh_level_2):
        rng = np.random.default_rng(4)
        b = 0.2 * rng.normal(size=mesh_level_2.n_nodes)
        xi = rng.normal(size=mesh_level_2.n_nodes)
        model = _pressure_model(mesh_level_2)
        ev = _along(model, b, xi)
        h = 1e-4
        fd = (model.predict(b + h * xi) - 2 * ev.r0 + model.predict(b - h * xi)) / (h * h)
        np.testing.assert_allclose(ev.d2r_diag[0], fd, atol=1e-6)


class TestKleBasis:
    @pytest.mark.parametrize(
        "level,tol,count", [(2, 1e-2, 12), (3, 1e-3, 22), (4, 1e-3, 24), (4, 1e-5, 45)]
    )
    def test_retained_mode_counts(self, level, tol, count):
        mesh = build_unit_square_mesh(level)
        basis = build_darcy_kle(mesh, tol)
        assert len(basis.eigenvalues) == count
        assert len(basis.eigenvalues) == count

    def test_spectrum_and_orthonormality(self, mesh_level_3):
        from postpert.fem import assemble_mass

        basis = build_darcy_kle(mesh_level_3, 1e-3)
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam > 1e-3 * lam[0])
        sparse = assemble_mass(mesh_level_3)
        for mass in (sparse, sparse.toarray()):
            gram = basis.eigenfields @ (mass @ basis.eigenfields.T)
            np.testing.assert_allclose(gram, np.eye(len(lam)), atol=1e-8)


class TestDarcyModel:
    def test_prediction_wiring(self, mesh_level_2):
        model_r1, _ = build_darcy(2, kle_tol=1e-2, prediction="r1")
        model_r2, _ = build_darcy(2, kle_tol=1e-2, prediction="r2")
        assert (model_r1.name, model_r2.name) == ("darcy-r1", "darcy-r2")
        assert model_r1.field_norm_name == "l2"
        b = np.ones(model_r1.parameter_dim)
        states = model_r1.solve_state_batch(b[None])
        np.testing.assert_array_equal(model_r1.predict_state_batch(states), b[None])
        np.testing.assert_array_equal(model_r2.predict_state_batch(states), states.u)
        with pytest.raises(DimensionMismatch):
            build_darcy(2, prediction="r3")

    def test_centered_laws_carry_kle_variances(self):
        _, expansion = build_darcy(2, kle_tol=1e-2, centered=True)
        basis = build_darcy_kle(build_unit_square_mesh(2), 1e-2)
        np.testing.assert_allclose(
            expansion.coefficient_variances(), basis.eigenvalues / 3.0, rtol=1e-12
        )
        np.testing.assert_array_equal(expansion.coefficient_means(), 0.0)

    def test_uncentered_laws_shift_every_mode(self):
        _, expansion = build_darcy(2, kle_tol=1e-2, centered=False, offset=0.1)
        np.testing.assert_allclose(expansion.coefficient_means(), 0.1)

    def test_evaluation_affine_branch(self, darcy_level_2):
        model, expansion = darcy_level_2
        ev = evaluate_at(model, expansion)
        np.testing.assert_array_equal(ev.dr_modes, expansion.modes)
        np.testing.assert_array_equal(ev.d2r_diag, 0.0)
        np.testing.assert_allclose(ev.q0, model.observe(expansion.x0))

    def test_evaluation_curvature_branch(self, mesh_level_2):
        model, expansion = build_darcy(2, kle_tol=1e-2, centered=False, prediction="r2")
        ev = evaluate_at(model, expansion)
        assert ev.d2r_diag.any()
        assert ev.d2r_meandir.any()
        centered_model, centered_exp = build_darcy(2, kle_tol=1e-2, prediction="r2")
        np.testing.assert_array_equal(
            evaluate_at(centered_model, centered_exp).d2r_meandir, 0.0
        )

    def test_linearize_agrees_with_evaluation(self, darcy_level_2):
        model, expansion = darcy_level_2
        q0, dq = model.linearize(expansion, expansion.x0)
        ev = evaluate_at(model, expansion)
        np.testing.assert_allclose(q0, ev.q0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(dq, ev.dq_modes, rtol=0, atol=1e-14)


@pytest.fixture(scope="module")
def darcy_operator_cases():
    """Level -> (problem, centered expansion, shifted expansion)."""
    cases = {}
    for level, tol in ((2, 1e-2), (3, 1e-3)):
        model, centered = build_darcy(level, kle_tol=tol, centered=True)
        _, shifted = build_darcy(level, kle_tol=tol, centered=False)
        cases[level] = (model.problem, centered, shifted)
    return cases


# level, shifted laws or not, and coefficients in [-1, 1] for up to 22 modes
_reference_draws = st.tuples(
    st.sampled_from((2, 3)),
    st.booleans(),
    st.lists(st.floats(-1.0, 1.0), min_size=22, max_size=22),
)


def _draw_case(cases, draw):
    """Problem, expansion and a bounded reference x0 + sum_j z_j std_j mode_j."""
    level, shifted, z = draw
    problem, centered, uncentered = cases[level]
    expansion = uncentered if shifted else centered
    std = np.sqrt(expansion.coefficient_variances())
    reference = expansion.x0 + (np.asarray(z[: expansion.n_modes]) * std) @ expansion.modes
    return problem, expansion, reference


class TestBandedOperatorProperties:
    """The one operator behind forward, derivative and per-sample solves,
    checked at random references through the ForwardModel interface."""

    @settings(max_examples=8, deadline=None)
    @given(draw=_reference_draws)
    def test_multi_rhs_solve_equals_column_solves(self, darcy_operator_cases, draw):
        problem, expansion, reference = _draw_case(darcy_operator_cases, draw)
        op = BandedStiffness(problem, reference)
        u0 = op.solve(problem.f_int)
        xibars = expansion.modes[:, problem.mesh.triangles].mean(axis=2)
        rhs = op.first_order_rhs(xibars, u0)
        together = op.solve(rhs)
        one_by_one = np.column_stack([op.solve(rhs[:, j]) for j in range(rhs.shape[1])])
        np.testing.assert_allclose(together, one_by_one, rtol=0, atol=1e-13 * np.abs(one_by_one).max())

    @settings(max_examples=8, deadline=None)
    @given(draw=_reference_draws)
    def test_r2_derivatives_match_central_differences(self, darcy_operator_cases, draw):
        problem, expansion, reference = _draw_case(darcy_operator_cases, draw)
        model = DarcyModel(problem, "r2")
        ev = model.evaluate_at(expansion, reference)
        directions = list(expansion.modes)
        second = list(ev.d2r_diag)
        mean_dir = expansion.coefficient_means() @ expansion.modes
        if mean_dir.any():
            directions.append(mean_dir)
            second.append(ev.d2r_meandir)
        r0 = model.predict(reference)
        steps = (2e-2, 1e-2, 5e-3)
        errors = {"dq": [], "dr": [], "d2r": []}
        for h in steps:
            fd_q, fd_r, fd2_r = [], [], []
            for xi in directions:
                q_plus, q_minus = model.observe(reference + h * xi), model.observe(reference - h * xi)
                r_plus, r_minus = model.predict(reference + h * xi), model.predict(reference - h * xi)
                fd_q.append((q_plus - q_minus) / (2 * h))
                fd_r.append((r_plus - r_minus) / (2 * h))
                fd2_r.append((r_plus - 2.0 * r0 + r_minus) / (h * h))
            m = expansion.n_modes
            errors["dq"].append(np.linalg.norm(np.array(fd_q[:m]) - ev.dq_modes))
            errors["dr"].append(np.linalg.norm(np.array(fd_r[:m]) - ev.dr_modes))
            errors["d2r"].append(np.linalg.norm(np.array(fd2_r) - np.array(second)))
        for name, errs in errors.items():
            order = observed_order(steps, errs)
            assert order >= 1.9, f"{name}: order {order:.3f}, errors {errs}"

    @settings(max_examples=8, deadline=None)
    @given(draw=_reference_draws)
    def test_solve_counts(self, darcy_operator_cases, draw):
        problem, expansion, reference = _draw_case(darcy_operator_cases, draw)
        m = expansion.n_modes
        shifted = bool(expansion.coefficient_means().any())
        r1, r2 = DarcyModel(problem, "r1"), DarcyModel(problem, "r2")
        for model, call, expected in (
            (r1, "linearize", 1 + m),
            (r2, "linearize", 1 + m),
            (r1, "evaluate_at", 1 + m),
            (r2, "evaluate_at", (3 if shifted else 1) + 2 * m),
        ):
            before = model.solve_count
            getattr(model, call)(expansion, reference)
            assert model.solve_count - before == expected, (model.name, call)


class TestFirstOrderRightHandSides:
    @pytest.mark.parametrize("shifted", [False, True], ids=["centered", "shifted"])
    @pytest.mark.parametrize("level", [2, 3])
    def test_matches_loop_oracle(self, darcy_operator_cases, level, shifted):
        """The one-product scatter against a per-triangle, per-mode loop, for
        the mode directions and, under shifted laws, the mean direction."""
        problem, centered, uncentered = darcy_operator_cases[level]
        expansion = uncentered if shifted else centered
        directions = expansion.modes
        if shifted:
            mean_dir = expansion.coefficient_means() @ expansion.modes
            directions = np.vstack([directions, mean_dir])
        # a non-constant field, so the conductivity differs between triangles
        std = np.sqrt(expansion.coefficient_variances())
        reference = expansion.x0 + (0.5 * std) @ expansion.modes
        op = BandedStiffness(problem, reference)
        u0 = op.solve(problem.f_int)
        xibars = directions[:, problem.mesh.triangles].mean(axis=2)
        got = op.first_order_rhs(xibars, u0)
        want = gradient_rhs_loop(problem.mesh, reference, directions, u0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestProblemMemory:
    def test_level_6_problem_holds_no_dense_matrix(self):
        """Building the level-6 problem stays below a quarter of one dense
        N x N array (143 MB at N = 4225)."""
        mesh = build_unit_square_mesh(6)
        bound = mesh.n_nodes ** 2 * 8 / 4
        tracemalloc.start()
        try:
            DarcyProblem(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


class TestStudyObservations:
    def test_residual_dominates_noise(self, mesh_level_3):
        """The study data must sit far outside the noise ball around q0."""
        assert STUDY_OBSERVATIONS.shape == OBSERVATION_POINTS.shape[:1]
        r = STUDY_OBSERVATIONS - Q0_LEVEL_3
        assert r @ darcy_noise_covariance().solve(r) > 1e3
