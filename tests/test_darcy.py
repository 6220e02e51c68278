import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import postpert
from postpert.darcy import (
    OBSERVATION_POINTS,
    STUDY_OBSERVATIONS,
    UNCENTERED_OFFSET,
    BandedStiffness,
    DarcyModel,
    DarcyProblem,
    _conductivity,
    _triangle_means,
    build_darcy,
    build_darcy_kle,
    darcy_noise_covariance,
)
from postpert.errors import DimensionMismatch, SolverFailure
from postpert.estimators import _BATCH, SampleBudget, estimate_posterior_sweep
from postpert.fem import build_unit_square_mesh, load_vector
from postpert.model_api import MeasurementSetup, evaluate_at
from postpert.prior import CLUSTER_RTOL

from oracles import (
    assemble_weighted_stiffness,
    expected_curvature_by_direction,
    fourier_poisson_center,
    gauss_solve,
    gradient_rhs_loop,
    jacobi_eigenvalues,
    observed_order,
    one_mode_bundle,
)

# Point observations of the forward solution at the constant reference b = 1,
# mesh level 3.  Frozen from a run of the partial-pivoting direct solver.
Q0_LEVEL_3 = np.array([0.02652868, 0.01619475, 0.01619475, 0.01619475, 0.01619475])


def _pressure_model(mesh):
    return DarcyModel(DarcyProblem(mesh), "r2")


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
        problem = DarcyProblem(mesh)
        banded = BandedStiffness(problem, b).solve(problem.f_int)
        np.testing.assert_allclose(banded, dense, rtol=0, atol=1e-13)
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

    def test_batch_width_validated(self, darcy_level_2):
        model, _ = darcy_level_2
        before = model.solve_count
        for bad in (np.zeros((3, model.parameter_dim + 1)), np.zeros(model.parameter_dim)):
            with pytest.raises(DimensionMismatch):
                model.solve_state_batch(bad)
        assert model.solve_count == before

    def test_batch_bits_do_not_depend_on_layout(self, darcy_level_3):
        """A sample-last block (the layout of realize_batch) and its
        row-major copy solve to the same bits, into row-major states."""
        model, expansion = darcy_level_3
        rng = np.random.default_rng(12)
        xs = expansion.realize_batch(rng.uniform(-1.0, 1.0, size=(6, expansion.n_modes)))
        sample_last = model.solve_state_batch(np.asfortranarray(xs))
        row_major = model.solve_state_batch(np.ascontiguousarray(xs))
        for states in (sample_last, row_major):
            assert states.b.flags.c_contiguous and states.u.flags.c_contiguous
            np.testing.assert_array_equal(states.b, xs)
        np.testing.assert_array_equal(sample_last.u, row_major.u)


class TestDerivativeSolves:
    def test_constant_direction_closed_form(self, mesh_level_2):
        """Along xi = 1 the solution is exp(-t) u0, so w1 = -u0 and w2 = u0."""
        b = np.ones(mesh_level_2.n_nodes)
        ev = one_mode_bundle(_pressure_model(mesh_level_2), b, np.ones(mesh_level_2.n_nodes))
        np.testing.assert_allclose(ev.dr_modes[0], -ev.r0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(ev.d2r_expected, ev.r0, rtol=0, atol=1e-14)

    def test_first_derivative_matches_central_difference(self, mesh_level_2):
        rng = np.random.default_rng(3)
        b = 0.2 * rng.normal(size=mesh_level_2.n_nodes)
        xi = rng.normal(size=mesh_level_2.n_nodes)
        model = _pressure_model(mesh_level_2)
        w1 = one_mode_bundle(model, b, xi).dr_modes[0]
        h = 1e-6
        fd = (model.predict(b + h * xi) - model.predict(b - h * xi)) / (2 * h)
        np.testing.assert_allclose(w1, fd, atol=1e-8)

    def test_second_derivative_matches_central_difference(self, mesh_level_2):
        rng = np.random.default_rng(4)
        b = 0.2 * rng.normal(size=mesh_level_2.n_nodes)
        xi = rng.normal(size=mesh_level_2.n_nodes)
        model = _pressure_model(mesh_level_2)
        ev = one_mode_bundle(model, b, xi)
        h = 1e-4
        fd = (model.predict(b + h * xi) - 2 * ev.r0 + model.predict(b - h * xi)) / (h * h)
        np.testing.assert_allclose(ev.d2r_expected, fd, atol=1e-6)


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

    def test_modes_agree_across_blas_thread_counts(self, tmp_path):
        """Level-4 KLEs from processes with one and with two OpenBLAS threads.

        LAPACK's rounding, signs and in-pair rotations move with the thread
        count; the canonical basis does not.  Modes inside a degenerate
        pair agree to 1e-12.  A distinct eigenvalue fixes its mode only to
        about eps * lambda_1 / gap, and the closest distinct pair here is
        4.1e-7 * lambda_1 apart, so the bound over all modes is 1e-10.
        """
        script = (
            "import sys, numpy as np\n"
            "from postpert.darcy import build_darcy_kle\n"
            "from postpert.fem import build_unit_square_mesh\n"
            "b = build_darcy_kle(build_unit_square_mesh(4), 1e-3)\n"
            "np.save(sys.argv[1], np.column_stack([b.eigenvalues, b.eigenfields]))\n"
        )
        src = str(Path(postpert.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"kle-{threads}.npy"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            )
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            runs.append(np.load(out))
        lam = runs[0][:, 0]
        diff = np.abs(runs[0][:, 1:] - runs[1][:, 1:]).max(axis=1)
        close = lam[:-1] - lam[1:] <= CLUSTER_RTOL * lam[0]
        paired = np.concatenate((close, [False])) | np.concatenate(([False], close))
        assert runs[0].shape == (24, 290) and paired.sum() >= 8
        np.testing.assert_allclose(runs[1][:, 0], lam, rtol=0, atol=1e-15 * lam[0])
        assert diff[paired].max() <= 1e-12
        assert diff.max() <= 1e-10

    def test_level_5_build_peaks_far_below_the_dense_one(self):
        """Under tracemalloc, build_darcy_kle(L5) peaked at 122 MiB while it
        held the whole kernel and a full eigensolve, and at 58 MiB with row
        blocks of the kernel and a subset solve.  Matrix-free, it holds a few
        dozen N-vectors (the Lanczos basis), the sparse mass factor and the
        modes, and peaks at about 1.9 MiB."""
        mesh = build_unit_square_mesh(5)
        build_darcy_kle(build_unit_square_mesh(2), 1e-3)  # module imports
        tracemalloc.start()
        try:
            build_darcy_kle(mesh, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_level_6_build_peaks_far_below_one_dense_matrix(self):
        """One 4225 x 4225 array is 136 MiB; the L6 build peaks at about
        7.4 MiB."""
        mesh = build_unit_square_mesh(6)
        build_darcy_kle(build_unit_square_mesh(2), 1e-3)  # module imports
        tracemalloc.start()
        try:
            basis = build_darcy_kle(mesh, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.eigenfields.shape == (24, mesh.n_nodes)
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestDarcyModel:
    def test_prediction_wiring(self, mesh_level_2):
        model_r1, _ = build_darcy(2, kle_tol=1e-2, prediction="r1")
        model_r2, _ = build_darcy(2, kle_tol=1e-2, prediction="r2")
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
        _, expansion = build_darcy(2, kle_tol=1e-2, centered=False)
        np.testing.assert_array_equal(expansion.coefficient_means(), UNCENTERED_OFFSET)

    def test_evaluation_affine_branch(self, darcy_level_2):
        model, expansion = darcy_level_2
        ev = evaluate_at(model, expansion)
        np.testing.assert_array_equal(ev.dr_modes, expansion.modes)
        np.testing.assert_array_equal(ev.d2r_expected, 0.0)
        np.testing.assert_allclose(ev.q0, model.observe(expansion.x0))

    def test_evaluation_curvature_branch(self, mesh_level_2):
        """Shifted laws keep the variances of the centered ones, so the two
        fields differ by the second derivative along the mean direction."""
        model, shifted = build_darcy(2, kle_tol=1e-2, centered=False, prediction="r2")
        _, centered = build_darcy(2, kle_tol=1e-2, prediction="r2")
        np.testing.assert_array_equal(
            shifted.coefficient_variances(), centered.coefficient_variances()
        )
        field = evaluate_at(model, shifted).d2r_expected
        centered_field = evaluate_at(model, centered).d2r_expected
        assert field.any() and centered_field.any()
        mean_dir = shifted.coefficient_means() @ shifted.modes
        along_mean = one_mode_bundle(model, shifted.x0, mean_dir).d2r_expected
        np.testing.assert_allclose(
            field - centered_field, along_mean, rtol=0, atol=1e-12 * np.abs(along_mean).max()
        )

    def test_linearize_agrees_with_evaluation(self, darcy_level_2):
        """linearize and both predictions' evaluate_at take Q and dQ from
        one adjoint path, so they agree bit for bit."""
        model, expansion = darcy_level_2
        q0, dq = model.linearize(expansion, expansion.x0)
        for prediction in ("r1", "r2"):
            ev = evaluate_at(DarcyModel(model.problem, prediction), expansion)
            np.testing.assert_array_equal(q0, ev.q0)
            np.testing.assert_array_equal(dq, ev.dq_modes)


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
        """dQ, dR along every mode, D^2 R along every mode and the mean
        direction (each from a one-mode bundle), and the bundle's
        E[D^2 R[z, z]], against central differences."""
        problem, expansion, reference = _draw_case(darcy_operator_cases, draw)
        model = DarcyModel(problem, "r2")
        ev = model.evaluate_at(expansion, reference)
        mean_dir = expansion.coefficient_means() @ expansion.modes
        directions = list(expansion.modes) + [mean_dir]
        second = np.array([one_mode_bundle(model, reference, xi).d2r_expected for xi in directions])
        weights = np.append(expansion.coefficient_variances(), 1.0)
        _, dq_linearized = model.linearize(expansion, reference)
        r0 = model.predict(reference)
        steps = (2e-2, 1e-2, 5e-3)
        errors = {"dq": [], "dq-linearize": [], "dr": [], "d2r": [], "d2r-expected": []}
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
            errors["dq-linearize"].append(np.linalg.norm(np.array(fd_q[:m]) - dq_linearized))
            errors["dr"].append(np.linalg.norm(np.array(fd_r[:m]) - ev.dr_modes))
            # the mean direction is zero under centered laws, with a zero error
            errors["d2r"].append(np.linalg.norm(np.array(fd2_r) - second))
            errors["d2r-expected"].append(np.linalg.norm(weights @ np.array(fd2_r) - ev.d2r_expected))
        for name, errs in errors.items():
            order = observed_order(steps, errs)
            assert order >= 1.9, f"{name}: order {order:.3f}, errors {errs}"

    @settings(max_examples=8, deadline=None)
    @given(draw=_reference_draws)
    def test_solve_counts(self, darcy_operator_cases, draw):
        """One forward and K adjoint solves behind Q and dQ everywhere; the
        pressure bundle adds M first-derivative solves and one solve for its
        second-order field, under centered and shifted laws alike."""
        problem, expansion, reference = _draw_case(darcy_operator_cases, draw)
        m, k = expansion.n_modes, len(OBSERVATION_POINTS)
        r1, r2 = DarcyModel(problem, "r1"), DarcyModel(problem, "r2")
        for model, call, expected in (
            (r1, "linearize", 1 + k),
            (r2, "linearize", 1 + k),
            (r1, "evaluate_at", 1 + k),
            (r2, "evaluate_at", 1 + k + m + 1),
        ):
            before = model.solve_count
            getattr(model, call)(expansion, reference)
            assert model.solve_count - before == expected, (model.prediction, call)


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


class TestExpectedCurvature:
    @pytest.mark.parametrize("shifted", [False, True], ids=["centered", "shifted"])
    @pytest.mark.parametrize("level", [2, 3])
    def test_equals_sum_of_one_mode_bundles(self, darcy_operator_cases, level, shifted):
        """The bundle's one-solve field equals sum_j Var[z_j] (one-mode bundle
        along mode_j) + (one-mode bundle along the mean direction)."""
        problem, centered, uncentered = darcy_operator_cases[level]
        expansion = uncentered if shifted else centered
        std = np.sqrt(expansion.coefficient_variances())
        reference = expansion.x0 + (0.5 * std) @ expansion.modes
        model = DarcyModel(problem, "r2")
        got = model.evaluate_at(expansion, reference).d2r_expected
        want = expected_curvature_by_direction(model, expansion, reference)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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


class TestConductivity:
    def test_in_place_sum_has_the_bits_of_the_triangle_means(self, mesh_level_3):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(7, mesh_level_3.n_nodes))
        t0, t1, t2 = mesh_level_3.triangles.T
        for b in (block, block[2]):
            got = _conductivity(mesh_level_3, b)
            np.testing.assert_array_equal(got, np.exp(_triangle_means(mesh_level_3, b)))
            # the out-of-place sum the in-place one replaces
            np.testing.assert_array_equal(got, np.exp((b[..., t0] + b[..., t1] + b[..., t2]) / 3.0))


class TestSweepMemory:
    def test_level_4_halton_sweep_holds_one_block(self):
        """A two-block r1 + r2 Halton sweep with the half split.  One
        block's row-major fields are 9.0 MiB and its conductivity table
        16 MiB.  Holding the previous block while the next was realized and
        solved, with four (B, T) arrays for one table, peaked at 88 MiB; one
        block at a time, with the table formed in place, peaks at about
        44 MiB: the fields, the table and one vertex gather."""
        r1, expansion = build_darcy(4, prediction="r1")
        models = [r1, DarcyModel(r1.problem, "r2")]
        expansion = expansion.with_alpha(0.125)
        meas = [MeasurementSetup(STUDY_OBSERVATIONS, darcy_noise_covariance())]

        def sweep(points):
            return estimate_posterior_sweep(
                models, expansion, meas, SampleBudget("halton", points), half_split=True
            )

        sweep(8)  # first-call imports and caches
        tracemalloc.start()
        try:
            sweep(2 * _BATCH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mesh = r1.problem.mesh
        fields, table = (_BATCH * n * 8 for n in (mesh.n_nodes, mesh.n_triangles))
        bound = 2 * (fields + table)
        assert peak < bound, f"peak {peak / 2 ** 20:.1f} MiB, bound {bound / 2 ** 20:.1f} MiB"


class TestStudyObservations:
    def test_residual_dominates_noise(self, mesh_level_3):
        """The study data must sit far outside the noise ball around q0."""
        assert STUDY_OBSERVATIONS.shape == OBSERVATION_POINTS.shape[:1]
        r = STUDY_OBSERVATIONS - Q0_LEVEL_3
        assert r @ darcy_noise_covariance().solve(r) > 1e3
