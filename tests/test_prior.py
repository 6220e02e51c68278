import csv
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from postpert import prior
from postpert.cli import StudyConfig, run_kle_dump
from postpert.darcy import KERNEL_GAMMA
from postpert.errors import ConvergenceFailure, DimensionMismatch, EmptyBasis
from postpert.fem import TriangularMesh, assemble_mass, build_unit_square_mesh
from postpert.prior import (
    CLUSTER_RTOL,
    MODE_PROBE_SEED,
    AffineExpansion,
    CoefficientLaw,
    brownian_bridge_modes,
    build_kle,
)

from oracles import (
    broadcast_gaussian_kernel,
    dense_mass,
    gaussian_kernel,
    generalized_eigenvalues,
    kle_full_eigh,
    kle_galerkin,
)


class TestCoefficientLaw:
    def test_uniform_symmetric_moments(self):
        law = CoefficientLaw.uniform_symmetric(0.6)
        assert (law.mean, law.variance) == (0.0, pytest.approx(0.12))

    def test_uniform_shifted_moments(self):
        law = CoefficientLaw.uniform_shifted(0.6, -0.2)
        assert law.mean == -0.2
        assert law.variance == pytest.approx(0.12)

    def test_standard_normal_moments(self):
        law = CoefficientLaw.standard_normal()
        assert (law.mean, law.variance) == (0.0, 1.0)

    def test_map_draw_affine_transport(self):
        law = CoefficientLaw.uniform_shifted(2.0, 0.5)
        np.testing.assert_allclose(law.map_draw([-1.0, 0.0, 1.0]), [-1.5, 0.5, 2.5])
        normal = CoefficientLaw.standard_normal()
        np.testing.assert_array_equal(normal.map_draw([0.3, -1.2]), [0.3, -1.2])

    def test_sampling_ranges(self):
        rng = np.random.default_rng(0)
        u = CoefficientLaw.uniform_symmetric(1.0).sample_native(rng, 1000)
        assert np.all(np.abs(u) <= 1.0)
        z = CoefficientLaw.standard_normal().sample_native(rng, 1000)
        assert abs(z.mean()) < 0.15 and abs(z.std() - 1.0) < 0.1

    def test_sample_moments_match_law(self):
        rng = np.random.default_rng(1)
        law = CoefficientLaw.uniform_shifted(0.9, 0.4)
        z = law.map_draw(law.sample_native(rng, 200_000))
        assert z.mean() == pytest.approx(law.mean, abs=5e-3)
        assert z.var() == pytest.approx(law.variance, rel=2e-2)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            CoefficientLaw("lognormal")
        with pytest.raises(DimensionMismatch):
            CoefficientLaw.uniform_symmetric(0.0)


class TestAffineExpansion:
    def _expansion(self, alpha=0.5):
        return AffineExpansion(
            x0=np.array([1.0, 2.0, 3.0]),
            modes=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]]),
            laws=(
                CoefficientLaw.uniform_symmetric(2.0),
                CoefficientLaw.uniform_shifted(1.0, 0.25),
            ),
            alpha=alpha,
        )

    def test_realize_applies_scale_and_laws(self):
        exp = self._expansion()
        got = exp.realize_batch(np.array([[1.0, -1.0]]))
        # z = (2.0, -0.75), scaled by alpha = 0.5
        np.testing.assert_allclose(got, [[1.0 + 1.0, 2.0 - 0.375, 3.0 + 0.375]])

    def test_realize_batch_matches_loop(self):
        exp = self._expansion()
        rng = np.random.default_rng(3)
        u = rng.uniform(-1.0, 1.0, size=(6, 2))
        batch = exp.realize_batch(u)
        for k in range(6):
            z = np.array([law.map_draw(d) for law, d in zip(exp.laws, u[k])])
            np.testing.assert_allclose(
                batch[k], exp.x0 + exp.alpha * (z @ exp.modes), rtol=1e-14, atol=0
            )

    def test_realize_batch_is_sample_last(self):
        """Each field coordinate is one contiguous column across the batch."""
        out = self._expansion().realize_batch(np.zeros((5, 2)))
        assert out.shape == (5, 3)
        assert out.T.flags.c_contiguous

    def test_realize_batch_makes_no_full_size_temporary(self):
        """Peak traced memory is the output plus one mapped copy of the
        draws, with slack for numpy's 64 KiB ufunc buffer (the broadcast
        shift by x0 takes one): no second (batch, dim) array is made."""
        rng = np.random.default_rng(4)
        dim, n_modes, batch = 1001, 100, 512
        exp = AffineExpansion(
            x0=np.ones(dim),
            modes=rng.normal(size=(n_modes, dim)),
            laws=(CoefficientLaw.uniform_shifted(0.5, 0.1),) * n_modes,
            alpha=0.25,
        )
        u = rng.uniform(-1.0, 1.0, size=(batch, n_modes))
        tracemalloc.start()
        try:
            out = exp.realize_batch(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, dim)
        assert peak < out.nbytes + u.nbytes + 128 * 1024

    def test_point_from_shift_ignores_alpha(self):
        exp = self._expansion(alpha=0.125)
        got = exp.point_from_shift(np.array([1.0, 2.0]))
        np.testing.assert_allclose(got, [2.0, 4.0, 1.0])

    def test_with_alpha_keeps_everything_else(self):
        exp = self._expansion()
        other = exp.with_alpha(0.03)
        assert other.alpha == 0.03
        assert other.laws == exp.laws
        np.testing.assert_array_equal(other.modes, exp.modes)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            AffineExpansion(np.zeros(3), np.ones((2, 4)), (CoefficientLaw.standard_normal(),) * 2)
        with pytest.raises(DimensionMismatch):
            AffineExpansion(np.zeros(3), np.ones((2, 3)), (CoefficientLaw.standard_normal(),))
        with pytest.raises(EmptyBasis):
            AffineExpansion(np.zeros(3), np.ones((0, 3)), ())
        with pytest.raises(DimensionMismatch):
            self._expansion(alpha=0.0)
        with pytest.raises(DimensionMismatch):
            self._expansion().realize_batch(np.zeros((1, 3)))

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        with pytest.raises(DimensionMismatch, match="finite"):
            self._expansion(alpha=alpha)
        with pytest.raises(DimensionMismatch, match="finite"):
            self._expansion().with_alpha(alpha)


class TestKle:
    def test_trace_bounded_by_kernel_diagonal(self, mesh_level_3):
        """Retained spectrum cannot exceed the full trace, here exactly 1."""
        basis = build_kle(KERNEL_GAMMA, mesh_level_3, 1e-8)
        assert basis.eigenvalues.sum() <= 1.0 + 1e-8

    def test_impossible_threshold_raises(self, mesh_level_2):
        with pytest.raises(EmptyBasis):
            build_kle(KERNEL_GAMMA, mesh_level_2, 2.0)

    def test_wide_kernel_concentrates_on_one_mode(self, mesh_level_2):
        """gamma -> 0 flattens the kernel, so the constant mode carries it all."""
        basis = build_kle(1e-12, mesh_level_2, 1e-6)
        assert len(basis.eigenvalues) == 1
        assert basis.eigenvalues[0] == pytest.approx(1.0, rel=1e-6)
        spread = basis.eigenfields[0].max() - basis.eigenfields[0].min()
        assert spread < 1e-6

    def test_eigensolver_failure_becomes_convergence_failure(self, mesh_level_2, monkeypatch):
        """Both solvers: dense eigh on the small mesh, ARPACK on the larger one."""

        def dense_fails(*args, **kwargs):
            raise scipy.linalg.LinAlgError("the leading minor of order 3 is not positive")

        monkeypatch.setattr(prior, "eigh", dense_fails)
        with pytest.raises(ConvergenceFailure, match="leading minor"):
            build_kle(KERNEL_GAMMA, mesh_level_2, 1e-3)

        mesh = build_unit_square_mesh(4)
        for error in (
            scipy.sparse.linalg.ArpackNoConvergence("no convergence after 10 restarts", [], []),
            scipy.sparse.linalg.ArpackError(-9999),
        ):

            def lanczos_fails(*args, error=error, **kwargs):
                raise error

            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lanczos_fails)
            with pytest.raises(ConvergenceFailure, match="eigensolver failed"):
                build_kle(KERNEL_GAMMA, mesh, 1e-3)

    def test_small_meshes_take_the_dense_solve(self, monkeypatch):
        """L1 and L2 have 9 and 25 nodes, fewer than twice the first request
        of 32 pairs, so ARPACK (which needs fewer pairs than nodes) is never
        called; the dense solve of the same operator gives the oracle's modes."""

        def lanczos_called(*args, **kwargs):
            raise AssertionError("eigsh called on a small mesh")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lanczos_called)
        for level in (1, 2):
            mesh = build_unit_square_mesh(level)
            basis = build_kle(KERNEL_GAMMA, mesh, 1e-8)
            values, fields = kle_full_eigh(gaussian_kernel(KERNEL_GAMMA), mesh, 1e-8)
            np.testing.assert_allclose(basis.eigenvalues, values, rtol=0, atol=1e-15 * values[0])
            assert np.abs(basis.eigenfields - fields).max() <= 1e-10

    def test_grown_request_switches_to_the_dense_solve(self, monkeypatch):
        """A wide kernel at L4 keeps 228 of 289 modes.  The first request
        (32 pairs) goes to ARPACK; the grown one (128, past N/8) goes to the
        dense solve, not to a second Lanczos run.  The modes match the dense
        oracle within the L4 bound of test_modes_match_full_dense_eigh."""
        requests = []
        lanczos = scipy.sparse.linalg.eigsh

        def counted(operator, k, **kwargs):
            requests.append(k)
            return lanczos(operator, k, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        mesh = build_unit_square_mesh(4)
        basis = build_kle(250.0, mesh, 1e-2)
        assert requests == [32]
        values, fields = kle_full_eigh(gaussian_kernel(250.0), mesh, 1e-2)
        assert len(values) == 228
        np.testing.assert_allclose(basis.eigenvalues, values, rtol=1e-13, atol=0)
        assert np.abs(basis.eigenfields - fields).max() <= 1e-10

    def test_off_lattice_mesh_raises(self):
        """Jittered interior nodes scatter the centroids off any lattice, so
        the separable product would need a grid far larger than the mesh."""
        mesh = build_unit_square_mesh(3)
        nodes = mesh.nodes.copy()
        jitter = np.random.default_rng(3).uniform(-0.1, 0.1, nodes.shape) / 2 ** 3
        nodes[mesh.interior] += jitter[mesh.interior]
        moved = TriangularMesh(nodes, mesh.triangles, mesh.boundary_mask)
        with pytest.raises(DimensionMismatch, match="lattice"):
            build_kle(KERNEL_GAMMA, moved, 1e-3)

    def test_spectrum_descends_with_mass_orthonormal_modes(self, mesh_level_3):
        basis = build_kle(KERNEL_GAMMA, mesh_level_3, 1e-6)
        lam = basis.eigenvalues
        assert len(lam) > 32  # past the first eigensolve
        assert np.all(np.diff(lam) <= 0.0)
        gram = basis.eigenfields @ (assemble_mass(mesh_level_3) @ basis.eigenfields.T)
        np.testing.assert_allclose(gram, np.eye(len(lam)), rtol=0, atol=1e-12)

    def test_eigenpairs_solve_the_galerkin_pencil(self, mesh_level_2):
        """Eigenvalues against the Jacobi oracle on the dense pencil, and each
        returned mode against the pencil residual G v - lambda M v."""
        basis = build_kle(KERNEL_GAMMA, mesh_level_2, 1e-8)
        g = kle_galerkin(broadcast_gaussian_kernel(KERNEL_GAMMA), mesh_level_2)
        m = dense_mass(mesh_level_2)
        lam = basis.eigenvalues
        expected = generalized_eigenvalues(g, m)[: len(lam)]
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-13 * lam[0])
        for value, field in zip(lam, basis.eigenfields):
            residual = g @ field - value * (m @ field)
            assert np.abs(residual).max() <= 1e-14 * lam[0]

    def test_degenerate_pairs_get_the_canonical_basis(self):
        """The mesh is symmetric under swapping x and y, so the spectrum has
        equal pairs.  Both modes of a pair are kept, and W^T M V is lower
        triangular with a positive diagonal for the probe rows W."""
        mesh = build_unit_square_mesh(4)
        basis = build_kle(KERNEL_GAMMA, mesh, 1e-3)
        lam = basis.eigenvalues
        pairs = np.flatnonzero(lam[:-1] - lam[1:] <= CLUSTER_RTOL * lam[0])
        assert len(pairs) >= 4
        probe = np.random.default_rng(MODE_PROBE_SEED).standard_normal((2, mesh.n_nodes))
        mass = assemble_mass(mesh)
        for i in pairs:
            np.testing.assert_allclose(lam[i + 1], lam[i], rtol=1e-13, atol=0)
            proj = probe @ (mass @ basis.eigenfields[i : i + 2].T)
            assert abs(proj[0, 1]) <= 1e-12 * np.abs(proj).max()
            assert proj[0, 0] > 0.0 and proj[1, 1] > 0.0

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_modes_match_full_dense_eigh(self, level):
        """Mode by mode against every eigenpair of the dense pencil, put in
        the same canonical basis: the separable product, the sparse
        projection and the Lanczos solve change nothing beyond rounding.

        A distinct eigenvalue fixes its mode only to about eps * lambda_1 /
        gap.  At L5 the closest distinct pair among the kept modes is
        2.5e-8 * lambda_1 apart, so that is 9.0e-9, and the bound is 1e-8;
        the modes moved by 4.9e-10 there.  L2 to L4 keep 1e-10.
        """
        mesh = build_unit_square_mesh(level)
        basis = build_kle(KERNEL_GAMMA, mesh, 1e-3)
        values, fields = kle_full_eigh(gaussian_kernel(KERNEL_GAMMA), mesh, 1e-3)
        np.testing.assert_allclose(basis.eigenvalues, values, rtol=1e-13, atol=0)
        assert basis.eigenfields.shape == fields.shape
        assert np.abs(basis.eigenfields - fields).max() <= (1e-8 if level == 5 else 1e-10)


class TestGaussianKernel:
    """The test oracle's memory-lean kernel, and the gamma build_kle accepts."""

    @pytest.mark.parametrize("gamma", [0.0, 1e-12, KERNEL_GAMMA, 250.0])
    def test_bitwise_equal_to_broadcast_formula(self, gamma):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 2.0, size=(37, 2))
        y = rng.uniform(-1.0, 2.0, size=(53, 2))
        got = gaussian_kernel(gamma)(x, y)
        assert got.shape == (37, 53)
        np.testing.assert_array_equal(got, broadcast_gaussian_kernel(gamma)(x, y))
        np.testing.assert_array_equal(
            gaussian_kernel(gamma)(x[0], y), broadcast_gaussian_kernel(gamma)(x[0], y)
        )

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1e6, -1e-300])
    def test_gamma_must_be_finite_and_non_negative(self, gamma, mesh_level_2):
        with pytest.raises(DimensionMismatch, match="gamma"):
            build_kle(gamma, mesh_level_2, 1e-3)


class TestBrownianBridgeModes:
    def test_pinned_at_both_ends(self):
        t = np.linspace(0.0, 1.0, 101)
        modes = brownian_bridge_modes(5, t)
        np.testing.assert_allclose(modes[:, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(modes[:, -1], 0.0, atol=1e-14)

    def test_amplitude_decays_like_one_over_k(self):
        t = np.linspace(0.0, 1.0, 1001)
        modes = brownian_bridge_modes(4, t)
        peaks = np.abs(modes).max(axis=1)
        np.testing.assert_allclose(peaks, np.sqrt(2.0) / (np.pi * np.arange(1, 5)), rtol=1e-3)

    def test_needs_a_mode(self):
        with pytest.raises(EmptyBasis):
            brownian_bridge_modes(0, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("m, n", [(1, 11), (7, 200), (100, 1001)])
    def test_bitwise_equal_to_the_closed_form(self, m, n):
        t = np.linspace(0.0, 1.0, n)
        k = np.arange(1, m + 1)[:, None]
        want = np.sqrt(2.0) * np.sin(k * np.pi * t[None, :]) / (k * np.pi)
        assert np.array_equal(brownian_bridge_modes(m, t), want)

    def test_peak_is_the_output_plus_ufunc_buffers(self):
        """The modes are built in place in their one (M, N) array; the only
        other allocations are numpy's two broadcasting buffers of
        np.getbufsize() floats (16 rows here), where the closed form held
        two full (M, N) temporaries."""
        m, n = 100, 1001
        t = np.linspace(0.0, 1.0, n)
        tracemalloc.start()
        try:
            brownian_bridge_modes(m, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (m * n + 2 * np.getbufsize() + 2 * n) * 8, f"{peak / (n * 8):.2f} rows"


class TestKleExport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "modes.csv"
        basis = run_kle_dump(StudyConfig(mesh_level=2, kle_tol=1e-2, output=str(path)))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["mode", "eigenvalue"]
        assert len(rows) == len(basis.eigenvalues) + 1
        assert float(rows[1][1]) == basis.eigenvalues[0]
        back = np.array([float(v) for v in rows[1][2:]])
        np.testing.assert_array_equal(back, basis.eigenfields[0])
