import csv

import numpy as np
import pytest

from postpert.cli import StudyConfig, run_kle_dump
from postpert.darcy import KERNEL_GAMMA
from postpert.errors import DimensionMismatch, EmptyBasis
from postpert.fem import build_unit_square_mesh
from postpert.prior import (
    AffineExpansion,
    CoefficientLaw,
    brownian_bridge_modes,
    build_kle,
    gaussian_kernel,
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
        got = exp.realize(np.array([1.0, -1.0]))
        # z = (2.0, -0.75), scaled by alpha = 0.5
        np.testing.assert_allclose(got, [1.0 + 1.0, 2.0 - 0.375, 3.0 + 0.375])

    def test_realize_batch_matches_loop(self):
        exp = self._expansion()
        rng = np.random.default_rng(3)
        u = rng.uniform(-1.0, 1.0, size=(6, 2))
        batch = exp.realize_batch(u)
        for k in range(6):
            np.testing.assert_allclose(batch[k], exp.realize(u[k]))

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
            self._expansion().realize(np.zeros(3))

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_non_finite_alpha_is_rejected(self, alpha):
        with pytest.raises(DimensionMismatch, match="finite"):
            self._expansion(alpha=alpha)
        with pytest.raises(DimensionMismatch, match="finite"):
            self._expansion().with_alpha(alpha)


class TestKle:
    def test_trace_bounded_by_kernel_diagonal(self, mesh_level_3):
        """Retained spectrum cannot exceed the full trace, here exactly 1."""
        basis = build_kle(gaussian_kernel(KERNEL_GAMMA), mesh_level_3, 1e-8)
        assert basis.eigenvalues.sum() <= 1.0 + 1e-8

    def test_impossible_threshold_raises(self, mesh_level_2):
        with pytest.raises(EmptyBasis):
            build_kle(gaussian_kernel(KERNEL_GAMMA), mesh_level_2, 2.0)

    def test_wide_kernel_concentrates_on_one_mode(self, mesh_level_2):
        """gamma -> 0 flattens the kernel, so the constant mode carries it all."""
        basis = build_kle(gaussian_kernel(1e-12), mesh_level_2, 1e-6)
        assert len(basis.eigenvalues) == 1
        assert basis.eigenvalues[0] == pytest.approx(1.0, rel=1e-6)
        spread = basis.eigenfields[0].max() - basis.eigenfields[0].min()
        assert spread < 1e-6


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
