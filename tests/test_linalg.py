import numpy as np
import pytest

from postpert.errors import DimensionMismatch, NotSpd, SolverFailure
from postpert.fem import assemble_mass, mass_spd
from postpert.linalg import (
    SpdMatrix,
    field_l2_norm,
    generalized_sym_eig,
    tensor_l2_norm,
)

from oracles import gauss_solve, generalized_eigenvalues

DARCY_SIGMA = (np.ones((5, 5)) + 4.0 * np.eye(5)) / 1000.0
# closed form: inverse of 0.001*(4I + ones) acting on e1
DARCY_SIGMA_INV_E1 = np.array([2000.0 / 9.0] + [-250.0 / 9.0] * 4)


class TestCholeskySolve:
    def test_identity(self):
        a = SpdMatrix(np.eye(3))
        assert np.allclose(a.solve([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal(self):
        a = SpdMatrix(np.diag([2.0, 2.0]))
        assert np.allclose(a.solve([1.0, 0.0]), [0.5, 0.0])

    def test_observation_noise_matrix(self):
        got = SpdMatrix(DARCY_SIGMA).solve(np.eye(5)[0])
        assert np.allclose(got, DARCY_SIGMA_INV_E1, rtol=0, atol=1e-12)
        assert np.allclose(got, gauss_solve(DARCY_SIGMA, np.eye(5)[0]), rtol=0, atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            SpdMatrix(np.eye(2)).solve(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        with pytest.raises(SolverFailure, match="non-finite"):
            SpdMatrix(np.eye(2)).solve([bad, 0.0])
        with pytest.raises(SolverFailure, match="non-finite"):
            SpdMatrix(np.eye(2)).solve(np.array([[1.0, 0.0], [0.0, bad]]))


def _sigma_inner(s, u, v):
    """<u, v>_S = u^T S^{-1} v, formed through the Cholesky solve as the
    data coupling and the sample weights form it."""
    return float(np.asarray(u, dtype=float) @ s.solve(v))


class TestSigmaInner:
    def test_identity_is_dot_product(self):
        s = SpdMatrix(np.eye(2))
        assert _sigma_inner(s, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_diagonal(self):
        s = SpdMatrix(np.diag([2.0, 2.0]))
        assert _sigma_inner(s, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_observation_noise_matrix(self):
        s = SpdMatrix(DARCY_SIGMA)
        e1 = np.eye(5)[0]
        assert _sigma_inner(s, e1, e1) == pytest.approx(2000.0 / 9.0, rel=1e-12)
        assert _sigma_inner(s, e1, e1) == pytest.approx(
            e1 @ gauss_solve(DARCY_SIGMA, e1), rel=1e-12
        )

    def test_symmetry_in_arguments(self):
        s = SpdMatrix(DARCY_SIGMA)
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert _sigma_inner(s, u, v) == pytest.approx(_sigma_inner(s, v, u), rel=1e-12)


class TestSpdMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(NotSpd):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]]).factor

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpd):
            SpdMatrix([[1.0, 0.5], [0.0, 1.0]])


class TestGeneralizedEig:
    def test_diagonal(self):
        values, vectors = generalized_sym_eig(np.diag([3.0, 1.0]), SpdMatrix(np.eye(2)))
        assert np.allclose(values, [3.0, 1.0])
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_degenerate_spectrum(self):
        values, _ = generalized_sym_eig(np.eye(2), SpdMatrix(np.eye(2)))
        assert np.allclose(values, [1.0, 1.0])

    def test_kernel_galerkin_matrix_against_oracle(self, mesh_level_2):
        """Dense generalized eigenvalues agree with the rotation-based oracle."""
        mesh = mesh_level_2
        nodes = mesh.nodes
        d2 = ((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2)
        kernel_at_nodes = np.exp(-(20.0 / 3.0) * d2)
        mass = assemble_mass(mesh)
        a = mass @ kernel_at_nodes @ mass
        a = 0.5 * (a + a.T)
        m = mass_spd(mesh)

        values, vectors = generalized_sym_eig(a, m)
        expected = generalized_eigenvalues(a, m.entries)
        assert np.allclose(values, expected, rtol=0, atol=1e-10)
        # returned vectors must actually solve the pencil
        for lam, v in zip(values[:5], vectors.T[:5]):
            assert np.linalg.norm(a @ v - lam * (m.entries @ v)) < 1e-9


class TestFieldNorm:
    def test_euclidean(self):
        assert field_l2_norm(SpdMatrix(np.eye(2)), [3.0, 4.0]) == pytest.approx(5.0)

    def test_diagonal_mass(self):
        m = SpdMatrix(np.diag([0.5, 0.5]))
        assert field_l2_norm(m, [1.0, 1.0]) == pytest.approx(1.0)

    def test_constant_field_integrates_domain(self, mesh_level_3):
        """The mass norm of the constant 1 equals the unit square's area."""
        m = mass_spd(mesh_level_3)
        assert field_l2_norm(m, np.ones(mesh_level_3.n_nodes)) == pytest.approx(
            1.0, rel=1e-12
        )
        assert m.entries.sum() == pytest.approx(1.0, rel=1e-12)


class TestTensorNorm:
    def test_identity(self):
        assert tensor_l2_norm(SpdMatrix(np.eye(2)), np.eye(2)) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_rank_one_euclidean(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([0.0, 3.0, 4.0])
        got = tensor_l2_norm(SpdMatrix(np.eye(3)), np.outer(u, v))
        assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))

    def test_rank_one_mass_weighted(self, mesh_level_2):
        m = mass_spd(mesh_level_2)
        rng = np.random.default_rng(5)
        u = rng.normal(size=mesh_level_2.n_nodes)
        v = rng.normal(size=mesh_level_2.n_nodes)
        got = tensor_l2_norm(m, np.outer(u, v))
        assert got == pytest.approx(
            field_l2_norm(m, u) * field_l2_norm(m, v), rel=1e-10
        )
