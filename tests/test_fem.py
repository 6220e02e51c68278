import numpy as np
import pytest

from postpert.errors import DimensionMismatch, PointOutsideMesh
from postpert.fem import (
    assemble_mass,
    build_unit_square_mesh,
    load_vector,
    point_eval_matrix,
)

from oracles import assemble_weighted_stiffness, dense_mass


class TestMeshConstruction:
    def test_level_1_counts(self):
        mesh = build_unit_square_mesh(1)
        assert mesh.n_nodes == 9
        assert mesh.n_triangles == 8

    def test_level_2_counts(self):
        mesh = build_unit_square_mesh(2)
        assert mesh.n_nodes == 25
        assert mesh.n_triangles == 32

    def test_areas_partition_unit_square(self, mesh_level_3):
        assert mesh_level_3.areas.sum() == pytest.approx(1.0, rel=1e-14)
        assert np.all(mesh_level_3.areas > 0.0)

    def test_boundary_count(self, mesh_level_2):
        # 4 sides of 4 edges each on a 5x5 grid
        assert int(mesh_level_2.boundary_mask.sum()) == 16
        assert len(mesh_level_2.interior) == 9

    def test_rejects_level_0(self):
        with pytest.raises(DimensionMismatch):
            build_unit_square_mesh(0)


class TestAssembly:
    def test_unit_stiffness_rows_annihilate_constants(self, mesh_level_2):
        a = assemble_weighted_stiffness(mesh_level_2, np.ones(mesh_level_2.n_triangles))
        assert np.allclose(a @ np.ones(mesh_level_2.n_nodes), 0.0, atol=1e-13)
        assert np.allclose(a, a.T)

    def test_constant_coefficient_scales_stiffness(self, mesh_level_2):
        ones = np.ones(mesh_level_2.n_triangles)
        base = assemble_weighted_stiffness(mesh_level_2, ones)
        scaled = assemble_weighted_stiffness(mesh_level_2, np.pi * ones)
        assert np.allclose(scaled, np.pi * base, rtol=1e-14)

    def test_mass_integrates_linear_functions(self, mesh_level_2):
        """M applied to 1 gives nodal integrals; against x the result is exact."""
        mesh = mesh_level_2
        sparse = assemble_mass(mesh)
        x = mesh.nodes[:, 0]
        for m in (sparse, sparse.toarray()):
            # int_D x dx over the unit square
            assert np.ones(mesh.n_nodes) @ (m @ x) == pytest.approx(0.5, rel=1e-13)
            assert m.sum() == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_sparse_mass_equals_dense_oracle(self, level):
        """The sparse assembly sums the same triplets to the same bits."""
        mesh = build_unit_square_mesh(level)
        m = assemble_mass(mesh)
        assert m.format == "csr"
        np.testing.assert_array_equal(m.toarray(), dense_mass(mesh))

    def test_load_vector_total(self, mesh_level_3):
        f = load_vector(mesh_level_3)
        assert f.sum() == pytest.approx(1.0, rel=1e-13)

    def test_weighted_stiffness_requires_tri_values(self, mesh_level_2):
        with pytest.raises(DimensionMismatch):
            assemble_weighted_stiffness(mesh_level_2, np.ones(3))


class TestPointEvaluation:
    def test_node_coincidence_picks_nodal_value(self, mesh_level_2):
        mesh = mesh_level_2
        e = point_eval_matrix(mesh, mesh.nodes[[7, 12]])
        vals = np.zeros(mesh.n_nodes)
        vals[7] = 2.0
        vals[12] = -3.0
        assert np.allclose(e @ vals, [2.0, -3.0])

    def test_hat_function_at_center(self, mesh_level_2):
        mesh = mesh_level_2
        center = int(np.argmin(np.abs(mesh.nodes - 0.5).sum(axis=1)))
        hat = np.zeros(mesh.n_nodes)
        hat[center] = 1.0
        e = point_eval_matrix(mesh, np.array([[0.5, 0.5]]))
        assert e @ hat == pytest.approx(1.0)

    def test_linear_reproduction(self, mesh_level_2):
        """P1 interpolation is exact on affine functions at arbitrary points."""
        mesh = mesh_level_2
        vals = 2.0 * mesh.nodes[:, 0] - 0.7 * mesh.nodes[:, 1] + 0.25
        pts = np.array([[0.13, 0.41], [0.77, 0.32], [0.5, 0.99]])
        got = point_eval_matrix(mesh, pts) @ vals
        want = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.25
        assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_outside_point_rejected(self, mesh_level_2):
        with pytest.raises(PointOutsideMesh):
            point_eval_matrix(mesh_level_2, np.array([[1.5, 0.5]]))
