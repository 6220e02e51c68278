"""Piecewise-linear finite elements on structured triangulations of [0,1]^2.

The mesh splits an n x n grid of cells into two triangles each, with the
diagonal direction alternating in a checkerboard pattern.  For even n this
pattern is invariant under both axis reflections and under swapping the
coordinates, so symmetric coefficients produce symmetric discrete solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PointOutsideMesh


@dataclass
class TriangularMesh:
    """Conforming triangulation with vertex coordinates and connectivity.

    nodes:          (N, 2) vertex coordinates
    triangles:      (T, 3) vertex indices, counterclockwise
    boundary_mask:  (N,) True for vertices on the domain boundary
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    grads: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.boundary_mask = np.asarray(self.boundary_mask, dtype=bool)
        p = self.nodes[self.triangles]  # (T, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            raise DimensionMismatch("triangles must be counterclockwise with positive area")
        self.areas = 0.5 * det
        self.centroids = p.mean(axis=1)
        # constant gradients of the three barycentric hat functions per triangle
        g = np.empty((len(self.triangles), 3, 2))
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            opp = p[:, j] - p[:, i]
            g[:, k, 0] = -opp[:, 1]
            g[:, k, 1] = opp[:, 0]
        self.grads = g / (2.0 * self.areas)[:, None, None]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def interior(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask)


def build_unit_square_mesh(level: int) -> TriangularMesh:
    """Uniform triangulation of [0,1]^2 with (2^level + 1)^2 vertices."""
    if level < 1:
        raise DimensionMismatch("mesh level must be >= 1")
    n = 2 ** level
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    tris = []
    for iy in range(n):
        for ix in range(n):
            ll = vid(ix, iy)
            lr = vid(ix + 1, iy)
            ul = vid(ix, iy + 1)
            ur = vid(ix + 1, iy + 1)
            if (ix + iy) % 2 == 0:
                # diagonal from lower-right to upper-left
                tris.append((ll, lr, ul))
                tris.append((lr, ur, ul))
            else:
                # diagonal from lower-left to upper-right
                tris.append((ll, lr, ur))
                tris.append((ll, ur, ul))

    on_edge = (
        (nodes[:, 0] == 0.0)
        | (nodes[:, 0] == 1.0)
        | (nodes[:, 1] == 0.0)
        | (nodes[:, 1] == 1.0)
    )
    return TriangularMesh(nodes, np.asarray(tris), on_edge)


def local_stiffness(mesh: TriangularMesh) -> np.ndarray:
    """Per-triangle 3x3 Laplace matrices |T| grad(phi_i) . grad(phi_j)."""
    g = mesh.grads
    return mesh.areas[:, None, None] * np.einsum("tid,tjd->tij", g, g)


def assemble_mass(mesh: TriangularMesh):
    """Exact P1 mass matrix of the full vertex set, as a scipy.sparse csr_array.

    Duplicate (row, column) triplets of neighbouring elements are summed by
    the COO-to-CSR conversion.  Callers that need dense entries (the KLE's
    generalized eigenproblem) call .toarray() on their own copy.
    """
    # scipy.sparse is imported here, not at module level, so that processes
    # which never assemble a mass matrix do not load it
    from scipy.sparse import csr_array

    n = mesh.n_nodes
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    tri = mesh.triangles
    vals = mesh.areas[:, None, None] * local[None, :, :]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return csr_array((vals.ravel(), (rows, cols)), shape=(n, n))


def assemble_weighted_stiffness(mesh: TriangularMesh, tri_coef) -> np.ndarray:
    """Stiffness matrix with a piecewise-constant coefficient per triangle."""
    c = np.asarray(tri_coef, dtype=float)
    if c.shape != (mesh.n_triangles,):
        raise DimensionMismatch("one coefficient per triangle expected")
    n = mesh.n_nodes
    vals = c[:, None, None] * local_stiffness(mesh)
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals.ravel())
    return a


def load_vector(mesh: TriangularMesh, density: float = 1.0) -> np.ndarray:
    """Load vector of a constant source term (one-point rule is exact here)."""
    f = np.zeros(mesh.n_nodes)
    np.add.at(f, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return density * f


def point_eval_matrix(mesh: TriangularMesh, points) -> np.ndarray:
    """Rows of barycentric weights evaluating a nodal field at given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(pts), mesh.n_nodes))
    p = mesh.nodes[mesh.triangles]
    for r, q in enumerate(pts):
        d = q[None, :] - p[:, 0, :]
        g = mesh.grads  # grads of hats 0..2; barycentric coords via hat values
        lam1 = np.einsum("td,td->t", g[:, 1, :], d)
        lam2 = np.einsum("td,td->t", g[:, 2, :], d)
        lam0 = 1.0 - lam1 - lam2
        ok = (lam0 >= -1e-12) & (lam1 >= -1e-12) & (lam2 >= -1e-12)
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            raise PointOutsideMesh(f"point {q} is not covered by the mesh")
        t = hits[0]
        out[r, mesh.triangles[t]] = (lam0[t], lam1[t], lam2[t])
    return out
