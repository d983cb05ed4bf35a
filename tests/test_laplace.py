import numpy as np
import pytest
from scipy.sparse import coo_matrix, triu

from volball.laplace import harmonic_fill, laplacian_matrix
from volball.synthetic import cube_mesh, graded_ellipsoid_mesh
from volball.tetmesh import EDGE_LOCAL, FACE_LOCAL, TetMesh, tet_gradients

# cot(arccos(1/3)) / 12 for a unit-edge regular tetrahedron
REGULAR_TET_WEIGHT = (1.0 / (2.0 * np.sqrt(2.0))) / 12.0


def _regular_tet(scale=1.0):
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float) / np.sqrt(8.0) * scale
    return TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3]]))


def _edge_weights(mesh):
    """Edges (u < v) and cotangent weights k_{u,v} = -L[u, v]."""
    upper = triu(laplacian_matrix(mesh), k=1).tocoo()
    return np.column_stack([upper.row, upper.col]), -upper.data


def test_regular_tet_weight_value():
    _, w = _edge_weights(_regular_tet())
    assert len(w) == 6
    np.testing.assert_allclose(w, REGULAR_TET_WEIGHT, rtol=1e-12)


def test_weights_scale_linearly():
    _, w1 = _edge_weights(_regular_tet(1.0))
    _, w3 = _edge_weights(_regular_tet(3.0))
    np.testing.assert_allclose(w3, 3.0 * w1, rtol=1e-12)


def test_weights_symmetric_pairs(ball_mesh):
    edges, w = _edge_weights(ball_mesh)
    # one finite weight per undirected edge of the mesh
    mesh_edges = np.unique(np.sort(ball_mesh.tets[:, EDGE_LOCAL].reshape(-1, 2),
                                   axis=1), axis=0)
    np.testing.assert_array_equal(edges[np.lexsort(edges.T[::-1])], mesh_edges)
    assert np.all(np.isfinite(w))


def test_face_area_vectors_close(reference_tet):
    # the face area vectors S = -3 V G of a closed tet sum to zero
    vols, G = tet_gradients(reference_tet.vertices, reference_tet.tets)
    S = -3.0 * vols[0] * G[0]
    np.testing.assert_allclose(S.sum(axis=0), 0.0, atol=1e-14)


def test_laplacian_row_sums_zero(ball_mesh):
    L = laplacian_matrix(ball_mesh)
    rows = np.asarray(L.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-10
    assert (abs(L - L.T)).max() < 1e-12


def _edge_triplet_laplacian(mesh):
    """The edge-weight assembly that the element form replaced: weight
    -<S_i, S_j> / (18 V) per tet edge from the outward face area vectors S,
    scattered as four triplets."""
    x, tets = mesh.vertices, mesh.tets
    vols = np.abs(np.linalg.det(x[tets[:, 1:]] - x[tets[:, :1]])) / 6.0
    tri = x[tets][:, FACE_LOCAL]  # (m, 4, 3, 3), face opposite each corner
    S = 0.5 * np.cross(tri[:, :, 1] - tri[:, :, 0], tri[:, :, 2] - tri[:, :, 0])
    dots = np.einsum("tek,tek->te", S[:, EDGE_LOCAL[:, 0]], S[:, EDGE_LOCAL[:, 1]])
    w = (-dots / (18.0 * vols[:, None])).reshape(-1)
    i, j = tets[:, EDGE_LOCAL].reshape(-1, 2).T
    n = len(x)
    return coo_matrix((np.concatenate([-w, -w, w, w]),
                       (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
                      shape=(n, n)).tocsr()


@pytest.mark.parametrize("make", ["ball", "cube", "graded"])
def test_element_laplacian_matches_edge_triplets(make, ball_mesh):
    mesh = {"ball": lambda: ball_mesh, "cube": lambda: cube_mesh(4),
            "graded": lambda: graded_ellipsoid_mesh(1)}[make]()
    L = laplacian_matrix(mesh)
    ref = _edge_triplet_laplacian(mesh)
    assert L.nnz == ref.nnz
    assert abs(L - ref).max() <= 1e-13 * abs(ref).max()


def test_harmonic_fill_identity(ball_mesh):
    bidx = ball_mesh.boundary_vertices
    pos = harmonic_fill(ball_mesh, ball_mesh.vertices[bidx], bidx)
    np.testing.assert_allclose(pos, ball_mesh.vertices, atol=1e-8)


def test_harmonic_fill_constant(ball_mesh):
    bidx = ball_mesh.boundary_vertices
    p = np.array([0.3, -0.2, 0.9])
    pos = harmonic_fill(ball_mesh, np.tile(p, (len(bidx), 1)), bidx)
    np.testing.assert_allclose(pos, np.tile(p, (len(pos), 1)), atol=1e-9)


def test_harmonic_fill_linear_functions(ball_mesh):
    # affine maps are harmonic: boundary = A x + t reproduces A x + t inside
    A = np.array([[1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.3, 0.0, 1.2]])
    t = np.array([0.1, -0.4, 0.2])
    bidx = ball_mesh.boundary_vertices
    pos = harmonic_fill(ball_mesh, ball_mesh.vertices[bidx] @ A.T + t, bidx)
    np.testing.assert_allclose(pos, ball_mesh.vertices @ A.T + t, atol=1e-8)


def test_harmonic_energy_minimality(ball_mesh):
    from volball.sphere_map import compute_boundary_sphere_map
    bmap = compute_boundary_sphere_map(ball_mesh)
    pos = harmonic_fill(ball_mesh, bmap.points, bmap.vertex_indices)
    L = laplacian_matrix(ball_mesh)

    def energy(p):
        return sum(float(p[:, c] @ (L @ p[:, c])) for c in range(3))

    base = energy(pos)
    interior = ~ball_mesh.boundary_vertex_mask
    rng = np.random.default_rng(123)
    for _ in range(100):
        bump = np.zeros_like(pos)
        bump[interior] = 1e-3 * rng.normal(size=(interior.sum(), 3))
        assert energy(pos + bump) >= base - 1e-12


def test_maximum_principle_advisory(cube8):
    from volball.sphere_map import compute_boundary_sphere_map
    _, w = _edge_weights(cube8)
    bmap = compute_boundary_sphere_map(cube8)
    pos = harmonic_fill(cube8, bmap.points, bmap.vertex_indices)
    if w.min() >= 0:
        lo = bmap.points.min(axis=0) - 1e-9
        hi = bmap.points.max(axis=0) + 1e-9
        assert np.all(pos >= lo) and np.all(pos <= hi)
    else:
        # negative weights void the maximum principle; just require a valid map
        assert cube8.count_folds(pos) == 0
