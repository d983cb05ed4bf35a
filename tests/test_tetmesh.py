import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from volball.tetmesh import (EDGE_LOCAL, FACE_LOCAL, MAX_VERTICES, Connectivity,
                             DegenerateTetError, MeshError, PointLocator, TetMesh,
                             TopologyError, barycentric_coordinates,
                             signed_volumes, tet_gradients)


def test_reference_tet_basics(reference_tet):
    assert len(reference_tet.vertices) == 4
    assert len(reference_tet.tets) == 1
    assert len(reference_tet.boundary_faces) == 4
    assert signed_volumes(reference_tet.vertices, reference_tet.tets)[0] == \
        pytest.approx(1.0 / 6.0)


def test_signed_volume_orientation_and_scaling():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert signed_volumes(verts, np.array([[0, 1, 2, 3]]))[0] == pytest.approx(1 / 6)
    # odd permutation flips the sign
    assert signed_volumes(verts, np.array([[0, 1, 3, 2]]))[0] == pytest.approx(-1 / 6)
    assert signed_volumes(2 * verts, np.array([[0, 1, 2, 3]]))[0] == pytest.approx(8 / 6)


def test_negative_tet_reoriented_at_load():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = TetMesh.from_arrays(verts, np.array([[0, 1, 3, 2]]))
    assert signed_volumes(mesh.vertices, mesh.tets)[0] > 0


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DegenerateTetError):
        TetMesh.from_arrays(verts, np.array([[0, 1, 2, 2]]))
    flat = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(DegenerateTetError):
        TetMesh.from_arrays(flat, np.array([[0, 1, 2, 3]]))


def test_two_tet_boundary_euler(two_tet_mesh):
    # shared-face bipyramid: 6 boundary faces, V - E + F = 5 - 9 + 6 = 2
    assert len(two_tet_mesh.boundary_faces) == 6
    bverts = np.unique(two_tet_mesh.boundary_faces)
    edges = np.sort(two_tet_mesh.boundary_faces[:, [[0, 1], [1, 2], [2, 0]]]
                    .reshape(-1, 2), axis=1)
    n_edges = len(np.unique(edges, axis=0))
    assert len(bverts) - n_edges + 6 == 2


def test_isolated_vertex_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]])
    with pytest.raises(TopologyError):
        TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3]]))


def test_boundary_outward_orientation(reference_tet):
    # enclosed volume via the divergence theorem matches the tet volume
    assert reference_tet.enclosed_volume() == pytest.approx(1 / 6, rel=1e-12)


def test_volume_divergence_identity(ball_mesh):
    total = ball_mesh.volumes.sum()
    assert ball_mesh.enclosed_volume() == pytest.approx(total, rel=1e-10)


def test_count_folds(ball_mesh):
    assert ball_mesh.count_folds(ball_mesh.vertices) == 0
    mirrored = ball_mesh.vertices.copy()
    mirrored[:, 0] *= -1
    assert ball_mesh.count_folds(mirrored) == len(ball_mesh.tets)


def test_count_folds_reflected_vertex(reference_tet):
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    mesh = TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    moved = mesh.vertices.copy()
    # push vertex 0 through the plane of face (1,2,3); only its tet inverts
    moved[0] = [1.0, 1.0, 1.0 + 1e-3]
    sv = signed_volumes(moved, mesh.tets)
    assert mesh.count_folds(moved) == int(np.count_nonzero(sv <= 0)) == 1


def test_count_folds_rigid_motion_invariant(ball_mesh):
    rng = np.random.default_rng(7)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
    moved = ball_mesh.vertices @ R.T + rng.normal(size=3)
    assert ball_mesh.count_folds(moved) == 0


def _locator(mesh):
    return PointLocator(mesh.vertices, mesh.tets)


def test_locate_point_centroid(ball_mesh):
    k = 17
    centroid = ball_mesh.vertices[ball_mesh.tets[k]].mean(axis=0)
    (t,), (weights,) = _locator(ball_mesh).locate_points(centroid[None])
    assert t >= 0
    lam = barycentric_coordinates(ball_mesh.vertices, ball_mesh.tets,
                                  np.array([t]), centroid[None])[0]
    assert lam.sum() == pytest.approx(1.0)
    if t == k:
        np.testing.assert_allclose(weights, 0.25, atol=1e-9)


def test_locate_point_vertex_and_outside(ball_mesh):
    tets, lams = _locator(ball_mesh).locate_points(np.array([ball_mesh.vertices[5],
                                                             [2.0, 0, 0]]))
    assert tets[0] >= 0
    assert np.max(lams[0]) == pytest.approx(1.0, abs=1e-8)
    assert tets[1] == -1


def test_locate_point_roundtrip(ball_mesh):
    rng = np.random.default_rng(0)
    tet_ids = rng.integers(0, len(ball_mesh.tets), size=1000)
    lam = rng.dirichlet(np.ones(4), size=1000)
    points = np.einsum("ki,kij->kj", lam, ball_mesh.vertices[ball_mesh.tets[tet_ids]])
    located, weights = _locator(ball_mesh).locate_points(points)
    assert np.all(located >= 0)
    # the located tet must actually contain the point
    check = barycentric_coordinates(ball_mesh.vertices, ball_mesh.tets, located, points)
    assert check.min() >= -1e-9
    back = np.einsum("ki,kij->kj", weights, ball_mesh.vertices[ball_mesh.tets[located]])
    np.testing.assert_allclose(back, points, atol=1e-9)


def test_barycentric_point_roundtrip(reference_tet):
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    p = weights @ reference_tet.vertices[reference_tet.tets[0]]
    tets, lams = _locator(reference_tet).locate_points(p[None])
    assert tets[0] == 0
    np.testing.assert_allclose(lams[0], weights, atol=1e-12)


def test_locator_standalone(ball_mesh):
    loc = PointLocator(ball_mesh.vertices, ball_mesh.tets)
    tet, lam = loc.locate(np.zeros(3))
    assert type(tet) is int and lam.shape == (4,)
    assert loc.locate(np.array([0.0, 0.0, 3.0])) is None


def test_locate_points_matches_locate_point(ball_mesh):
    rng = np.random.default_rng(5)
    points = np.vstack([rng.uniform(-1.0, 1.0, size=(200, 3)),
                        ball_mesh.vertices[:20],
                        [[2.0, 0, 0], [0.0, 0.0, -3.0], [0.0, 1.2, 0.0]]])
    locator = _locator(ball_mesh)
    tets, lams = locator.locate_points(points)
    assert tets.shape == (len(points),) and lams.shape == (len(points), 4)
    assert np.all(tets[-3:] == -1) and np.isnan(lams[-3:]).all()
    for p, t, lam in zip(points, tets, lams):
        hit = locator.locate(p)
        if hit is None:
            assert t == -1
        else:
            assert hit[0] == t
            np.testing.assert_array_equal(hit[1], lam)
            assert lam.min() >= -1e-9


def test_locate_points_agrees_with_exhaustive_scan(ball_mesh):
    # points just inside and just outside the boundary, where the nearest
    # centroids need not hold the containing tet
    x = ball_mesh.vertices
    faces = x[ball_mesh.boundary_faces]
    rng = np.random.default_rng(11)
    w = rng.dirichlet(np.ones(3), size=len(faces))
    on_face = np.einsum("ki,kij->kj", w, faces)
    points = np.vstack([on_face * 0.999, on_face * 1.001])
    tets, lams = _locator(ball_mesh).locate_points(points)
    corners = x[ball_mesh.tets]
    e = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    for p, t in zip(points, tets):
        lam = np.linalg.solve(e, (p - corners[:, 0])[:, :, None])[..., 0]  # LAPACK oracle
        worst = np.minimum(1.0 - lam.sum(axis=1), lam.min(axis=1))
        assert (t >= 0) == (worst.max() >= -1e-9)
        if t >= 0:
            assert worst[t] >= -1e-9
    assert np.all(tets[:len(faces)] >= 0) and np.all(tets[len(faces):] == -1)


def test_locate_points_on_a_deformed_ball_map():
    # the remesh pullback's case: a ball map of the graded solid and template
    # points on, and just inside, the unit sphere, many of which the nearest
    # centroids miss; each tet's own reach drops candidates, not the pick
    from volball.drivers import initial_ball
    from volball.remesh import fibonacci_sphere
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    x = initial_ball(mesh)
    sphere = fibonacci_sphere(480)
    points = np.vstack([sphere, 0.99 * sphere, 0.97 * sphere])
    pairs = {}

    def located(locator, key):
        pick = locator._pick

        def counted(points, owner, cand, tet_index, lambdas):
            pairs[key] = pairs.get(key, 0) + cand.size
            pick(points, owner, cand, tet_index, lambdas)

        locator._pick = counted
        return locator.locate_points(points)

    tets, lams = located(PointLocator(x, mesh.tets), "own reach")
    # every tet given the largest reach: the radius pass of one global reach
    unfiltered = PointLocator(x, mesh.tets)
    unfiltered._tet_reach = np.full(len(mesh.tets), unfiltered._tet_reach.max())
    tets0, lams0 = located(unfiltered, "global reach")
    assert np.array_equal(tets, tets0) and np.array_equal(lams, lams0, equal_nan=True)
    assert pairs["own reach"] < pairs["global reach"]
    corners = x[mesh.tets]
    e = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    for p, t in zip(points, tets):
        lam = np.linalg.solve(e, (p - corners[:, 0])[:, :, None])[..., 0]  # LAPACK oracle
        worst = np.minimum(1.0 - lam.sum(axis=1), lam.min(axis=1))
        assert (t >= 0) == (worst.max() >= -1e-9)
        if t >= 0:
            assert worst[t] >= -1e-9
    assert np.any(tets >= 0) and np.any(tets == -1)


def test_locator_rejects_zero_volume_tet(ball_mesh):
    positions = ball_mesh.vertices.copy()
    a, _, _, d = ball_mesh.tets[7]
    positions[d] = positions[a]  # collapses tet 7 and any other tet on edge (a, d)
    flat = np.flatnonzero(signed_volumes(positions, ball_mesh.tets) == 0.0)
    assert 7 in flat
    with pytest.raises(DegenerateTetError, match=f"tet {flat[0]} has zero volume"):
        PointLocator(positions, ball_mesh.tets)


def test_barycentric_coordinates_reject_zero_volume_tet(ball_mesh):
    positions = ball_mesh.vertices.copy()
    a, _, _, d = ball_mesh.tets[7]
    positions[d] = positions[a]
    ids = np.array([3, 7, 11])
    with pytest.raises(DegenerateTetError, match="tet 7 has zero volume"):
        barycentric_coordinates(positions, ball_mesh.tets, ids, positions[ids])


@pytest.mark.parametrize("make", ["ball", "graded"])
def test_barycentric_coordinates_match_solve(make):
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = {"ball": lambda: uniform_ball_mesh(1),
            "graded": lambda: graded_ellipsoid_mesh(1)}[make]()
    tets = mesh.tets.copy()
    tets[::2, [2, 3]] = tets[::2, [3, 2]]  # every other tet reflected
    x = mesh.vertices
    rng = np.random.default_rng(2)
    ids = rng.integers(0, len(tets), size=2000)
    # points inside and around their tets
    w = rng.uniform(-0.5, 1.5, size=(len(ids), 4))
    points = np.einsum("ki,kij->kj", w / w.sum(axis=1, keepdims=True), x[tets[ids]])
    corners = x[tets[ids]]
    e = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    lam = np.linalg.solve(e, (points - corners[:, 0])[:, :, None])[..., 0]  # LAPACK oracle
    oracle = np.column_stack([1.0 - lam.sum(axis=1), lam])
    got = barycentric_coordinates(x, tets, ids, points)
    assert np.abs(got - oracle).max() <= 1e-12


def _renumbered(mesh, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.vertices))  # new vertex i is old order[i]
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    tets = new_id[mesh.tets][rng.permutation(len(mesh.tets))]
    return TetMesh.from_arrays(mesh.vertices[order], tets)


def _dict_loop_owners(mesh):
    owner_of = {}
    for t, tet in enumerate(mesh.tets):
        for local in FACE_LOCAL:
            owner_of[tuple(sorted(tet[local]))] = t
    return np.array([owner_of[tuple(sorted(f))] for f in mesh.boundary_faces],
                    dtype=np.int64)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("make", ["ball", "cube", "graded"])
def test_boundary_owners(make, seed):
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import cube_mesh, graded_ellipsoid_mesh
    mesh = {"ball": lambda: uniform_ball_mesh(1), "cube": cube_mesh,
            "graded": lambda: graded_ellipsoid_mesh(1)}[make]()
    if seed is not None:
        mesh = _renumbered(mesh, seed)
    owners = mesh.boundary_owners
    assert owners.shape == (len(mesh.boundary_faces),)
    owner_tets = np.sort(mesh.tets[owners], axis=1)
    for face, tet in zip(mesh.boundary_faces, owner_tets):
        assert np.all(np.isin(face, tet))
    np.testing.assert_array_equal(owners, _dict_loop_owners(mesh))


def _three_key_boundary(tets):
    """Reference: faces grouped by a three-key lexsort of their sorted corners."""
    faces = tets[:, FACE_LOCAL].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    order = np.lexsort(key.T[::-1])
    key_sorted = key[order]
    new_group = np.ones(len(key_sorted), dtype=bool)
    new_group[1:] = np.any(key_sorted[1:] != key_sorted[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    single = order[np.bincount(group_ids)[group_ids] == 1]
    return faces[single], single // 4


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("make", ["ball", "cube", "lcube"])
def test_boundary_extraction_matches_three_key_order(make, seed):
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import cube_mesh, lcube_mesh
    mesh = {"ball": lambda: uniform_ball_mesh(1), "cube": lambda: cube_mesh(4),
            "lcube": lambda: lcube_mesh(3)}[make]()
    if seed is not None:
        mesh = _renumbered(mesh, seed)
    faces, owners = _three_key_boundary(mesh.tets)
    np.testing.assert_array_equal(mesh.boundary_faces, faces)
    np.testing.assert_array_equal(mesh.boundary_owners, owners)


def test_no_tetrahedra_is_a_topology_error():
    with pytest.raises(TopologyError, match="no tetrahedra"):
        TetMesh.from_arrays(np.eye(3), np.zeros((0, 4), dtype=np.int64))


@pytest.mark.parametrize("make", ["ball", "cube", "graded"])
def test_signed_volumes_match_lapack(make):
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import cube_mesh, graded_ellipsoid_mesh
    mesh = {"ball": lambda: uniform_ball_mesh(1), "cube": lambda: cube_mesh(4),
            "graded": lambda: graded_ellipsoid_mesh(1)}[make]()
    tets = mesh.tets.copy()
    tets[::2, [2, 3]] = tets[::2, [3, 2]]  # every other tet reflected
    x = mesh.vertices
    lapack = np.linalg.det(x[tets[:, 1:]] - x[tets[:, :1]]) / 6.0  # LAPACK oracle
    vols = signed_volumes(x, tets)
    assert np.all(vols[::2] < 0) and np.all(vols[1::2] > 0)
    assert np.all(np.abs(vols - lapack) <= 1e-13 * np.abs(lapack))


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("make", ["ball", "cube", "graded", "lcube"])
def test_tet_gradients_match_inverse_edge_matrix(make, seed):
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import cube_mesh, graded_ellipsoid_mesh, lcube_mesh
    from volball.tetmesh import component_major
    mesh = {"ball": lambda: uniform_ball_mesh(1), "cube": lambda: cube_mesh(4),
            "graded": lambda: graded_ellipsoid_mesh(1), "lcube": lambda: lcube_mesh(3)}[make]()
    if seed is not None:
        mesh = _renumbered(mesh, seed)
    tets = mesh.tets.copy()
    tets[::2, [2, 3]] = tets[::2, [3, 2]]  # every other tet reflected
    x = mesh.vertices
    vols, G = tet_gradients(x, tets)
    # an (m, 4, 3) view of contiguous component-major rows
    assert G.shape == (len(tets), 4, 3) and component_major(G).flags.c_contiguous
    assert np.array_equal(vols, signed_volumes(x, tets))
    # the volumes of one read are signed_volumes' to the last bit on a
    # deformed map too
    rng = np.random.default_rng(seed)
    y = x @ rng.normal(size=(3, 3)) + rng.normal(size=3)
    assert np.array_equal(tet_gradients(y, tets)[0], signed_volumes(y, tets))
    # rows of E^-T for the edge matrix E (rows: edges from corner 0)
    oracle = np.swapaxes(np.linalg.inv(x[tets[:, 1:]] - x[tets[:, :1]]), 1, 2)  # LAPACK
    scale = np.abs(oracle).max(axis=(1, 2))
    assert np.all(np.abs(G[:, 1:] - oracle).max(axis=(1, 2)) <= 1e-13 * scale)
    # the hat functions sum to 1, so their gradients sum to 0
    assert np.all(np.abs(G.sum(axis=1)).max(axis=1) <= 1e-13 * scale)
    ids = np.random.default_rng(1).integers(0, len(tets), size=50)
    sub_vols, sub_G = tet_gradients(x, tets, ids)
    assert np.array_equal(sub_vols, vols[ids]) and np.array_equal(sub_G, G[ids])


def test_hat_gradients_cached_read_only(ball_mesh):
    mesh = TetMesh.from_arrays(ball_mesh.vertices, ball_mesh.tets)
    assert "hat_gradients" not in mesh.__dict__  # lazy, not built at load
    g = mesh.hat_gradients
    assert g.shape == (len(mesh.tets), 4, 3)
    assert mesh.hat_gradients is g
    assert not g.flags.writeable
    # the hat functions sum to 1, so their gradients sum to 0
    assert np.abs(g.sum(axis=1)).max() <= 1e-12 * np.abs(g).max()


@pytest.fixture(params=["triangles", "tets"])
def elements(request, ball_mesh):
    """Elements of the ball's boundary surface or of the ball itself: the
    (m, k) array, its vertex count, its element measures and its local edges."""
    if request.param == "tets":
        return ball_mesh.tets, len(ball_mesh.vertices), ball_mesh.volumes, EDGE_LOCAL
    vid, faces = ball_mesh.boundary_surface()
    tri = ball_mesh.vertices[vid][faces]
    areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]),
                                 axis=1)
    return faces, len(vid), areas, np.array([[0, 1], [1, 2], [2, 0]])


def test_connectivity_row_stochastic(elements):
    elems, n, measures, _ = elements
    conn = Connectivity(elems, n)
    weights = conn.corner_weights(measures)[1]
    np.testing.assert_allclose(conn.to_vertices(np.ones(len(elems)), weights),
                               1.0, atol=1e-12)
    vec = np.array([0.5, -2.0, 3.0])
    np.testing.assert_allclose(
        conn.to_vertices(np.tile(vec, (len(elems), 1)), weights),
        np.tile(vec, (n, 1)), atol=1e-12)


def test_connectivity_matches_incidence_matrix(elements):
    # oracle: the row-normalised measure-weighted incidence matrix, built
    # densely and, as a csr matrix from COO triplets, matched bitwise
    elems, n, measures, _ = elements
    m, k = elems.shape
    conv = np.zeros((n, m))
    for c in range(k):
        conv[elems[:, c], np.arange(m)] = measures
    conv /= conv.sum(axis=1, keepdims=True)
    rows, vals = elems.reshape(-1), np.repeat(measures, k)
    incident = np.bincount(rows, weights=vals, minlength=n)
    sparse = csr_matrix((vals / incident[rows], (rows, np.repeat(np.arange(m), k))),
                        shape=(n, m))
    rng = np.random.default_rng(4)
    scalars, vectors = rng.normal(size=m), rng.normal(size=(m, 3))
    conn = Connectivity(elems, n)
    summed, weights = conn.corner_weights(measures)
    for values in (scalars, vectors):
        out = conn.to_vertices(values, weights)
        np.testing.assert_allclose(out, conv @ values, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(out, sparse @ values)
    np.testing.assert_array_equal(summed, incident)


def test_connectivity_lists_each_edge_once(elements):
    elems, n, _, local_edges = elements
    edges = Connectivity(elems, n).edges
    pairs = {tuple(sorted(p)) for p in elems[:, local_edges].reshape(-1, 2)}
    assert len(edges) == len(pairs)
    assert {tuple(e) for e in edges} == pairs


def test_connectivity_edges_match_row_unique(elements):
    elems, n, _, local_edges = elements
    edges = Connectivity(elems, n).edges
    rows = np.unique(np.sort(elems[:, local_edges].reshape(-1, 2), axis=1), axis=0)
    assert edges.dtype == rows.dtype and np.array_equal(edges, rows)


@pytest.mark.parametrize("tets, message", [
    ([[0, 1, 2, 3], [0, 1, 4, 5]], "not edge-manifold"),  # two tets on one edge
    ([[0, 1, 2, 3], [4, 5, 6, 7]], "2 components"),  # two separate tets
])
def test_boundary_topology_rejected(tets, message):
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, -1, 0], [0, 0, -1], [1, 1, 1], [2, 1, 1]])
    tets = np.array(tets)
    verts = verts[:tets.max() + 1]
    with pytest.raises(TopologyError, match=message):
        TetMesh.from_arrays(verts, tets)


def _prism_ring(n_slices=4):
    """A solid torus: a ring of triangular prisms around the z axis, each
    split into three tets; its boundary is one closed genus-1 surface."""
    theta = 2 * np.pi * np.arange(n_slices) / n_slices
    section = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # (radial offset, z)
    radius = 3.0 + section[:, 0]
    verts = np.column_stack([np.outer(np.cos(theta), radius).ravel(),
                             np.outer(np.sin(theta), radius).ravel(),
                             np.tile(section[:, 1], n_slices)])
    a = 3 * np.arange(n_slices)[:, None] + np.arange(3)
    b = np.roll(a, -1, axis=0)
    tets = np.concatenate([np.column_stack([a[:, 0], a[:, 1], a[:, 2], b[:, 0]]),
                           np.column_stack([a[:, 1], a[:, 2], b[:, 0], b[:, 1]]),
                           np.column_stack([a[:, 2], b[:, 0], b[:, 1], b[:, 2]])])
    return verts, tets


def _two_cubes():
    from volball.synthetic import cube_mesh
    cube = cube_mesh(2)
    verts = np.vstack([cube.vertices, cube.vertices + [3.0, 0.0, 0.0]])
    return verts, np.vstack([cube.tets, cube.tets + len(cube.vertices)])


@pytest.mark.parametrize("solid, message", [
    (_two_cubes, "boundary surface has 2 components"),
    (_prism_ring, r"not genus-0 \(Euler characteristic 0\)"),
])
def test_boundary_topology_names_the_fault(solid, message):
    # the component count is tested before the genus: two genus-0 solids
    # sum to Euler characteristic 4, which is not their fault
    verts, tets = solid()
    with pytest.raises(TopologyError, match=message):
        TetMesh.from_arrays(verts, tets)


def _lexsort_boundary(tets, n):
    """The boundary faces and owners by sorted corners and a two-key lexsort."""
    faces = tets[:, FACE_LOCAL].reshape(-1, 3)
    a, b, c = np.sort(faces, axis=1).T
    ab = a * n + b
    order = np.lexsort((c, ab))
    ab, c = ab[order], c[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = (ab[1:] != ab[:-1]) | (c[1:] != c[:-1])
    group_ids = np.cumsum(new_group) - 1
    single = order[np.bincount(group_ids)[group_ids] == 1]
    return faces[single], single // 4


@pytest.fixture(scope="module")
def boundary_solids():
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import (cube_mesh, graded_ellipsoid_mesh, lcube_mesh,
                                   stretched_ball_mesh)
    return [uniform_ball_mesh(1), cube_mesh(3), lcube_mesh(3), graded_ellipsoid_mesh(1),
            stretched_ball_mesh(1)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_boundary_extraction_equals_lexsort(boundary_solids, which, seed):
    # renumbered vertices and tets, and each tet's corners rotated among
    # themselves: the same faces and owners as the lexsort form, in its order
    mesh = boundary_solids[which]
    rng = np.random.default_rng(seed)
    n = len(mesh.vertices)
    new_id = rng.permutation(n)
    tets = new_id[mesh.tets][rng.permutation(len(mesh.tets))]
    tets = np.take_along_axis(tets, (np.arange(4) + rng.integers(0, 4, (len(tets), 1))) % 4,
                              axis=1)
    faces, owners = TetMesh._extract_boundary(tets, n)
    ref_faces, ref_owners = _lexsort_boundary(tets, n)
    assert np.array_equal(faces, ref_faces) and np.array_equal(owners, ref_owners)
    assert len(faces) == len(mesh.boundary_faces)


def test_boundary_extraction_limits():
    # a face of three tets is not a manifold; a vertex count past the int64
    # key's range is refused by name
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(TopologyError, match="non-manifold"):
        TetMesh._extract_boundary(tets, 6)
    assert MAX_VERTICES ** 3 - 1 == np.iinfo(np.int64).max
    top = MAX_VERTICES - 1 - tets[:2]  # the largest keys the limit allows
    for got, ref in zip(TetMesh._extract_boundary(top, MAX_VERTICES),
                        _lexsort_boundary(top, MAX_VERTICES)):
        assert np.array_equal(got, ref)
    with pytest.raises(MeshError, match=f"at most {MAX_VERTICES}"):
        TetMesh._extract_boundary(tets[:2], MAX_VERTICES + 1)


def _groups_boundary(tets, n):
    """Reference: the extraction before neighbour comparisons, grouping the
    sorted face keys by ``cumsum`` and counting them by ``bincount``."""
    faces = tets[:, FACE_LOCAL].reshape(-1, 3)
    f0, f1, f2 = faces.T
    lo, hi = np.minimum(f0, f1), np.maximum(f0, f1)
    mid = np.maximum(lo, f2)
    key = (np.minimum(lo, f2) * n + np.minimum(hi, mid)) * n + np.maximum(hi, mid)
    order = np.argsort(key)
    key = key[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = key[1:] != key[:-1]
    group_ids = np.cumsum(new_group) - 1
    counts = np.bincount(group_ids)
    if counts.max(initial=0) > 2:
        raise TopologyError("non-manifold face shared by more than two tets")
    single = order[counts[group_ids] == 1]
    return np.ascontiguousarray(faces[single]), single // 4


def _reference_from_arrays(vertices, tets):
    """Reference: the validation and derivations of ``from_arrays`` before it
    compared corner pairs, took the boundary by neighbour comparisons and
    named faults, as (tets, boundary faces, owners, mask), or its error."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    n = len(vertices)
    if tets.min() < 0 or tets.max() >= n:
        raise MeshError("tet vertex index out of range")
    sorted_t = np.sort(tets, axis=1)
    if np.any(sorted_t[:, :-1] == sorted_t[:, 1:]):
        bad = int(np.where(np.any(sorted_t[:, :-1] == sorted_t[:, 1:], axis=1))[0][0])
        raise DegenerateTetError(f"tet {bad} repeats a vertex")
    vols = signed_volumes(vertices, tets)
    flip = vols < 0
    if np.any(flip):
        tets = tets.copy()
        tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()
        vols = np.abs(vols)
    diag = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    if np.any(vols < 1e-14 * diag**3):
        bad = int(np.argmin(vols))
        raise DegenerateTetError(f"tet {bad} is degenerate (volume {vols[bad]:.3e})")
    used = np.zeros(n, dtype=bool)
    used[tets.ravel()] = True
    if not used.all():
        raise TopologyError(f"{int((~used).sum())} isolated vertices not referenced by any tet")
    boundary, owners = _groups_boundary(tets, n)
    mask = np.zeros(n, dtype=bool)
    mask[boundary.ravel()] = True
    bverts, compact = np.unique(boundary, return_inverse=True)
    pairs = np.sort(compact.reshape(-1, 3)[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    counts = np.unique(pairs, axis=0, return_counts=True)[1]
    if np.any(counts != 2):
        raise TopologyError("boundary surface is not closed / not edge-manifold")
    return tets, boundary, owners, mask


def _bench_solids():
    from volball.remesh import uniform_ball_mesh
    from volball.synthetic import (cube_mesh, graded_ellipsoid_mesh, lcube_mesh,
                                   stretched_ball_mesh)
    return {"ball2": lambda: uniform_ball_mesh(2), "stretched3": lambda: stretched_ball_mesh(3),
            "graded1": lambda: graded_ellipsoid_mesh(1), "cube4": lambda: cube_mesh(4),
            "lcube5": lambda: lcube_mesh(5)}


def _relabelled(mesh, seed):
    """The renumbering of the benchmark's inputs, as raw arrays: seed 0 as
    is, else vertices and tets permuted by one seeded generator."""
    if seed == 0:
        return mesh.vertices, mesh.tets
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.vertices))
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    return mesh.vertices[order], new_id[mesh.tets][rng.permutation(len(mesh.tets))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("solid", ["ball2", "stretched3", "graded1", "cube4", "lcube5"])
def test_boundary_extraction_matches_the_grouped_reference(solid, seed):
    mesh = _bench_solids()[solid]()
    vertices, tets = _relabelled(mesh, seed)
    faces, owners = TetMesh._extract_boundary(tets, len(vertices))
    ref_faces, ref_owners = _groups_boundary(tets, len(vertices))
    assert faces.dtype == ref_faces.dtype and faces.tobytes() == ref_faces.tobytes()
    assert owners.dtype == ref_owners.dtype and owners.tobytes() == ref_owners.tobytes()


def _corrupted(fault):
    """A relabelled ``uniform_ball_mesh(1)`` with one fault: a repeated
    corner, a flipped tet, a vertex no tet uses, or a new tet on an
    interior face, which that face then shares with two others."""
    from volball.remesh import uniform_ball_mesh
    mesh = uniform_ball_mesh(1)
    vertices, tets = _relabelled(mesh, 5)
    tets = tets.copy()
    if fault == "repeated corner":
        tets[17, 2] = tets[17, 0]
    elif fault == "flipped tet":
        tets[17, [1, 2]] = tets[17, [2, 1]]
    elif fault == "isolated vertex":
        vertices = np.vstack([vertices, [5.0, 5.0, 5.0]])
    else:
        interior = np.sort(mesh.tets[np.setdiff1d(np.arange(len(mesh.tets)),
                                                  mesh.boundary_owners)[0]][:3])
        vertices = np.vstack([mesh.vertices, [5.0, 5.0, 5.0]])
        tets = np.vstack([mesh.tets, np.r_[interior, len(mesh.vertices)]])
    return vertices, tets


@pytest.mark.parametrize("fault", ["repeated corner", "flipped tet", "isolated vertex",
                                   "shared face"])
def test_from_arrays_matches_the_grouped_reference_on_faults(fault):
    # the same arrays or the same error type and message, apart from the
    # context a non-manifold face now adds
    vertices, tets = _corrupted(fault)
    try:
        expected = _reference_from_arrays(vertices, tets)
    except MeshError as err:
        with pytest.raises(type(err)) as got:
            TetMesh.from_arrays(vertices, tets)
        assert type(got.value) is type(err) and str(got.value).startswith(str(err))
        return
    mesh = TetMesh.from_arrays(vertices, tets)
    for got, ref in zip((mesh.tets, mesh.boundary_faces, mesh.boundary_owners,
                         mesh.boundary_vertex_mask), expected):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_non_manifold_face_names_its_corners_and_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1],
                      [1, 1, 1], [1, 1, -1]])
    for extra, count in (([[1, 0, 2, 5]], 3), ([[1, 0, 2, 5], [2, 0, 1, 6]], 4)):
        tets = np.vstack([[[0, 1, 2, 3], [0, 1, 2, 4]], extra])
        with pytest.raises(TopologyError, match=re.escape(
                "non-manifold face shared by more than two tets: "
                f"face (0, 1, 2) is in {count} tets")):
            TetMesh.from_arrays(verts[:tets.max() + 1], tets)


def test_open_boundary_names_its_edge_and_faces():
    # a tet meeting cube_mesh(2) at its boundary edge (25, 26) only: four
    # boundary faces hold the edge, named by volume vertex ids although the
    # interior vertex 13 shifts the surface's own numbering
    from volball.synthetic import cube_mesh
    cube = cube_mesh(2)
    verts = np.vstack([cube.vertices, [[2.0, 2.0, 0.5], [1.5, 2.5, 0.2]]])
    tets = np.vstack([cube.tets, [[25, 26, 27, 28]]])
    with pytest.raises(TopologyError, match=re.escape(
            "boundary surface is not closed / not edge-manifold: edge (25, 26) is in 4 faces")):
        TetMesh.from_arrays(verts, tets)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(value):
    from volball.synthetic import cube_mesh
    cube = cube_mesh(2)
    verts = cube.vertices.copy()
    verts[[5, 9], 1] = value
    with pytest.raises(MeshError, match=re.escape(
            f"vertex 5 has a non-finite coordinate [-1.0, {value}, 1.0]")) as err:
        TetMesh.from_arrays(verts, cube.tets)
    assert type(err.value) is MeshError


@pytest.mark.parametrize("tets, message", [
    ([[0, 1, 2, 3], [1, 2, 3, 4.0], [0, 1, 2, 3.7]], "tet 2 corner 3 is 3.7"),
    ([[0, 1, 2, 3], [1, 2, np.nan, 4]], "tet 1 corner 2 is nan"),
    ([[0, 1, 2, 3], [1, 2, np.inf, 4]], "tet 1 corner 2 is inf"),
    (np.ones((2, 4), dtype=bool), "tet 0 corner 0 is True"),
])
def test_tet_indices_must_be_integers(tets, message):
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    with pytest.raises(MeshError, match=re.escape(f"{message}, not an integer index")):
        TetMesh.from_arrays(verts, np.asarray(tets))


def test_whole_valued_float_indices_are_accepted(two_tet_mesh):
    mesh = TetMesh.from_arrays(two_tet_mesh.vertices, two_tet_mesh.tets.astype(np.float64))
    assert mesh.tets.dtype == np.int64
    assert mesh.tets.tobytes() == two_tet_mesh.tets.tobytes()
