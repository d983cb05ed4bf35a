import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from volball.remesh import (RemeshQuality, pullback, quality_metrics,
                            uniform_ball_mesh)
from volball.tetmesh import INSIDE_TOL, PointLocator, TetMesh, signed_volumes


def test_uniform_ball_resolution_one():
    mesh = uniform_ball_mesh(1)
    assert mesh.count_folds(mesh.vertices) == 0
    ratio = mesh.enclosed_volume() / (4 * np.pi / 3)
    assert 0.9 < ratio < 1.0


def test_uniform_ball_default_volume_within_one_percent():
    mesh = uniform_ball_mesh()
    ratio = mesh.enclosed_volume() / (4 * np.pi / 3)
    assert abs(ratio - 1.0) < 0.01


def test_uniform_ball_refinement_rate():
    n1 = len(uniform_ball_mesh(1).tets)
    n2 = len(uniform_ball_mesh(2).tets)
    assert 8 * 0.7 <= n2 / n1 <= 8 * 1.3


def test_uniform_ball_is_deterministic():
    a = uniform_ball_mesh(1)
    b = uniform_ball_mesh(1)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.tets, b.tets)


def test_quality_equilateral_tet():
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                     dtype=float)
    mesh = TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3]]))
    q = quality_metrics(mesh.tets, mesh.vertices)
    assert q.regularity[0] == pytest.approx(0.0, abs=1e-14)
    assert q.delta_size == pytest.approx(0.0)
    assert q.delta_shape == pytest.approx(0.0, abs=1e-14)


def test_quality_regularity_formula():
    # tet with edge lengths (2,1,1,1,1,1): R = |2/7-1/6| + 5*|1/7-1/6| = 10/42
    lengths = np.array([2.0, 1, 1, 1, 1, 1])
    frac = lengths / lengths.sum()
    R = np.abs(frac - 1 / 6).sum()
    assert R == pytest.approx(10.0 / 42.0, rel=1e-12)
    # cross-check quality_metrics against the same brute-force path
    mesh = uniform_ball_mesh(1)
    q = quality_metrics(mesh.tets, mesh.vertices)
    from volball.tetmesh import EDGE_LOCAL
    edges = mesh.vertices[mesh.tets[:, EDGE_LOCAL[:, 0]]] - \
        mesh.vertices[mesh.tets[:, EDGE_LOCAL[:, 1]]]
    L = np.linalg.norm(edges, axis=2)
    brute_R = np.abs(L / L.sum(axis=1, keepdims=True) - 1 / 6).sum(axis=1)
    np.testing.assert_allclose(q.regularity, brute_R, atol=1e-12)
    assert q.delta_shape == pytest.approx(float(np.mean(brute_R)), abs=1e-12)
    vols = np.abs(signed_volumes(mesh.vertices, mesh.tets))
    assert q.delta_size == pytest.approx(float(np.std(vols)), abs=1e-12)


def test_quality_scale_invariance_of_regularity():
    verts = np.array([[0.0, 0, 0], [1.3, 0, 0], [0, 0.7, 0], [0, 0, 2.1]])
    mesh = TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3]]))
    q1 = quality_metrics(mesh.tets, mesh.vertices)
    q2 = quality_metrics(mesh.tets, 5.0 * mesh.vertices)
    np.testing.assert_allclose(q1.regularity, q2.regularity, atol=1e-12)


def test_pullback_identity(ball_mesh):
    # forward map = identity: template vertices reproduce themselves
    template = uniform_ball_mesh(1)
    pos, snapped = pullback(ball_mesh, ball_mesh.vertices, template)
    inside = np.linalg.norm(template.vertices, axis=1) < 0.95
    np.testing.assert_allclose(pos[inside], template.vertices[inside], atol=1e-9)


def test_pullback_rotation(ball_mesh):
    theta = 0.5
    R = np.array([[np.cos(theta), -np.sin(theta), 0],
                  [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
    template = uniform_ball_mesh(1)
    pos, _ = pullback(ball_mesh, ball_mesh.vertices @ R.T, template)
    inside = np.linalg.norm(template.vertices, axis=1) < 0.95
    np.testing.assert_allclose(pos[inside], template.vertices[inside] @ R,
                               atol=1e-8)


def test_pullback_vertex_coincidence(ball_mesh):
    # a point placed exactly at a deformed source vertex is located in a tet
    # incident to that vertex and maps to the vertex's rest position
    deformed = 0.9 * ball_mesh.vertices
    tet_index, lambdas = PointLocator(deformed, ball_mesh.tets).locate(deformed[10])
    tet = ball_mesh.tets[tet_index]
    assert 10 in tet
    assert lambdas[list(tet).index(10)] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(lambdas @ ball_mesh.vertices[tet],
                               ball_mesh.vertices[10], atol=1e-12)
    direct, _ = pullback(ball_mesh, deformed, ball_mesh)
    inner = np.linalg.norm(ball_mesh.vertices, axis=1) < 0.85
    np.testing.assert_allclose(direct[inner], ball_mesh.vertices[inner] / 0.9,
                               atol=1e-8)


def test_pullback_snap_count_reported(ball_mesh):
    template = uniform_ball_mesh(1)
    # shrink the forward image so outer template vertices fall outside
    pos, snapped = pullback(ball_mesh, 0.8 * ball_mesh.vertices, template)
    assert snapped > 0
    assert np.isfinite(pos).all()
    assert np.linalg.norm(pos, axis=1).max() < 1.3 / 0.8 + 0.1


@pytest.fixture(scope="module")
def graded_map():
    from volball.drivers import run_method
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    return mesh, run_method("3ddeq", mesh, np.abs(mesh.volumes)).positions


@pytest.fixture(scope="module")
def template_2():
    return uniform_ball_mesh(2)


def _closest_on_triangle(p, a, b, c):
    """Reference: the projection onto the triangle's plane if it falls inside,
    else the nearest point on the three edges."""
    n = np.cross(b - a, c - a)
    q = p - np.dot(p - a, n) / np.dot(n, n) * n
    if all(np.dot(np.cross(y - x, q - x), n) >= 0 for x, y in ((a, b), (b, c), (c, a))):
        return q
    best = None
    for x, y in ((a, b), (b, c), (c, a)):
        d = y - x
        e = x + min(max(np.dot(p - x, d) / np.dot(d, d), 0.0), 1.0) * d
        if best is None or np.linalg.norm(e - p) < np.linalg.norm(best - p):
            best = e
    return best


def _brute_pullback(source, forward, template):
    """Reference pullback, one point at a time: each vertex takes the tet of
    largest minimum barycentric over all tets (LAPACK solves); a miss is
    snapped to the closest point on its 16 nearest boundary faces."""
    corners = forward[source.tets]
    edges = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    faces = source.boundary_faces
    tree = cKDTree(forward[faces].mean(axis=1))
    rest = source.vertices[source.tets]
    out = np.empty((len(template.vertices), 3))
    snapped = 0
    for i, p in enumerate(template.vertices):
        lam = np.linalg.solve(edges, (p - corners[:, 0])[:, :, None])[..., 0]
        lam = np.column_stack([1.0 - lam.sum(axis=1), lam])
        worst = lam.min(axis=1)
        t = int(np.argmax(worst))
        if worst[t] < -INSIDE_TOL:
            snapped += 1
            _, cand = tree.query(p, k=min(16, len(faces)))
            proj = [_closest_on_triangle(p, *forward[faces[f]]) for f in cand]
            j = int(np.argmin([np.linalg.norm(q - p) for q in proj]))
            t = int(source.boundary_owners[cand[j]])
            lam_t = np.linalg.solve(edges[t], proj[j] - corners[t, 0])
            lam_t = np.clip(np.r_[1.0 - lam_t.sum(), lam_t], 0.0, None)
            out[i] = lam_t / lam_t.sum() @ rest[t]
        else:
            out[i] = lam[t] @ rest[t]
    return out, snapped


@pytest.mark.parametrize("case", ["graded_3ddeq", "ball_scaled"])
def test_pullback_matches_brute_force(case, graded_map, ball_mesh, template_2):
    source, forward = graded_map if case == "graded_3ddeq" else (ball_mesh, 0.8 * ball_mesh.vertices)
    pos, snapped = pullback(source, forward, template_2)
    ref, ref_snapped = _brute_pullback(source, forward, template_2)
    assert snapped == ref_snapped > 0
    assert np.abs(pos - ref).max() <= 1e-12


def _renumber(mesh, positions, seed):
    """The same solid and map with vertices, tets and each tet's corners
    permuted by ``seed``."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.vertices))  # new vertex i is old order[i]
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    tets = new_id[mesh.tets][rng.permutation(len(mesh.tets))]
    roll = (np.arange(4) + rng.integers(0, 4, size=(len(tets), 1))) % 4
    tets = np.take_along_axis(tets, roll, axis=1)
    return TetMesh.from_arrays(mesh.vertices[order], tets), positions[order]


@settings(max_examples=4, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pullback_invariant_under_source_renumbering(graded_map, template_2, seed):
    source, forward = graded_map
    pos, snapped = pullback(source, forward, template_2)
    pos_r, snapped_r = pullback(*_renumber(source, forward, seed), template_2)
    assert snapped_r == snapped
    assert np.abs(pos_r - pos).max() <= 1e-12
