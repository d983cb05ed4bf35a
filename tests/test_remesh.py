from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

from volball import remesh
from volball.remesh import (RemeshQuality, _beyond_hull, _closest_point_on_triangles, _snap,
                            pullback, quality_metrics, uniform_ball_mesh)
from volball.tetmesh import (INSIDE_TOL, PointLocator, TetMesh, barycentric_coordinates,
                             signed_volumes)


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


@pytest.mark.parametrize("resolution", [2.5, 2.0, True, np.bool_(True), "2"])
def test_uniform_ball_rejects_a_resolution_that_is_not_an_integer(resolution):
    with pytest.raises(ValueError, match=f"resolution must be an integer, not {resolution!r}"):
        uniform_ball_mesh(resolution)


def test_uniform_ball_takes_a_numpy_integer_resolution():
    a, b = uniform_ball_mesh(np.int64(1)), uniform_ball_mesh(1)
    assert a.vertices.tobytes() == b.vertices.tobytes() and a.tets.tobytes() == b.tets.tobytes()


def test_stored_templates_are_the_delaunay_of_their_clouds():
    # the package file, as an installed package finds it, holds for
    # resolutions 1-3 exactly what from_arrays derives from qhull's
    # triangulation of the cloud, and the template built from it equals
    # that mesh array for array, with the same write flags
    resource = resources.files("volball").joinpath(remesh._TEMPLATE_FILE)
    assert resource.is_file()
    with resource.open("rb") as f, np.load(f) as stored:
        arrays = {name: stored[name] for name in stored.files}
    fields = ("tets", "boundary_faces", "boundary_owners")
    assert remesh._STORED_FIELDS == fields and remesh._STORED_RESOLUTIONS == 3
    assert sorted(arrays) == sorted(f"r{r}_{name}" for r in (1, 2, 3) for name in fields)
    for r in (1, 2, 3):
        cloud = remesh._ball_cloud(r)
        ref = TetMesh.from_arrays(cloud, Delaunay(cloud).simplices)
        for name in fields:
            got = arrays[f"r{r}_{name}"]
            assert got.dtype == np.int16
            assert got.astype(np.int64).tobytes() == getattr(ref, name).tobytes()
        mesh = uniform_ball_mesh(r)
        for name in ("vertices", "tets", "boundary_faces", "boundary_vertex_mask",
                     "boundary_owners"):
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable
            assert not want.flags.writeable


def test_stored_templates_extract_no_boundary(monkeypatch):
    # resolutions 1-3 take their boundary from the file; 4 derives it
    calls = []
    extract = TetMesh._extract_boundary

    def counted(tets, n_vertices):
        calls.append(len(tets))
        return extract(tets, n_vertices)

    monkeypatch.setattr(TetMesh, "_extract_boundary", staticmethod(counted))
    for r in (1, 2, 3):
        uniform_ball_mesh(r)
    assert calls == []
    mesh = uniform_ball_mesh(4)
    assert calls == [len(mesh.tets)]


def test_uniform_ball_runs_qhull_above_the_stored_resolutions(monkeypatch):
    calls = []

    def counted(points):
        calls.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(remesh, "Delaunay", counted)
    for r in (1, 2, 3):
        uniform_ball_mesh(r)
    assert calls == []
    mesh = uniform_ball_mesh(4)
    assert calls == [len(mesh.vertices)]
    assert np.array_equal(mesh.vertices, remesh._ball_cloud(4))
    # a missing file is an error, not a reason to run qhull
    monkeypatch.setattr(remesh, "_TEMPLATE_FILE", "missing.npz")
    with pytest.raises(FileNotFoundError):
        uniform_ball_mesh(2)
    assert len(calls) == 1


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


def _snap_every_candidate(source, forward, points):
    """Reference: the snap with a closest point on each of the 16 candidate
    faces of every point."""
    faces = source.boundary_faces
    k = min(16, len(faces))
    _, cand = cKDTree(forward[faces].mean(axis=1)).query(points, k=k)
    cand = np.reshape(cand, (len(points), k))
    proj = _closest_point_on_triangles(points[:, None], forward[faces[cand]])
    rows = np.arange(len(points))
    best = np.argmin(np.linalg.norm(proj - points[:, None], axis=2), axis=1)
    tets = source.boundary_owners[cand[rows, best]]
    lam = np.clip(barycentric_coordinates(forward, source.tets, tets, proj[rows, best]),
                  0.0, None)
    return tets, lam / lam.sum(axis=1, keepdims=True)


def _locate_everything_pullback(source, forward, template):
    """Reference: the pullback with every template vertex sent through the
    locator, the misses snapped in one batch against every candidate face."""
    forward = np.asarray(forward, dtype=np.float64)
    tets, lam = PointLocator(forward, source.tets).locate_points(template.vertices)
    missed = np.flatnonzero(tets < 0)
    if missed.size:
        tets[missed], lam[missed] = _snap_every_candidate(source, forward,
                                                          template.vertices[missed])
    return np.matmul(lam[:, None, :], source.vertices[source.tets[tets]])[:, 0], int(missed.size)


@pytest.fixture(scope="module")
def pullback_maps(graded_map, ball_mesh):
    from volball.drivers import run_method
    from volball.synthetic import cube_mesh, graded_ellipsoid_mesh
    graded, cube = graded_ellipsoid_mesh(1), cube_mesh(4)
    return {"graded1_3ddeq": graded_map,
            "graded1_3dqc": (graded, run_method("3dqc", graded, None).positions),
            "cube4_3dqc": (cube, run_method("3dqc", cube, None).positions),
            "ball_scaled": (ball_mesh, 0.8 * ball_mesh.vertices)}


@pytest.fixture(scope="module")
def templates(template_2):
    return {1: uniform_ball_mesh(1), 2: template_2, 3: uniform_ball_mesh(3)}


@pytest.mark.parametrize("case", ["graded1_3ddeq", "graded1_3dqc", "cube4_3dqc", "ball_scaled"])
@pytest.mark.parametrize("resolution", [1, 2, 3])
def test_pullback_equals_locating_every_vertex(monkeypatch, pullback_maps, templates, case,
                                               resolution):
    source, forward = pullback_maps[case]
    template = templates[resolution]
    located = []
    locate = PointLocator.locate_points

    def recorded(self, points):
        located.append(len(points))
        return locate(self, points)

    monkeypatch.setattr(PointLocator, "locate_points", recorded)
    pos, snapped = pullback(source, forward, template)
    ref, ref_snapped = _locate_everything_pullback(source, forward, template)
    assert snapped == ref_snapped and pos.tobytes() == ref.tobytes()
    # the ball maps put every shell vertex of the template beyond the hull
    beyond = _beyond_hull(np.asarray(forward), template.vertices)
    if case != "ball_scaled":
        assert np.array_equal(beyond, template.boundary_vertex_mask)
    assert located[0] == len(template.vertices) - np.count_nonzero(beyond)


def test_pullback_locates_points_inside_the_hull_or_its_margin(monkeypatch):
    # the L-shaped solid as its own map: the removed octant lies inside the
    # hull but outside the solid, and points just off the hull's facet x = 1,
    # within the margin or not, take the locator path; a point past the
    # margin does not
    from volball.remesh import HULL_MARGIN
    from volball.synthetic import lcube_mesh
    source = lcube_mesh(4)
    forward = source.vertices
    margin = HULL_MARGIN * np.linalg.norm(forward.max(axis=0) - forward.min(axis=0))
    rng = np.random.default_rng(5)
    notch = rng.uniform(0.1, 0.6, size=(20, 3))  # below the hull's facet x + y + z = 2
    off_facet = np.column_stack([1.0 + np.array([1e-12, 0.1, 0.5, 0.9]) * margin,
                                 rng.uniform(-0.9, -0.1, size=(4, 2))])
    far = np.array([[1.0 + 2.0 * margin, -0.5, -0.5], [0.0, 0.0, 1.5]])
    inside = rng.uniform(-0.9, -0.1, size=(30, 3))
    cloud = np.vstack([notch, off_facet, far, inside])
    template = TetMesh.from_arrays(cloud, Delaunay(cloud).simplices)
    is_far = np.zeros(len(cloud), dtype=bool)
    is_far[len(notch) + len(off_facet):][:len(far)] = True
    assert np.array_equal(_beyond_hull(forward, cloud), is_far)
    located = []
    locate = PointLocator.locate_points

    def recorded(self, points):
        located.append(np.array(points))
        return locate(self, points)

    monkeypatch.setattr(PointLocator, "locate_points", recorded)
    pos, snapped = pullback(source, forward, template)
    ref, ref_snapped = _locate_everything_pullback(source, forward, template)
    assert snapped == ref_snapped and pos.tobytes() == ref.tobytes()
    assert located[0].tobytes() == np.vstack([notch, off_facet, inside]).tobytes()
    # the notch and the points off the facet by 0.1-0.9 margins are missed and
    # snapped, as are the far ones; the point off by 1e-12 margins is placed
    assert snapped == len(notch) + 3 + len(far)


@pytest.mark.parametrize("case", ["graded1_3ddeq", "cube4_3dqc", "ball_scaled"])
def test_snap_equals_every_candidate(pullback_maps, templates, case):
    # template points, and points where faces tie: on the mapped boundary's
    # vertices, edge midpoints and face centroids, and just off them
    source, forward = pullback_maps[case]
    corners = np.asarray(forward)[source.boundary_faces]
    rng = np.random.default_rng(7)
    for points in (templates[3].vertices, corners[:, 0], corners[:, :2].mean(axis=1),
                   corners.mean(axis=1), 1.01 * corners[:, 0],
                   corners[:, 0] + 1e-12 * rng.normal(size=corners[:, 0].shape)):
        tets, lam = _snap(source, forward, points)
        ref_tets, ref_lam = _snap_every_candidate(source, forward, points)
        assert tets.tobytes() == ref_tets.tobytes() and lam.tobytes() == ref_lam.tobytes()
