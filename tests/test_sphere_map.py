import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volball import linsolve
from volball.sphere_map import (beltrami_coefficient, beltrami_stiffness,
                                center_sphere, compute_boundary_sphere_map,
                                correct_spherical_flips, face_normals_areas,
                                face_to_vertex_matrix, inverse_stereographic,
                                mean_value_weights, normalize_rows,
                                spherical_flips, stereographic,
                                surface_density_equalize, surface_gradient,
                                surface_laplacian, truncate_beltrami)
from volball.tetmesh import TetMesh


def test_stereographic_roundtrip():
    rng = np.random.default_rng(0)
    pts = normalize_rows(rng.normal(size=(200, 3)))
    for pole in (1.0, -1.0):
        z = stereographic(pts, pole)
        back = inverse_stereographic(z, pole)
        np.testing.assert_allclose(back, pts, atol=1e-12)


def test_beltrami_identity_zero():
    rng = np.random.default_rng(1)
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    faces = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    mu = beltrami_coefficient(z, z, faces)
    np.testing.assert_allclose(mu, 0.0, atol=1e-14)


def test_beltrami_affine_conformal_vs_antiholomorphic():
    z = np.array([0, 1, 1j, 1 + 1j], dtype=complex)
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    w = (2 + 1j) * z + 3.0  # holomorphic: mu = 0
    np.testing.assert_allclose(beltrami_coefficient(z, w, faces), 0.0, atol=1e-14)
    w = np.conj(z)  # anti-holomorphic: |mu| -> infinity proxy
    assert np.all(np.abs(beltrami_coefficient(z, w, faces)) > 1.0)
    # pure stretch z + 0.5 conj(z): mu = 0.5
    w = z + 0.5 * np.conj(z)
    np.testing.assert_allclose(beltrami_coefficient(z, w, faces), 0.5, atol=1e-14)


def test_truncate_beltrami():
    mu = np.array([0.1 + 0.2j, 2.0 + 0j, -3.0j])
    out = truncate_beltrami(mu, cap=0.99)
    assert out[0] == mu[0]
    np.testing.assert_allclose(np.abs(out[1:]), 0.99)
    np.testing.assert_allclose(np.angle(out[1:]), np.angle(mu[1:]))


def test_beltrami_stiffness_reduces_to_laplacian():
    # mu = 0 gives the standard cotangent stiffness: zero row sums, symmetric
    rng = np.random.default_rng(2)
    z = rng.normal(size=30) + 1j * rng.normal(size=30)
    from scipy.spatial import Delaunay
    tri = Delaunay(np.column_stack([z.real, z.imag]))
    faces = tri.simplices
    system = beltrami_stiffness(z, faces, np.zeros(len(faces), dtype=complex))
    rows = np.asarray(system.matrix.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-10


def test_surface_gradient_linear_exact(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    pts = normalize_rows(ball_mesh.vertices[vid])
    g = np.array([0.3, -1.2, 0.7])
    grad = surface_gradient(pts, faces, pts @ g)
    normals, _ = face_normals_areas(pts, faces)
    expected = g - normals * (normals @ g)[:, None]  # tangential part of g
    np.testing.assert_allclose(grad, expected, atol=1e-10)


def test_surface_laplacian_row_sums(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    pts = ball_mesh.vertices[vid]
    L = surface_laplacian(pts, faces,
                          linsolve.AssemblyPlan.for_elements(faces, len(pts)))
    rows = np.asarray(L.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-10


def test_face_to_vertex_row_stochastic(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    _, areas = face_normals_areas(ball_mesh.vertices[vid], faces)
    conv = face_to_vertex_matrix(faces, areas, len(vid))
    np.testing.assert_allclose(np.asarray(conv.sum(axis=1)).ravel(), 1.0,
                               atol=1e-12)


def test_mean_value_weights_positive_row_stochastic(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    W = mean_value_weights(ball_mesh.vertices[vid], faces, len(vid))
    assert W.data.min() > 0
    np.testing.assert_allclose(np.asarray(W.sum(axis=1)).ravel(), 1.0, atol=1e-12)


def test_boundary_map_sphere_is_near_identity(ball_mesh):
    bmap = compute_boundary_sphere_map(ball_mesh, mode="conformal")
    vid, faces = ball_mesh.boundary_surface()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    assert spherical_flips(bmap.points, faces).sum() == 0
    ident = normalize_rows(ball_mesh.vertices[vid])
    drift = np.linalg.norm(bmap.points - ident, axis=1)
    assert drift.max() < 0.05


def test_boundary_map_ellipsoid(ball_mesh):
    from volball.synthetic import ellipsoid_mesh
    mesh = ellipsoid_mesh(1, axes=(2.0, 1.0, 1.0))
    bmap = compute_boundary_sphere_map(mesh, mode="conformal")
    _, faces = mesh.boundary_surface()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    assert spherical_flips(bmap.points, faces).sum() == 0


def test_boundary_map_density_equalizing_converges(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    bmap = compute_boundary_sphere_map(ball_mesh, mode="density_equalizing")
    _, areas0 = face_normals_areas(ball_mesh.vertices[vid], faces)
    _, areas = face_normals_areas(bmap.points, faces)
    rho = areas0 / areas
    assert np.std(rho) / np.mean(rho) < 1e-2
    assert spherical_flips(bmap.points, faces).sum() == 0


def test_boundary_map_mode_validation(ball_mesh):
    with pytest.raises(ValueError):
        compute_boundary_sphere_map(ball_mesh, mode="bogus")


def test_surface_dem_uniform_population_stops_immediately(ball_mesh, caplog):
    vid, faces = ball_mesh.boundary_surface()
    sphere = normalize_rows(ball_mesh.vertices[vid])
    _, areas = face_normals_areas(sphere, faces)
    with caplog.at_level(logging.DEBUG, logger="volball"):
        out = surface_density_equalize(sphere, faces, areas.copy())
    np.testing.assert_allclose(out, sphere, atol=1e-12)
    [record] = [r for r in caplog.records if r.name == "volball"]
    assert (record.rounds, record.reason) == (0, "eps")
    assert record.sd_mean < 1e-2


@pytest.fixture(scope="module")
def graded_sphere():
    """Conformal sphere and face areas of the graded solid's boundary."""
    from volball.sphere_map import spherical_embedding
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    vid, faces = mesh.boundary_surface()
    _, areas = face_normals_areas(mesh.vertices[vid], faces)
    return spherical_embedding(mesh.vertices[vid], faces), faces, areas


def test_surface_flow_builds_one_plan(monkeypatch, graded_sphere):
    from volball import sphere_map
    sphere, faces, areas = graded_sphere
    plans, stiffness = [], []
    init = linsolve.AssemblyPlan.__init__

    def counted_plan(self, dimension, rows, cols):
        plans.append(1)
        init(self, dimension, rows, cols)

    def counted_stiffness(*args):
        stiffness.append(1)
        return beltrami_stiffness(*args)

    monkeypatch.setattr(linsolve.AssemblyPlan, "__init__", counted_plan)
    monkeypatch.setattr(sphere_map, "beltrami_stiffness", counted_stiffness)
    surface_density_equalize(sphere, faces, areas, max_iter=20)
    assert len(plans) <= 1 + len(stiffness)


def test_surface_flow_logs_stop_reason(caplog, graded_sphere):
    sphere, faces, areas = graded_sphere
    with caplog.at_level(logging.DEBUG, logger="volball"):
        out = surface_density_equalize(sphere, faces, areas)
    records = [r for r in caplog.records if r.name == "volball"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    # the graded solid's surface flow runs out of rounds (sd/mean stays
    # above eps); the record says so and carries the final ratio
    assert (record.rounds, record.reason) == (100, "max_iter")
    _, out_areas = face_normals_areas(out, faces)
    rho = areas / out_areas
    assert record.sd_mean == pytest.approx(np.std(rho) / np.mean(rho), rel=1e-12)
    assert record.sd_mean >= 1e-2
    assert "100 of 100 rounds (max_iter)" in record.getMessage()


def test_correct_spherical_flips_repairs_local_swap(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    sphere = normalize_rows(ball_mesh.vertices[vid])
    ref = sphere.copy()
    # swapping two adjacent vertices flips their shared triangles
    a, b = faces[0, 0], faces[0, 1]
    broken = sphere.copy()
    broken[[a, b]] = broken[[b, a]]
    assert spherical_flips(broken, faces).any()
    fixed = correct_spherical_flips(ref, broken, faces)
    assert not spherical_flips(fixed, faces).any()
    assert np.abs(np.linalg.norm(fixed, axis=1) - 1).max() < 1e-12


def _area_centroid(points, faces):
    _, areas = face_normals_areas(points, faces)
    return (areas[:, None] * points[faces].mean(axis=1)).sum(axis=0) / areas.sum()


@pytest.mark.parametrize("offset", [(0.2, 0.0, -0.1), (1e-3, 0.0, 0.0)])
def test_center_sphere_one_step_reduces_area_centroid(ball_mesh, offset):
    vid, faces = ball_mesh.boundary_surface()
    sphere = normalize_rows(ball_mesh.vertices[vid] + np.array(offset))
    out = center_sphere(sphere, faces)
    assert (np.linalg.norm(_area_centroid(out, faces))
            < np.linalg.norm(_area_centroid(sphere, faces)))
    assert np.abs(np.linalg.norm(out, axis=1) - 1).max() < 1e-12


def test_spherical_embedding_one_centroid_per_round(monkeypatch):
    from volball import sphere_map
    from volball.synthetic import stretched_ball_mesh
    mesh = stretched_ball_mesh(2)
    vid, faces = mesh.boundary_surface()
    calls = []

    def counted(points, faces):
        calls.append(1)
        return face_normals_areas(points, faces)

    monkeypatch.setattr(sphere_map, "face_normals_areas", counted)
    sphere_map.spherical_embedding(mesh.vertices[vid], faces)
    assert len(calls) <= sphere_map.SMOOTH_ITERS + 1


def _relabel(mesh, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.vertices))  # new vertex i is old order[i]
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    tets = new_id[mesh.tets][rng.permutation(len(mesh.tets))]
    return TetMesh.from_arrays(mesh.vertices[order], tets)


@pytest.fixture(scope="module")
def solids(ball_mesh):
    from volball.synthetic import cube_mesh, graded_ellipsoid_mesh
    return {"ball": ball_mesh, "cube": cube_mesh(4),
            "graded": graded_ellipsoid_mesh(1)}


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["ball", "cube", "graded"]), st.integers(0, 2**32 - 1))
def test_conformal_boundary_map_invariants_under_relabelling(solids, name, seed):
    mesh = _relabel(solids[name], seed)
    bmap = compute_boundary_sphere_map(mesh, "conformal")
    _, faces = mesh.boundary_surface()
    assert not spherical_flips(bmap.points, faces).any()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    again = compute_boundary_sphere_map(mesh, "conformal")
    np.testing.assert_array_equal(again.vertex_indices, bmap.vertex_indices)
    np.testing.assert_array_equal(again.points, bmap.points)
