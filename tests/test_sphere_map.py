import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volball import linsolve
from volball.sphere_map import (BoundaryMap, SphereMapError, beltrami_coefficient,
                                beltrami_stiffness, center_sphere,
                                compute_boundary_sphere_map,
                                correct_spherical_flips, face_normals_areas,
                                inverse_stereographic, mean_value_weights,
                                normalize_rows, spherical_embedding,
                                spherical_flips, stereographic,
                                surface_density_equalize, surface_gradient,
                                surface_laplacian, triangle_geometry,
                                truncate_beltrami)
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
    grad = surface_gradient(triangle_geometry(pts, faces), (pts @ g)[faces])
    normals, _ = face_normals_areas(pts, faces)
    expected = g - normals * (normals @ g)[:, None]  # tangential part of g
    np.testing.assert_allclose(grad, expected, atol=1e-10)


def test_surface_laplacian_row_sums(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    pts = ball_mesh.vertices[vid]
    L = surface_laplacian(triangle_geometry(pts, faces),
                          linsolve.AssemblyPlan.for_elements(faces, len(pts))).matrix
    rows = np.asarray(L.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-10


def test_surface_laplacian_matches_per_corner_cotangents(ball_mesh):
    # oracle: each corner's cotangent from its own two edges, np.cross and
    # np.linalg.norm, scattered into a dense matrix
    vid, faces = ball_mesh.boundary_surface()
    pts = normalize_rows(ball_mesh.vertices[vid])
    dense = np.zeros((len(pts), len(pts)))
    for k in range(3):
        i, j = faces[:, (k + 1) % 3], faces[:, (k + 2) % 3]
        u = pts[i] - pts[faces[:, k]]
        v = pts[j] - pts[faces[:, k]]
        w = 0.5 * np.einsum("ij,ij->i", u, v) / np.linalg.norm(np.cross(u, v), axis=1)
        np.add.at(dense, (i, j), -w)
        np.add.at(dense, (j, i), -w)
        np.add.at(dense, (i, i), w)
        np.add.at(dense, (j, j), w)
    L = surface_laplacian(triangle_geometry(pts, faces),
                          linsolve.AssemblyPlan.for_elements(faces, len(pts))).matrix
    np.testing.assert_allclose(L.toarray(), dense, rtol=0, atol=1e-13)


def test_triangle_geometry_matches_cross_products(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    pts = normalize_rows(ball_mesh.vertices[vid])
    pts[faces[0, 0]], pts[faces[0, 1]] = pts[faces[0, 1]].copy(), pts[faces[0, 0]].copy()
    geo = triangle_geometry(pts, faces)
    tri = pts[faces]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    # component-major: coordinates first, the triangle index last
    np.testing.assert_array_equal(geo.normals, n.T)
    np.testing.assert_array_equal(geo.area2, np.linalg.norm(n, axis=1))
    np.testing.assert_array_equal(geo.edges[:, 0], (tri[:, 2] - tri[:, 1]).T)
    det = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
    np.testing.assert_array_equal(geo.flipped, det <= 0.0)
    assert geo.flipped.any()


def test_mean_value_weights_positive_row_stochastic(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    W = mean_value_weights(ball_mesh.vertices[vid], faces, len(vid))
    assert W.data.min() > 0
    np.testing.assert_allclose(np.asarray(W.sum(axis=1)).ravel(), 1.0, atol=1e-12)


def test_boundary_map_sphere_is_near_identity(ball_mesh):
    bmap = compute_boundary_sphere_map(ball_mesh)
    vid, faces = ball_mesh.boundary_surface()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    assert spherical_flips(bmap.points, faces).sum() == 0
    ident = normalize_rows(ball_mesh.vertices[vid])
    drift = np.linalg.norm(bmap.points - ident, axis=1)
    assert drift.max() < 0.05


def test_boundary_map_ellipsoid(ball_mesh):
    from volball.synthetic import ellipsoid_mesh
    mesh = ellipsoid_mesh(1, axes=(2.0, 1.0, 1.0))
    bmap = compute_boundary_sphere_map(mesh)
    _, faces = mesh.boundary_surface()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    assert spherical_flips(bmap.points, faces).sum() == 0


def test_boundary_map_density_equalizing_converges(ball_mesh):
    vid, faces = ball_mesh.boundary_surface()
    surf = ball_mesh.vertices[vid]
    _, areas0 = face_normals_areas(surf, faces)
    sphere = surface_density_equalize(spherical_embedding(surf, faces), faces, areas0)
    bmap = BoundaryMap.checked(vid, faces, sphere)
    _, areas = face_normals_areas(bmap.points, faces)
    rho = areas0 / areas
    assert np.std(rho) / np.mean(rho) < 1e-2
    assert spherical_flips(bmap.points, faces).sum() == 0


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
    # per-triangulation state is built once (the plan's RCM order reads one
    # CSR pattern); a round assembles one Laplacian and builds no CSR matrix
    # (its diffusion system is factored and checked on the plan's data), no
    # COO matrix and no sparse sum (overlap correction, when it fires, builds
    # its own plan, vertex rings and CSR blocks)
    from scipy.sparse import coo_matrix, csr_matrix

    from volball import sphere_map
    sphere, faces, areas = graded_sphere
    plans, stiffness, corrections, coo, sums, assembled = [], [], [], [], [], []
    csr, csr_in_correction = [], []
    init = linsolve.AssemblyPlan.__init__
    coo_init = coo_matrix.__init__
    csr_init = csr_matrix.__init__
    add = csr_matrix.__add__
    assemble = linsolve.assemble
    correct = sphere_map.correct_spherical_flips

    def counted_plan(self, dimension, rows, cols):
        plans.append(1)
        init(self, dimension, rows, cols)

    def counted_stiffness(*args):
        stiffness.append(1)
        return beltrami_stiffness(*args)

    def counted_correction(*args):
        corrections.append(1)
        before = len(csr)
        out = correct(*args)
        csr_in_correction.append(len(csr) - before)
        return out

    def counted_coo(self, *args, **kwargs):
        coo.append(1)
        coo_init(self, *args, **kwargs)

    def counted_csr(self, *args, **kwargs):
        csr.append(1)
        csr_init(self, *args, **kwargs)

    def counted_add(self, other):
        sums.append(1)
        return add(self, other)

    def counted_assemble(plan, values):
        assembled.append(1)
        return assemble(plan, values)

    monkeypatch.setattr(linsolve.AssemblyPlan, "__init__", counted_plan)
    monkeypatch.setattr(sphere_map, "beltrami_stiffness", counted_stiffness)
    monkeypatch.setattr(sphere_map, "correct_spherical_flips", counted_correction)
    monkeypatch.setattr(coo_matrix, "__init__", counted_coo)
    monkeypatch.setattr(csr_matrix, "__init__", counted_csr)
    monkeypatch.setattr(csr_matrix, "__add__", counted_add)
    monkeypatch.setattr(linsolve, "assemble", counted_assemble)
    surface_density_equalize(sphere, faces, areas, max_iter=20)
    assert len(plans) <= 1 + len(stiffness)
    assert len(coo) <= len(corrections)
    assert len(sums) == 0
    assert len(assembled) == 20 + len(stiffness)
    assert len(csr) - sum(csr_in_correction) == 1


def _surface_flow_as_first_written(sphere, faces, population, dt=0.1, eps=1e-2,
                                   max_iter=100):
    """Reference: the surface flow's first formulation, which rebuilt per
    round a COO-built face-to-vertex matrix, the diagonal mass matrix and the
    sparse sum M + dt L, with np.cross normals and per-corner cotangents,
    and solved the diffusion densely (a direct solve, as the flow's narrow
    band now takes). Returns the positions and the rounds run."""
    from scipy.linalg import cho_factor, cho_solve
    from scipy.sparse import csr_matrix

    from volball import density

    def normals_areas(points):
        nrm = np.cross(points[faces[:, 1]] - points[faces[:, 0]],
                       points[faces[:, 2]] - points[faces[:, 0]])
        norms = np.linalg.norm(nrm, axis=1)
        return nrm / norms[:, None], 0.5 * norms

    def laplacian(points):
        local = np.zeros((len(faces), 3, 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            u = points[faces[:, i]] - points[faces[:, k]]
            v = points[faces[:, j]] - points[faces[:, k]]
            cross = np.linalg.norm(np.cross(u, v), axis=1)
            w = 0.5 * np.einsum("ij,ij->i", u, v) / np.maximum(cross, 1e-300)
            local[:, i, j] = local[:, j, i] = -w
            local[:, i, i] += w
            local[:, j, j] += w
        return linsolve.assemble(plan, local.reshape(-1)).matrix

    def gradient(points, values):
        normal, areas = normals_areas(points)
        grad = np.zeros((len(faces), 3))
        for k in range(3):
            edge = points[faces[:, (k + 2) % 3]] - points[faces[:, (k + 1) % 3]]
            grad += values[faces[:, k], None] * np.cross(normal, edge)
        return grad / (2.0 * areas[:, None])

    u = normalize_rows(np.array(sphere, dtype=np.float64))
    n, m = len(u), len(faces)
    edges = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    on_sphere = np.ones(n, dtype=bool)
    plan = linsolve.AssemblyPlan.for_elements(faces, n)
    rows, cols = faces.reshape(-1), np.repeat(np.arange(m), 3)
    last_valid = u.copy()
    for rounds in range(max_iter + 1):
        _, areas = normals_areas(u)
        rho_face = population / areas
        ratio = np.std(rho_face) / np.mean(rho_face)
        if ratio < eps or rounds == max_iter:
            break
        vals = np.repeat(areas, 3)
        incident = np.bincount(rows, weights=vals, minlength=n)
        conv = csr_matrix((vals / incident[rows], (rows, cols)), shape=(n, m))
        lumped = np.bincount(rows, weights=np.repeat(areas / 3.0, 3), minlength=n)
        mass = csr_matrix((lumped, (np.arange(n), np.arange(n))), shape=(n, n))
        system = (mass + dt * laplacian(u)).toarray()
        rho_next = cho_solve(cho_factor(system), lumped * (conv @ rho_face))
        vel = density.velocity_field(rho_next, conv @ gradient(u, rho_next))
        u = density.capped_advect(u, vel, dt, edges, on_sphere)
        if spherical_flips(u, faces).any():
            u = correct_spherical_flips(last_valid, u, faces)
        last_valid = u.copy()
    return u, rounds


def test_surface_flow_matches_first_formulation(caplog, graded_sphere):
    sphere, faces, areas = graded_sphere
    expected, rounds = _surface_flow_as_first_written(sphere, faces, areas)
    with caplog.at_level(logging.DEBUG, logger="volball"):
        out = surface_density_equalize(sphere, faces, areas)
    [record] = [r for r in caplog.records if r.name == "volball"]
    assert record.rounds == rounds
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("population", [np.ones(1), np.ones((2, 1))])
def test_surface_flow_rejects_population_of_wrong_shape(ball_mesh, population):
    # a length-1 population used to be broadcast as a uniform one
    vid, faces = ball_mesh.boundary_surface()
    sphere = normalize_rows(ball_mesh.vertices[vid])
    with pytest.raises(SphereMapError, match=f"expected \\({len(faces)},\\)"):
        surface_density_equalize(sphere, faces, population)


@pytest.mark.parametrize("bad, index", [(np.nan, 7), (np.inf, 3), (0.0, 0), (-1.0, 5)])
def test_surface_flow_rejects_nonfinite_or_nonpositive_population(ball_mesh, bad, index):
    # a NaN population used to slip past the positivity test and end, 1 200
    # PCG iterations later, in "did not converge"
    vid, faces = ball_mesh.boundary_surface()
    sphere = normalize_rows(ball_mesh.vertices[vid])
    population = np.ones(len(faces))
    population[[index, index + 9]] = bad
    with pytest.raises(SphereMapError, match=f"face {index} has population {bad}"):
        surface_density_equalize(sphere, faces, population)


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


def test_spherical_embedding_keeps_last_flip_free_round(monkeypatch):
    # a round that flips is passed over, not repaired: the embedding returns
    # the latest flip-free round and never calls the Beltrami repair
    from volball import sphere_map
    from volball.synthetic import cube_mesh
    mesh = cube_mesh(3)
    vid, faces = mesh.boundary_surface()
    center = sphere_map.center_sphere
    rounds = []

    def mirror_last_round(points, faces):
        rounds.append(center(points, faces))
        if len(rounds) == sphere_map.SMOOTH_ITERS + 1:
            return rounds[-1] * np.array([-1.0, 1.0, 1.0])  # flips every triangle
        return rounds[-1]

    def no_repair(*args):
        raise AssertionError("the embedding called correct_spherical_flips")

    monkeypatch.setattr(sphere_map, "center_sphere", mirror_last_round)
    monkeypatch.setattr(sphere_map, "correct_spherical_flips", no_repair)
    out = sphere_map.spherical_embedding(mesh.vertices[vid], faces)
    assert len(rounds) == sphere_map.SMOOTH_ITERS + 1
    assert not spherical_flips(rounds[-2], faces).any()
    np.testing.assert_array_equal(out, rounds[-2])


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
    bmap = compute_boundary_sphere_map(mesh)
    _, faces = mesh.boundary_surface()
    assert not spherical_flips(bmap.points, faces).any()
    assert np.abs(np.linalg.norm(bmap.points, axis=1) - 1).max() < 1e-12
    again = compute_boundary_sphere_map(mesh)
    np.testing.assert_array_equal(again.vertex_indices, bmap.vertex_indices)
    np.testing.assert_array_equal(again.points, bmap.points)


# -- the per-triangle kernels against their row-major formulas ----------------
#
# The formulas below are the kernels as written before the component-major
# layout: per-triangle rows (m, 3, 3), np.linalg.norm, the einsum gradient
# and corner weights that sum the incident measures themselves. The kernels
# must equal them bitwise.

NEXT, PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _ref_cross(a, b):
    out = np.empty((len(a), 3))
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


class _RefGeometry:
    def __init__(self, points, faces):
        x = points[faces]
        edges = np.empty_like(x)
        np.subtract(x[:, 2], x[:, 1], out=edges[:, 0])
        np.subtract(x[:, 0], x[:, 2], out=edges[:, 1])
        np.subtract(x[:, 1], x[:, 0], out=edges[:, 2])
        normals = _ref_cross(edges[:, 1], edges[:, 2])
        self.corners, self.edges, self.normals = x, edges, normals
        self.area2 = np.sqrt(normals[:, 0] * normals[:, 0] + normals[:, 1] * normals[:, 1]
                             + normals[:, 2] * normals[:, 2])

    @property
    def flipped(self):
        x0, nrm = self.corners[:, 0], self.normals
        return x0[:, 0] * nrm[:, 0] + x0[:, 1] * nrm[:, 1] + x0[:, 2] * nrm[:, 2] <= 0.0


def _ref_surface_laplacian(geometry, plan):
    e = geometry.edges
    dots = (e[:, NEXT] * e[:, PREV]).sum(axis=2)
    w = -0.5 * dots / np.maximum(geometry.area2, 1e-300)[:, None]
    local = np.empty((len(w), 3, 3))
    local[:, NEXT, PREV] = -w
    local[:, PREV, NEXT] = -w
    local[:, [0, 1, 2], [0, 1, 2]] = w[:, NEXT] + w[:, PREV]
    return linsolve.assemble(plan, local.reshape(-1))


def _ref_surface_gradient(geometry, corner_values):
    s = np.einsum("fk,fkc->fc", corner_values, geometry.edges)
    return _ref_cross(geometry.normals, s) / (geometry.area2 * geometry.area2)[:, None]


def _ref_min_incident_edge(positions, edges):
    lengths = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    out = np.full(len(positions), np.inf)
    np.minimum.at(out, edges[:, 0], lengths)
    np.minimum.at(out, edges[:, 1], lengths)
    return out


def _ref_capped_advect(positions, velocity, dt, edges, on_sphere):
    # the mask form: an index is turned into its mask
    from volball.density import STEP_LIMIT
    mask = np.zeros(len(positions), dtype=bool)
    mask[on_sphere] = True
    on_sphere = mask
    vel = np.array(velocity, dtype=np.float64, copy=True)
    x = positions[on_sphere]
    n = x / np.linalg.norm(x, axis=1, keepdims=True)
    vb = vel[on_sphere]
    vel[on_sphere] = vb - (np.einsum("ij,ij->i", vb, n))[:, None] * n
    move = dt * np.linalg.norm(vel, axis=1)
    cap = STEP_LIMIT * _ref_min_incident_edge(positions, edges)
    vel = vel * np.minimum(1.0, cap / np.maximum(move, 1e-300))[:, None]
    out = positions + dt * vel
    b = out[on_sphere]
    out[on_sphere] = b / np.linalg.norm(b, axis=1, keepdims=True)
    return out


def _ref_corner_weights(conn, measures):
    incident = np.bincount(conn.corners, weights=np.repeat(measures, conn.k),
                           minlength=conn.n_vertices)
    return incident, np.repeat(measures, conn.k) / incident[conn.corners]


def _ref_to_vertices(conn, values, weights):
    if values.ndim == 1:
        return np.bincount(conn.corners, weights=weights * np.repeat(values, conn.k),
                           minlength=conn.n_vertices)
    terms = weights[:, None] * np.repeat(values, conn.k, axis=0)
    return np.bincount(conn.corner_coords, weights=terms.reshape(-1),
                       minlength=3 * conn.n_vertices).reshape(-1, 3)


@pytest.fixture(scope="module")
def kernel_solids(ball_mesh_6k):
    from volball.synthetic import graded_ellipsoid_mesh
    return {"graded1": graded_ellipsoid_mesh(1), "ball2": ball_mesh_6k}


def _sphere_points(kernel_solids, source, seed):
    """Points on the unit sphere and triangles over them: a random hull, or a
    renumbered solid's boundary projected radially."""
    rng = np.random.default_rng(seed)
    if source == "hull":
        from scipy.spatial import ConvexHull
        points = normalize_rows(rng.normal(size=(int(rng.integers(4, 80)), 3)))
        return points, ConvexHull(points).simplices.astype(np.int64), rng
    mesh = _relabel(kernel_solids[source], seed)
    vid, faces = mesh.boundary_surface()
    return normalize_rows(mesh.vertices[vid]), faces, rng


@pytest.mark.parametrize("source", ["hull", "graded1", "ball2"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_triangle_kernels_equal_row_major_formulas(kernel_solids, source, seed):
    from volball import density
    from volball.tetmesh import Connectivity
    points, faces, rng = _sphere_points(kernel_solids, source, seed)
    n, m = len(points), len(faces)
    geo, ref = triangle_geometry(points, faces), _RefGeometry(points, faces)
    for name in ("corners", "edges"):
        assert np.array_equal(getattr(geo, name), np.transpose(getattr(ref, name), (2, 1, 0)))
    assert np.array_equal(geo.normals, ref.normals.T)
    assert np.array_equal(geo.area2, ref.area2)
    assert np.array_equal(geo.flipped, ref.flipped)
    normals, areas = face_normals_areas(points, faces)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(ref.area2[:, None] > 0, ref.normals / ref.area2[:, None], 0.0)
    assert np.array_equal(normals, unit) and np.array_equal(areas, 0.5 * ref.area2)

    plan = linsolve.AssemblyPlan.for_elements(faces, n)
    assert np.array_equal(surface_laplacian(geo, plan).data,
                          _ref_surface_laplacian(ref, plan).data)
    rho = rng.uniform(0.5, 2.0, size=n)
    grad = surface_gradient(geo, rho[faces])
    assert np.array_equal(grad, _ref_surface_gradient(ref, rho[faces]))

    conn = Connectivity(faces, n)
    incident, weights = conn.corner_weights(areas)
    ref_incident, ref_weights = _ref_corner_weights(conn, areas)
    assert np.array_equal(incident, ref_incident) and np.array_equal(weights, ref_weights)
    for values in (rho[faces[:, 0]], grad):
        assert np.array_equal(conn.to_vertices(values, weights),
                              _ref_to_vertices(conn, values, ref_weights))
    on_sphere = rng.random(n) < 0.7
    velocity = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 10.0)
    assert density.min_incident_edge(points, conn.edges).tobytes() == \
        _ref_min_incident_edge(points, conn.edges).tobytes()
    # repeated, reversed and shuffled pairs, a few of them dropped
    pairs = np.vstack([conn.edges, conn.edges[::2, ::-1]])
    pairs = pairs[rng.permutation(len(pairs))][:max(1, len(pairs) - int(rng.integers(0, 8)))]
    assert density.min_incident_edge(points, pairs).tobytes() == \
        _ref_min_incident_edge(points, pairs).tobytes()
    for mask in (on_sphere, np.flatnonzero(on_sphere), np.ones(n, dtype=bool), slice(None)):
        assert density.capped_advect(points, velocity, 0.1, conn.edges, mask).tobytes() == \
            _ref_capped_advect(points, velocity, 0.1, conn.edges, mask).tobytes()


@pytest.mark.parametrize("source", ["hull", "graded1", "ball2"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_center_sphere_equals_row_major_formula(kernel_solids, source, seed):
    # areas from the row-major geometry, corner means and the centroid sum
    # over (m, 3) rows, on spheres moved off the origin and rescaled
    points, faces, rng = _sphere_points(kernel_solids, source, seed)
    points = (points + rng.uniform(0.0, 0.3) * rng.normal(size=points.shape)
              + rng.normal(size=3) * 0.2) * rng.uniform(0.1, 10.0)
    areas = 0.5 * _RefGeometry(points, faces).area2
    centroid = (areas[:, None] * points[faces].mean(axis=1)).sum(axis=0) / areas.sum()
    assert center_sphere(points, faces).tobytes() == normalize_rows(points - centroid).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 500), st.integers(0, 2**32 - 1), st.floats(-8.0, 8.0))
def test_sd_over_mean_is_numpys(size, seed, log_scale):
    from volball.sphere_map import _sd_over_mean
    x = np.random.default_rng(seed).lognormal(log_scale, 1.0, size=size)
    assert _sd_over_mean(x) == np.std(x) / np.mean(x)


@pytest.fixture
def lcube7_flow_input():
    """The lcube7 density ball's first surface flow: its embedding and its
    boundary cone volumes, a flow whose rounds flip triangles."""
    from volball.drivers import _boundary_cone_volumes
    from volball.synthetic import lcube_mesh
    mesh = lcube_mesh(7)
    vid, faces = mesh.boundary_surface()
    return (spherical_embedding(mesh.vertices[vid], faces), faces,
            _boundary_cone_volumes(mesh))


@pytest.mark.parametrize("flow", ["graded_sphere", "lcube7_flow_input"])
def test_surface_flow_equals_row_major_kernels_bitwise(monkeypatch, request, flow):
    from volball import density, sphere_map
    from volball.tetmesh import Connectivity
    sphere, faces, population = request.getfixturevalue(flow)
    repairs = []
    repair = sphere_map.correct_spherical_flips

    def counted_repair(*args):
        repairs.append(1)
        return repair(*args)

    monkeypatch.setattr(sphere_map, "correct_spherical_flips", counted_repair)
    out = surface_density_equalize(sphere, faces, population)
    with monkeypatch.context() as patch:
        patch.setattr(sphere_map, "triangle_geometry", _RefGeometry)
        patch.setattr(sphere_map, "surface_laplacian", _ref_surface_laplacian)
        patch.setattr(sphere_map, "surface_gradient", _ref_surface_gradient)
        patch.setattr(sphere_map, "_sd_over_mean", lambda x: np.std(x) / np.mean(x))
        patch.setattr(density, "capped_advect", _ref_capped_advect)
        patch.setattr(Connectivity, "corner_weights", _ref_corner_weights)
        patch.setattr(Connectivity, "to_vertices", _ref_to_vertices)
        expected = surface_density_equalize(sphere, faces, population)
    assert out.tobytes() == expected.tobytes()
    # the lcube7 flow runs through the flip repair, the graded one does not
    assert bool(repairs) == (flow == "lcube7_flow_input")
