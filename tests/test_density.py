import numpy as np
import pytest
from scipy.sparse import csr_matrix

from volball import density as dem
from volball.drivers import SolverConfig, _dem_step, _Iterate
from volball.sphere_map import normalize_rows, surface_density_equalize
from volball.synthetic import hemispheric_population
from volball.tetmesh import EDGE_LOCAL, signed_volumes, tet_gradients


def _rest(mesh):
    """The (volumes, hat gradients) pair of the mesh's own vertices."""
    return mesh.volumes, mesh.hat_gradients


def _iterate_at(mesh, pos, field):
    """The record the 3ddem loop hands ``_dem_step``: one read of ``pos``
    with its hat gradients, and the density ``field``."""
    state = _Iterate.read(mesh, pos, gradients=True)
    state.field = field
    return state


def test_recouple_identity_and_scaling(ball_mesh):
    pop = np.abs(ball_mesh.volumes)
    field = dem.recouple_density(ball_mesh, ball_mesh.vertices, pop)
    np.testing.assert_allclose(field.rho_tet, 1.0, atol=1e-12)
    np.testing.assert_allclose(field.rho_vertex, 1.0, atol=1e-12)
    scaled = dem.recouple_density(ball_mesh, 2.0 * ball_mesh.vertices, pop)
    np.testing.assert_allclose(scaled.rho_tet, 1.0 / 8.0, rtol=1e-12)


def test_recouple_rejects_bad_input(ball_mesh):
    with pytest.raises(dem.DensityError):
        dem.recouple_density(ball_mesh, ball_mesh.vertices,
                             np.zeros(len(ball_mesh.tets)))
    mirrored = ball_mesh.vertices * np.array([-1.0, 1.0, 1.0])
    with pytest.raises(dem.DensityError):
        dem.recouple_density(ball_mesh, mirrored, np.ones(len(ball_mesh.tets)))


def test_build_operators_single_tet(reference_tet):
    ops = dem.build_operators(reference_tet, _rest(reference_tet))
    np.testing.assert_allclose(ops.lumped_volumes, reference_tet.volumes[0] / 4.0)


def test_build_operators_lumped_sharing(two_tet_mesh):
    ops = dem.build_operators(two_tet_mesh, _rest(two_tet_mesh))
    vols = two_tet_mesh.volumes
    expected = np.zeros(5)
    for t, tet in enumerate(two_tet_mesh.tets):
        expected[tet] += vols[t] / 4.0
    np.testing.assert_allclose(ops.lumped_volumes, expected)


def test_laplacian_rows_zero(ball_mesh):
    ops = dem.build_operators(ball_mesh, _rest(ball_mesh))
    rows = np.asarray(ops.laplacian.matrix.sum(axis=1)).ravel()
    assert np.abs(rows).max() < 1e-10


def test_diffusion_constant_invariant(ball_mesh):
    ops = dem.build_operators(ball_mesh, _rest(ball_mesh))
    rho = np.full(len(ball_mesh.vertices), 3.7)
    out = dem.diffusion_step(ops, rho, 0.1)
    np.testing.assert_allclose(out, rho, atol=1e-9)


def test_diffusion_dt_to_zero_limit(ball_mesh):
    ops = dem.build_operators(ball_mesh, _rest(ball_mesh))
    rng = np.random.default_rng(0)
    rho = 1.0 + rng.uniform(size=len(ball_mesh.vertices))
    out = dem.diffusion_step(ops, rho, 1e-9)
    np.testing.assert_allclose(out, rho, atol=1e-6)


def test_diffusion_conserves_lumped_mass_and_smooths(ball_mesh):
    ops = dem.build_operators(ball_mesh, _rest(ball_mesh))
    rho = np.where(ball_mesh.vertices[:, 0] > 0, 4.0, 1.0)
    out = dem.diffusion_step(ops, rho, 0.1)
    m0 = float(ops.lumped_volumes @ rho)
    m1 = float(ops.lumped_volumes @ out)
    assert abs(m1 - m0) <= 1e-8 * abs(m0)
    assert out.max() < rho.max() and out.min() > rho.min()


def test_density_gradient_linear_fields(ball_mesh):
    rho = ball_mesh.vertices[:, 0]
    grad = dem.density_gradient(ball_mesh.tets, ball_mesh.hat_gradients, rho)
    np.testing.assert_allclose(grad, np.tile([1.0, 0, 0], (len(grad), 1)),
                               atol=1e-12)
    rho = np.full(len(ball_mesh.vertices), 2.0)
    np.testing.assert_array_equal(dem.density_gradient(ball_mesh.tets,
                                                       ball_mesh.hat_gradients, rho), 0.0)
    g = np.array([2.0, 3.0, -1.0])
    rho = ball_mesh.vertices @ g
    grad = dem.density_gradient(ball_mesh.tets, ball_mesh.hat_gradients, rho)
    np.testing.assert_allclose(grad, np.tile(g, (len(grad), 1)), atol=1e-10)


def test_velocity_field_rules():
    rho = np.array([1.0, 2.0])
    grad = np.array([[1.0, 0, 0], [0, -4.0, 0]])
    v = dem.velocity_field(rho, grad)
    np.testing.assert_allclose(v, [[-1, 0, 0], [0, 2, 0]])
    # scale invariance: doubling rho and grad leaves v unchanged
    np.testing.assert_allclose(dem.velocity_field(2 * rho, 2 * grad), v)
    with pytest.raises(dem.DensityError):
        dem.velocity_field(np.array([0.0]), np.zeros((1, 3)))


def _sphere_ball(mesh):
    """The mesh's vertices with the boundary projected onto the unit sphere."""
    pos = mesh.vertices.copy()
    mask = mesh.boundary_vertex_mask
    pos[mask] = normalize_rows(pos[mask])
    return pos


def test_project_boundary_velocity(ball_mesh):
    mask = ball_mesh.boundary_vertex_mask
    pos = _sphere_ball(ball_mesh)
    edges = ball_mesh.connectivity.edges
    dt = 0.1
    rng = np.random.default_rng(2)
    vel = 1e-3 * rng.normal(size=pos.shape)
    # below the cap, so no move is scaled
    assert dt * np.linalg.norm(vel, axis=1).max() < \
        dem.STEP_LIMIT * dem.min_incident_edge(pos, edges).min()
    out = dem.capped_advect(pos, vel, dt, edges, mask)
    x = pos[mask]
    # the velocity that moved each sphere vertex before the renormalization:
    # its tangential part within 1e-12, the radial part removed
    moved = (out[mask] / np.einsum("ij,ij->i", out[mask], x)[:, None] - x) / dt
    tangential = vel[mask] - np.einsum("ij,ij->i", vel[mask], x)[:, None] * x
    np.testing.assert_allclose(moved, tangential, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out[~mask], pos[~mask] + dt * vel[~mask])
    # a purely radial velocity leaves the sphere vertices where they are
    radial = dem.capped_advect(pos, 1e-3 * pos, dt, edges, mask)
    assert np.abs(radial[mask] - pos[mask]).max() < 1e-12


def test_capped_advect_bytes_do_not_depend_on_layout(ball_mesh):
    # inputs passed as transposed views of (3, n) arrays, as a caller holding
    # coordinate rows would pass them, give the bytes of the C-ordered call
    mask = ball_mesh.boundary_vertex_mask
    pos = _sphere_ball(ball_mesh)
    edges = ball_mesh.connectivity.edges
    rng = np.random.default_rng(7)
    for trial in range(10):
        vel = rng.uniform(1e-3, 10.0) * rng.normal(size=pos.shape)
        pos_t, vel_t = np.ascontiguousarray(pos.T).T, np.ascontiguousarray(vel.T).T
        assert not vel_t.flags.c_contiguous
        for on_sphere in (mask, np.flatnonzero(mask)):
            expected = dem.capped_advect(pos, vel, 0.1, edges, on_sphere).tobytes()
            for p, v in ((pos, vel_t), (pos_t, vel), (pos_t, vel_t)):
                assert dem.capped_advect(p, v, 0.1, edges, on_sphere).tobytes() == expected


def test_project_example_point():
    pos = np.array([[1.0, 0.0, 0.0]])
    vel = np.array([[1.0, 1.0, 0.0]])
    # one point has no edge, so nothing caps its move
    out = dem.capped_advect(pos, vel, 0.1, np.empty((0, 2), dtype=np.int64),
                            np.array([True]))
    np.testing.assert_allclose(out, [[1.0, 0.1, 0.0]] / np.sqrt(1.01), atol=1e-15)


def test_advect_and_renormalize(ball_mesh):
    mask = ball_mesh.boundary_vertex_mask
    pos = _sphere_ball(ball_mesh)
    edges = ball_mesh.connectivity.edges
    out = dem.capped_advect(pos, np.zeros_like(pos), 0.1, edges, mask)
    np.testing.assert_allclose(out, pos, atol=1e-15)
    vel = np.tile([0.05, 0.0, 0.0], (len(pos), 1))
    assert 0.1 * 0.05 < dem.STEP_LIMIT * dem.min_incident_edge(pos, edges).min()
    out = dem.capped_advect(pos, vel, 0.1, edges, mask)
    assert np.abs(np.linalg.norm(out[mask], axis=1) - 1.0).max() < 1e-15
    np.testing.assert_allclose(out[~mask], pos[~mask] + 0.1 * vel[~mask])


def test_advect_centroid_shift(ball_mesh):
    mask = np.zeros(len(ball_mesh.vertices), dtype=bool)  # treat all as interior
    edges = ball_mesh.connectivity.edges
    rng = np.random.default_rng(1)
    vel = 0.01 * rng.normal(size=ball_mesh.vertices.shape)
    assert 0.1 * np.linalg.norm(vel, axis=1).max() < \
        dem.STEP_LIMIT * dem.min_incident_edge(ball_mesh.vertices, edges).min()
    out = dem.capped_advect(ball_mesh.vertices, vel, 0.1, edges, mask)
    np.testing.assert_allclose(out.mean(axis=0) - ball_mesh.vertices.mean(axis=0),
                               0.1 * vel.mean(axis=0), atol=1e-14)


@pytest.mark.parametrize("kind", ["triangles", "tets"])
def test_full_equalization_fixed_point(ball_mesh, kind):
    # a uniform density does not move the vertices, on the sphere or in the ball
    pos = _sphere_ball(ball_mesh)
    if kind == "tets":
        field = dem.recouple_density(ball_mesh, pos,
                                     np.abs(signed_volumes(pos, ball_mesh.tets)))
        out = _dem_step(ball_mesh, _iterate_at(ball_mesh, pos, field),
                        SolverConfig())
    else:
        vid, faces = ball_mesh.boundary_surface()
        pos = pos[vid]
        tri = pos[faces]
        areas = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0],
                                              tri[:, 2] - tri[:, 0]), axis=1)
        # eps 0 makes the round with sd/mean 0 take one step
        out = surface_density_equalize(pos, faces, areas, eps=0.0, max_iter=1)
    assert np.linalg.norm(out - pos, axis=1).max() < 1e-9


def _tet_to_vertex_matrix(tets, volumes, n_vertices):
    """Reference: the volume-weighted row-stochastic averaging matrix, built
    from COO triplets."""
    rows = tets.reshape(-1)
    cols = np.repeat(np.arange(len(tets)), 4)
    vals = np.repeat(volumes, 4)
    incident = np.bincount(rows, weights=vals, minlength=n_vertices)
    return csr_matrix((vals / incident[rows], (rows, cols)),
                      shape=(n_vertices, len(tets)))


def _volume_step_as_first_written(mesh, pos, rho_vertex, dt):
    """Reference: the volume flow step before the flows shared one, which
    averaged the tet gradients onto the vertices with a csr matvec."""
    geometry = tet_gradients(pos, mesh.tets)
    ops = dem.build_operators(mesh, geometry)
    rho_next = dem.diffusion_step(ops, rho_vertex, dt)
    grad_tet = dem.density_gradient(mesh.tets, geometry[1], rho_next)
    conv = _tet_to_vertex_matrix(mesh.tets, signed_volumes(pos, mesh.tets), len(pos))
    vel = dem.velocity_field(rho_next, conv @ grad_tet)
    edges = np.unique(np.sort(mesh.tets[:, EDGE_LOCAL].reshape(-1, 2), axis=1), axis=0)
    return dem.capped_advect(pos, vel, dt, edges, mesh.boundary_vertex_mask)


def test_volume_step_matches_first_formulation(ball_mesh):
    pos = ball_mesh.vertices
    field = dem.recouple_density(ball_mesh, pos, hemispheric_population(ball_mesh, 4.0))
    conv = _tet_to_vertex_matrix(ball_mesh.tets, signed_volumes(pos, ball_mesh.tets),
                                 len(pos))
    assert np.array_equal(field.rho_vertex, conv @ field.rho_tet)
    expected = _volume_step_as_first_written(ball_mesh, pos, field.rho_vertex, 0.1)
    out = _dem_step(ball_mesh, _iterate_at(ball_mesh, pos, field),
                    SolverConfig())
    assert np.linalg.norm(out - pos, axis=1).max() > 1e-3  # the step moves
    assert np.array_equal(out, expected)


def test_density_gradient_matches_lapack_solve(ball_mesh):
    rng = np.random.default_rng(3)
    pos = ball_mesh.vertices + 0.01 * rng.normal(size=ball_mesh.vertices.shape)
    rho = rng.uniform(0.5, 2.0, size=len(pos))
    tets = ball_mesh.tets
    e = pos[tets[:, 1:]] - pos[tets[:, :1]]
    d = rho[tets[:, 1:]] - rho[tets[:, :1]]
    lapack = np.linalg.solve(e, d[:, :, None])[..., 0]  # LAPACK oracle
    grad = dem.density_gradient(tets, tet_gradients(pos, tets)[1], rho)
    err = np.linalg.norm(grad - lapack, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(lapack, axis=1))


@pytest.mark.parametrize("bad, index", [(np.nan, 4), (np.inf, 2), (-1.0, 0)])
def test_recouple_names_first_bad_tet(ball_mesh, bad, index):
    pop = np.abs(ball_mesh.volumes).copy()
    pop[[index, index + 11]] = bad
    with pytest.raises(dem.DensityError, match=f"tet {index} has population {bad}"):
        dem.recouple_density(ball_mesh, ball_mesh.vertices, pop)


@pytest.mark.parametrize("size", [1, -1])
def test_recouple_rejects_population_of_wrong_length(ball_mesh, size):
    # a length-1 population would otherwise broadcast as a uniform one
    m = len(ball_mesh.tets)
    with pytest.raises(dem.DensityError, match=f"expected \\({m},\\)"):
        dem.recouple_density(ball_mesh, ball_mesh.vertices,
                             np.ones(size if size > 0 else m - 1))


def test_volume_flow_nan_population_raises_density_error(ball_mesh):
    # a NaN population used to run the diffusion PCG to its iteration budget
    from volball.drivers import run_3ddem
    pop = np.ones(len(ball_mesh.tets))
    pop[5] = np.nan
    with pytest.raises(dem.DensityError, match="tet 5 has population nan"):
        run_3ddem(ball_mesh, pop, SolverConfig(n_max=2))


def test_volume_step_rejects_nonpositive_volumes(ball_mesh):
    pop = np.abs(ball_mesh.volumes)
    field = dem.recouple_density(ball_mesh, ball_mesh.vertices, pop)
    collapsed = ball_mesh.vertices.copy()
    a, _, _, d = ball_mesh.tets[7]
    collapsed[d] = collapsed[a]  # zero volume on the tets of edge (a, d)
    mirrored = ball_mesh.vertices * np.array([-1.0, 1.0, 1.0])
    for pos in (collapsed, mirrored):
        with pytest.raises(dem.DensityError, match="nonpositive volumes"):
            _dem_step(ball_mesh, _iterate_at(ball_mesh, pos, field),
                      SolverConfig())
