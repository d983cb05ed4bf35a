import numpy as np
import pytest

from volball import density as dem
from volball.distortion import dilations, frame_decompose, jacobian_per_tet
from volball.drivers import (SolverConfig, compute_energies, correct_overlaps,
                             initial_ball, normalized_density_variance,
                             run_3ddem, run_3ddeq, run_3dqc, run_method)
from volball.sphere_map import normalize_rows
from volball.synthetic import (hemispheric_population, smooth_population,
                               stretched_ball_mesh)
from volball.tetmesh import TetMesh, corner_edges, signed_volumes, tet_gradients


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(k_threshold=1.0)
    with pytest.raises(ValueError):
        SolverConfig(boundary_mode="nope")
    # NaN fails every comparison, so each setting is tested for finiteness
    for name, value in [("dt", np.nan), ("dt", np.inf), ("eps", np.nan),
                        ("k_threshold", np.nan), ("alpha", np.nan),
                        ("residual_constant", np.inf), ("alpha", np.inf)]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})
    # a non-integral n_max used to reach the surface flow's range() as a TypeError
    for value in (2.5, 3.0, np.nan, True, "3"):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            SolverConfig(n_max=value)
    assert SolverConfig(n_max=np.int64(3)).n_max == 3
    cfg = SolverConfig()
    assert cfg.resolved_boundary_mode("3dqc") == "conformal"
    assert cfg.resolved_boundary_mode("3ddem") == "dem"
    assert cfg.resolved_boundary_mode("3ddeq") == "dem"
    assert SolverConfig(boundary_mode="dem").resolved_boundary_mode("3dqc") == "dem"
    for config in (cfg, SolverConfig(boundary_mode="dem")):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            config.resolved_boundary_mode("bogus")


def test_initial_ball_rejects_an_unknown_method(ball_mesh):
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        initial_ball(ball_mesh, SolverConfig(), "bogus")


def test_initial_ball_on_ball_is_near_identity(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    assert ball_mesh.count_folds(pos) == 0
    assert np.abs(np.linalg.norm(pos[ball_mesh.boundary_vertex_mask], axis=1)
                  - 1).max() < 1e-12
    assert np.linalg.norm(pos - ball_mesh.vertices, axis=1).max() < 0.1


def test_boundary_cone_volumes_fall_back_to_face_areas_off_star_shape():
    # a U-shaped solid: the floor of a 3x3x3 grid of cells and its two end
    # walls. Its centroid lies in the notch, so some cones about it are
    # inverted, and each boundary face weighs its area, a right triangle with
    # legs 2/3
    from volball import drivers
    from volball.synthetic import _CUBE_TETS, _grid_cells
    _, vertices, (ci, cj, ck), corner = _grid_cells(3)
    tets = corner[(ck == 0) | (ci != 1)][:, _CUBE_TETS].reshape(-1, 4)
    used, tets = np.unique(tets, return_inverse=True)
    mesh = TetMesh.from_arrays(vertices[used], tets.reshape(-1, 4))
    assert len(mesh.tets) == 126
    cones = np.insert(mesh.boundary_faces, 0, len(mesh.vertices), axis=1)
    signed = signed_volumes(np.vstack([mesh.vertices, mesh.vertices.mean(axis=0)]), cones)
    assert signed.min() <= 0.0
    np.testing.assert_allclose(drivers._boundary_cone_volumes(mesh), 2.0 / 9.0, rtol=1e-12)


def _three_round_initial_ball(mesh, config):
    """Reference: the density initial ball as a loop of up to three surface
    flows from one embedding, each round re-weighting the cone volumes by the
    last fill's tet density and keeping the best fold-free fill."""
    from volball import drivers
    from volball.laplace import harmonic_fill
    from volball.sphere_map import (BoundaryMap, spherical_embedding,
                                    surface_density_equalize)
    cone = drivers._boundary_cone_volumes(mesh)
    face_population, best, best_var, flows = cone.copy(), None, np.inf, 0
    vertex_ids, faces = mesh.boundary_surface()
    embedded = spherical_embedding(mesh.vertices[vertex_ids], faces)
    for _ in range(3):
        flows += 1
        sphere = surface_density_equalize(embedded, faces, face_population,
                                          dt=config.dt, eps=config.eps,
                                          max_iter=config.n_max)
        bmap = BoundaryMap.checked(vertex_ids, faces, sphere)
        pos = harmonic_fill(mesh, bmap.points, bmap.vertex_indices)
        if mesh.count_folds(pos):
            break
        field = dem.recouple_density(mesh, pos, np.abs(mesh.volumes))
        var = normalized_density_variance(field.rho_vertex)
        if var >= best_var:
            break
        best, best_var = pos, var
        face_population = cone * field.rho_tet[mesh.boundary_owners]
    return (pos if best is None else best), flows


@pytest.mark.parametrize("solid, size", [("graded_ellipsoid_mesh", 1),
                                         ("cube_mesh", 3), ("lcube_mesh", 3)])
def test_initial_ball_embeds_once_and_matches_three_round_loop(solid, size, monkeypatch):
    # on these solids the three-round loop runs its third flow, which loses
    from volball import drivers, synthetic
    mesh = getattr(synthetic, solid)(size)
    config = SolverConfig()
    expected, reference_flows = _three_round_initial_ball(mesh, config)
    assert reference_flows == 3
    embeddings, flows = [], []
    embed, flow = drivers.spherical_embedding, drivers.surface_density_equalize
    monkeypatch.setattr(drivers, "spherical_embedding",
                        lambda *a: embeddings.append(1) or embed(*a))
    monkeypatch.setattr(drivers, "surface_density_equalize",
                        lambda *a, **k: flows.append(1) or flow(*a, **k))
    np.testing.assert_array_equal(initial_ball(mesh, config, "3ddeq"), expected)
    assert (len(embeddings), len(flows)) == (1, 2)


def test_correct_overlaps_noop_on_clean_input(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    out = correct_overlaps(ball_mesh, pos, 10.0)
    np.testing.assert_array_equal(out, pos)


def _single_fold(mesh, pos):
    """``pos`` with one interior vertex reflected just past the opposite face
    plane of an incident tet, so that exactly one tet folds."""
    for v in np.flatnonzero(~mesh.boundary_vertex_mask):
        for t in np.flatnonzero(np.any(mesh.tets == v, axis=1)):
            face = [i for i in mesh.tets[t] if i != v]
            p0, p1, p2 = pos[face]
            n = np.cross(p1 - p0, p2 - p0)
            n /= np.linalg.norm(n)
            d = float((pos[v] - p0) @ n)
            cand = pos.copy()
            cand[v] -= 2.02 * d * n
            if mesh.count_folds(cand) == 1:
                return cand
    raise AssertionError("no single-fold construction found")


def test_correct_overlaps_single_interior_fold(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    broken = _single_fold(ball_mesh, pos)
    fixed = correct_overlaps(ball_mesh, broken, 10.0)
    assert ball_mesh.count_folds(fixed) == 0
    assert np.abs(np.linalg.norm(fixed[ball_mesh.boundary_vertex_mask], axis=1)
                  - 1).max() < 1e-12


def _pinned_fold(mesh, vertex, radius):
    """The rest map with boundary vertex ``vertex`` (an index into
    ``mesh.boundary_vertices``) pulled in to ``radius`` and its interior
    neighbours 70% of the way to it: folds that pin the boundary vertex, so
    that the correction frees a boundary patch."""
    pos = mesh.vertices.copy()
    v = mesh.boundary_vertices[vertex]
    ring = np.unique(mesh.tets[np.any(mesh.tets == v, axis=1)])
    inner = ring[~mesh.boundary_vertex_mask[ring]]
    pos[v] *= radius
    pos[inner] = 0.3 * pos[inner] + 0.7 * pos[v]
    return pos


def test_correct_overlaps_builds_the_boundary_rings_once(monkeypatch, ball_mesh):
    # folds around a boundary vertex pulled inward, which the interior
    # rebuild cannot unfold, so each call frees a boundary patch grown over
    # the rings
    from volball import drivers, tetmesh
    builds, patches = [], []
    rings, patch_rebuild = tetmesh.vertex_rings, drivers._patch_rebuild
    monkeypatch.setattr(tetmesh, "vertex_rings",
                        lambda *args: builds.append(1) or rings(*args))

    def recorded(mesh, state, k_threshold):
        patched = patch_rebuild(mesh, state, k_threshold)
        patches.append(patched is not None)
        return patched

    monkeypatch.setattr(drivers, "_patch_rebuild", recorded)
    mesh = TetMesh.from_arrays(ball_mesh.vertices, ball_mesh.tets)
    pushed = _pinned_fold(mesh, 24, 0.7)
    assert mesh.count_folds(pushed) > 0
    for calls in (1, 2):
        assert mesh.count_folds(correct_overlaps(mesh, pushed, 10.0)) == 0
        assert sum(patches) == calls
    assert len(builds) == 1
    assert not mesh.boundary_rings.data.flags.writeable


def test_patch_rebuild_matches_the_full_mesh_solve(monkeypatch, ball_mesh_6k):
    # the patch rebuild screens, reads and assembles only the tets with a
    # free corner, on a plan of their vertices; the full mesh's system with
    # every other vertex fixed has the same free rows, so the two solves
    # agree up to the rounding of their factorizations
    from volball import drivers, linsolve
    mesh = ball_mesh_6k
    pos = _pinned_fold(mesh, 12, 0.7)
    state = drivers._Iterate.read(mesh, pos, True)
    b_ids = mesh.boundary_vertices
    patch = np.isin(b_ids, mesh.tets[state.volumes <= 0])
    for _ in range(2):
        patch |= (mesh.boundary_rings @ patch) > 0
    free = b_ids[patch]
    fixed = np.setdiff1d(np.arange(len(pos)), free)
    reference = drivers._rebuild(mesh, pos, 10.0, fixed, geometry=state.geometry)
    reference[free] = normalize_rows(reference[free])
    assembled, assemble = [], linsolve.assemble

    def recorded(plan, values):
        assembled.append(len(values) // 10)
        return assemble(plan, values)

    monkeypatch.setattr(linsolve, "assemble", recorded)
    record = drivers._patch_rebuild(mesh, state, 10.0)
    patched = record.positions
    # the record re-reads only the patch's tets, bitwise a full read
    for part, whole in zip(record.geometry, drivers._read(mesh, patched, True)):
        assert np.array_equal(part, whole)
    with_free_corner = np.isin(mesh.tets, free).any(axis=1)
    assert assembled == [int(with_free_corner.sum())]
    assert 0 < assembled[0] < len(mesh.tets) / 10
    assert np.array_equal(patched[fixed], pos[fixed])
    moved = reference[free] - pos[free]
    assert np.linalg.norm(moved) > 1e-3
    assert np.linalg.norm(patched[free] - reference[free]) <= 1e-12 * np.linalg.norm(moved)


def test_compute_energies_identity(ball_mesh):
    lambdas = dilations(jacobian_per_tet(ball_mesh, ball_mesh.vertices))
    field = dem.recouple_density(ball_mesh, ball_mesh.vertices,
                                 np.abs(ball_mesh.volumes))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, e_dem, e_deq = compute_energies(ball_rest.tets, ball_rest.volumes,
                                          ball_mesh.hat_gradients, field, lambdas, 0.01)
    assert e_qc == pytest.approx(0.0, abs=1e-18)
    assert e_dem == pytest.approx(0.0, abs=1e-15)
    assert e_deq == pytest.approx(0.0, abs=1e-15)


def test_compute_energies_scaling_invariance_of_qc(ball_mesh):
    lambdas = dilations(jacobian_per_tet(ball_mesh, 3.0 * ball_mesh.vertices))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, _, _ = compute_energies(ball_rest.tets, ball_rest.volumes, None, None,
                                  lambdas, 0.01)
    assert e_qc == pytest.approx(0.0, abs=1e-16)


def test_compute_energies_brute_force_oracle(ball_mesh):
    rng = np.random.default_rng(0)
    positions = ball_mesh.vertices + 0.02 * rng.normal(size=ball_mesh.vertices.shape)
    if ball_mesh.count_folds(positions):
        positions = ball_mesh.vertices + 0.002 * rng.normal(size=positions.shape)
    pop = np.abs(ball_mesh.volumes)
    field = dem.recouple_density(ball_mesh, positions, pop)
    lambdas = dilations(jacobian_per_tet(ball_mesh, positions))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, e_dem, e_deq = compute_energies(ball_rest.tets, ball_rest.volumes,
                                          tet_gradients(positions, ball_mesh.tets)[1],
                                          field, lambdas, 0.01)

    # independent re-summation over raw arrays
    w = np.abs(signed_volumes(ball_mesh.vertices, ball_mesh.tets))
    acc_qc = 0.0
    for t in range(len(ball_mesh.tets)):
        lam = np.sort(np.abs(lambdas[t]))[::-1]
        acc_qc += w[t] * np.log(lam[0] / lam[2]) ** 2
    acc_dem = 0.0
    grads = dem.density_gradient(ball_mesh.tets, tet_gradients(positions, ball_mesh.tets)[1],
                                 field.rho_vertex)
    for t in range(len(ball_mesh.tets)):
        acc_dem += w[t] * float(grads[t] @ grads[t])
    assert e_qc == pytest.approx(acc_qc, rel=1e-12)
    assert e_dem == pytest.approx(acc_dem, rel=1e-12)
    assert e_deq == pytest.approx(acc_dem + 0.01 * acc_qc, rel=1e-12)


def test_run_3dqc_near_fixed_point(ball_mesh):
    # identity init: near-isometric tets, the energy cannot decrease
    ident = ball_mesh.vertices.copy()
    mask = ball_mesh.boundary_vertex_mask
    ident[mask] /= np.linalg.norm(ident[mask], axis=1, keepdims=True)
    res = run_3dqc(ball_mesh, init_positions=ident)
    assert res.converged
    assert len(res.report.iterations) - 1 <= 2
    assert res.report.final["folds"] == 0
    k0 = res.report.iterations[0]["mean_K"]
    assert res.report.final["mean_K"] <= k0 * 1.01


def test_run_3dqc_stretched_ball_decreases_energy():
    mesh = stretched_ball_mesh(1)
    res = run_3dqc(mesh)
    E = [it["E_3DQC"] for it in res.report.iterations]
    assert all(b <= a for a, b in zip(E, E[1:]))
    assert res.report.final["mean_K"] < res.report.iterations[0]["mean_K"]
    assert res.report.final["folds"] == 0


def _decomposed_rows(monkeypatch):
    """Record the rows of every frame_decompose call made by the drivers."""
    from volball import distortion, drivers
    rows = []

    def recorded(J):
        rows.append(len(J))
        return frame_decompose(J)

    for module in (distortion, drivers):
        monkeypatch.setattr(module, "frame_decompose", recorded)
    return rows


def _rebuild_rows(monkeypatch):
    """Record (screened, edited) per rebuild coefficient call of the
    drivers, and check that the edited rows are those a full SVD of the
    same Jacobians edits: the inverted tets and, with a near-fold ratio,
    those whose flipped, floored ratio exceeds it."""
    from volball import distortion, drivers
    records, coefficients = [], drivers.rebuild_coefficients

    def recorded(J, k_threshold, near_fold_ratio=None, tets=None):
        rows, coeff = coefficients(J, k_threshold, near_fold_ratio, tets)
        s = np.linalg.svd(J, compute_uv=False)
        lambdas = s.copy()
        lambdas[:, 2] = np.linalg.det(J) / (s[:, 0] * s[:, 1])
        lam = distortion._flip_and_floor(lambdas)
        edited = lambdas[:, 2] <= 0
        if near_fold_ratio is not None:
            edited |= lam[:, 0] / lam[:, 2] > near_fold_ratio
        assert np.array_equal(rows, np.flatnonzero(edited))
        records.append((len(distortion.fold_candidates(J, near_fold_ratio)), len(rows)))
        return rows, coeff

    monkeypatch.setattr(drivers, "rebuild_coefficients", recorded)
    return records


def _sweeps(monkeypatch):
    """Record (rows, vectors) of every Jacobi sweep run."""
    from volball import distortion
    sweeps, sweep = [], distortion._sym3_eigh

    def recorded(diag, off, vectors, tets=None):
        sweeps.append((len(diag[0]), vectors))
        return sweep(diag, off, vectors, tets)

    monkeypatch.setattr(distortion, "_sym3_eigh", recorded)
    return sweeps


def test_settle_decomposes_each_iterate_once(monkeypatch, ball_mesh):
    from volball import distortion, drivers
    cand = _single_fold(ball_mesh, ball_mesh.vertices)
    seen = []

    def recorded(positions, tets):
        seen.append(np.asarray(positions).tobytes())
        return corner_edges(positions, tets)

    def refuse(*args):
        raise AssertionError("a settle read takes its Jacobians from its gather")

    monkeypatch.setattr(drivers, "corner_edges", recorded)
    monkeypatch.setattr(drivers, "jacobian_per_tet", refuse)
    rows, edits = _decomposed_rows(monkeypatch), _rebuild_rows(monkeypatch)
    sweeps = _sweeps(monkeypatch)
    # the folded candidate is gathered once, and its read serves the first
    # rebuild; each rebuilt map is gathered once, and the last of those
    # reads, of the map the correction returns, is the settled record's
    settled, pre = drivers._settle(ball_mesh, cand, SolverConfig(),
                                   normalize_rows(cand[ball_mesh.boundary_vertices]),
                                   near_fold_ratio=drivers.NEAR_FOLD_RATIO, tracked=True)
    assert (pre, settled.folds) == (1, 0)
    assert len(seen) >= 2
    assert len(seen) == len(set(seen))
    assert seen[0] == cand.tobytes()
    assert seen[-1] == settled.positions.tobytes()
    assert np.array_equal(settled.lambdas,
                          dilations(jacobian_per_tet(ball_mesh, settled.positions)))
    # the record holds the Jacobians of its positions, their Gram entries
    # and gradients, and no frames
    jacobians = jacobian_per_tet(ball_mesh, settled.positions)
    assert np.array_equal(settled.jacobians, jacobians)
    assert np.array_equal(settled.gradients,
                          tet_gradients(settled.positions, ball_mesh.tets)[1])
    diag, off = distortion._gram(jacobians)
    assert all(np.array_equal(x, y) for x, y in zip(settled.gram[0], diag))
    assert all(np.array_equal(settled.gram[1][key], off[key]) for key in off)
    assert not hasattr(settled, "frames")
    # each rebuild edits some of the tets that pass its screen, from their
    # closed-form triples: no tet is framed and no Jacobi sweep has vectors
    assert rows == []
    assert all(not vectors for _, vectors in sweeps)
    assert edits and all(0 < edited <= screened < len(ball_mesh.tets)
                         for screened, edited in edits)


def test_settle_passes_strained_fold_free_candidate(monkeypatch, ball_mesh):
    # ratios above near_fold_ratio alone trigger no correction and no rebuild
    from volball import drivers
    rng = np.random.default_rng(4)
    cand = ball_mesh.vertices.copy()
    interior = ~ball_mesh.boundary_vertex_mask
    cand[interior] += 0.002 * rng.normal(size=(int(interior.sum()), 3))
    assert ball_mesh.count_folds(cand) == 0
    lambdas = dilations(jacobian_per_tet(ball_mesh, cand))
    near_fold_ratio = float(np.median(np.abs(lambdas[:, 0] / lambdas[:, 2])))

    def refuse(*args, **kwargs):
        raise AssertionError("a fold-free candidate was corrected")

    for name in ("correct_overlaps", "reconstruct_map"):
        monkeypatch.setattr(drivers, name, refuse)
    settled, pre = drivers._settle(ball_mesh, cand, SolverConfig(),
                                   normalize_rows(cand[ball_mesh.boundary_vertices]),
                                   near_fold_ratio=near_fold_ratio, tracked=True)
    assert (pre, settled.folds) == (0, 0)
    assert settled.positions is cand
    assert np.array_equal(settled.lambdas, lambdas)


def test_settle_counts_folds_once_without_correction(monkeypatch, ball_mesh):
    # the fold counts come from the records' volumes: one corner gather per
    # map, and no signed_volumes, jacobian_per_tet or TetMesh.count_folds call
    from volball import drivers
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    for name in ("corner_edges", "signed_volumes", "jacobian_per_tet"):
        monkeypatch.setattr(drivers, name, counted(getattr(drivers, name)))
    monkeypatch.setattr(TetMesh, "count_folds", counted(TetMesh.count_folds))
    ref = normalize_rows(ball_mesh.vertices[ball_mesh.boundary_vertices])
    # fold-free: folds_post is folds_pre, read once
    settled, pre = drivers._settle(ball_mesh, ball_mesh.vertices.copy(),
                                   SolverConfig(), ref)
    assert (pre, settled.folds, calls) == (0, 0, ["corner_edges"])
    assert settled.gradients is None
    # a mirrored candidate folds everywhere: without correction nothing is
    # read again; a correction that ran gets the candidate's record and
    # leaves its result and that result's one read, with gradients, in it
    m = len(ball_mesh.tets)
    mirrored = ball_mesh.vertices * np.array([-1.0, 1.0, 1.0])
    calls.clear()
    settled, pre = drivers._settle(ball_mesh, mirrored, SolverConfig(correction=False), ref)
    assert (pre, settled.folds, calls) == (m, m, ["corner_edges"])
    geometries = []

    def corrected(mesh, cand, *args, geometry=None, **kwargs):
        geometries.append(geometry.geometry)
        fixed = drivers._Iterate.read(mesh, mesh.vertices.copy(), True)
        geometry.positions = fixed.positions
        geometry.volumes, geometry.gradients, geometry.jacobians = fixed.geometry
        return fixed.positions

    monkeypatch.setattr(drivers, "correct_overlaps", corrected)
    calls.clear()
    settled, pre = drivers._settle(ball_mesh, mirrored, SolverConfig(), ref,
                                   tracked=True)
    assert (pre, settled.folds, calls) == (m, 0, ["corner_edges"] * 2)
    assert np.array_equal(settled.gradients, ball_mesh.hat_gradients)
    volumes, gradients = tet_gradients(mirrored, ball_mesh.tets)
    [(read_volumes, read_gradients, read_jacobians)] = geometries
    assert np.array_equal(read_volumes, volumes)
    assert np.array_equal(read_gradients, gradients, equal_nan=True)
    assert np.array_equal(read_jacobians, jacobian_per_tet(ball_mesh, mirrored))


def test_solvers_run_without_batched_lapack(monkeypatch, ball_mesh):
    # the per-tet kernels are closed-form; batched LAPACK on 3 x 3 matrices
    # must stay off the solver path
    def refuse(*args, **kwargs):
        raise AssertionError("batched LAPACK call on the solver path")

    for name in ("eigh", "eigvalsh", "svd", "det", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    pop = hemispheric_population(ball_mesh, 4.0)
    dem_res = run_3ddem(ball_mesh, pop, SolverConfig(n_max=3))
    qc_res = run_3dqc(stretched_ball_mesh(1), SolverConfig(n_max=3))
    assert dem_res.report.final["folds"] == qc_res.report.final["folds"] == 0


def test_run_3dqc_builds_one_tet_plan(monkeypatch):
    from volball import linsolve
    mesh = stretched_ball_mesh(1)
    sizes = []
    init = linsolve.AssemblyPlan.__init__

    def counted(self, dimension, rows, cols):
        sizes.append(len(rows))
        init(self, dimension, rows, cols)

    monkeypatch.setattr(linsolve.AssemblyPlan, "__init__", counted)
    run_3dqc(mesh, SolverConfig(n_max=3))
    # the 10-pair tet layout serves every harmonic fill and reconstruction
    assert sizes.count(10 * len(mesh.tets)) == 1


def test_run_3dqc_history_cuts_pcg_work_and_keeps_the_run(monkeypatch):
    # the 2 719-row interior of stretched3 is too wide for the banded rule, so
    # every reconstruction iterates and starts from the run's earlier maps
    from volball import drivers, linsolve
    mesh = stretched_ball_mesh(3)
    interior = mesh.connectivity.plan.split(mesh.boundary_vertices).band
    assert interior.work > 3 * linsolve.BAND_WORK_LIMIT
    ball = initial_ball(mesh)
    iterations, sizes = [], []
    pcg, reconstruct = linsolve._pcg, drivers.reconstruct_map

    def counted(*args):
        out = pcg(*args)
        iterations.append(out[1])
        return out

    def recorded(*args, history=(), **kwargs):
        sizes.append(len(history))
        return reconstruct(*args, history=history, **kwargs)

    monkeypatch.setattr(linsolve, "_pcg", counted)
    monkeypatch.setattr(drivers, "reconstruct_map", recorded)

    def run():
        iterations.clear()
        sizes.clear()
        res = run_3dqc(mesh, SolverConfig(n_max=8), init_positions=ball)
        return res, sum(iterations), list(sizes)

    bound = drivers.HISTORY
    res, work, held = run()
    again, _, _ = run()
    monkeypatch.setattr(drivers, "HISTORY", 0)
    plain, plain_work, plain_held = run()
    assert work < plain_work
    rows, plain_rows = res.report.iterations, plain.report.iterations
    assert len(rows) == len(plain_rows) == 9 and res.converged is plain.converged is False
    for key in ("E_3DQC", "mean_K"):
        assert rows[-1][key] == pytest.approx(plain_rows[-1][key], rel=1e-8)
    assert again.positions.tobytes() == res.positions.tobytes()
    assert again.report.to_json() == res.report.to_json()
    # step i starts with the i earlier accepted maps, at most HISTORY of them
    assert held == [min(i, bound) for i in range(8)]
    assert plain_held == [0] * 8


def test_run_3ddem_uniform_population_immediate(ball_mesh):
    pop = np.abs(ball_mesh.volumes)
    res = run_3ddem(ball_mesh, pop)
    assert res.converged
    assert res.report.final["folds"] == 0
    # already equalized: no flow iterations recorded
    assert len(res.report.iterations) == 0
    assert np.linalg.norm(res.positions - res.initial_positions) == 0.0


def test_run_3ddem_hemisphere_small(ball_mesh):
    pop = hemispheric_population(ball_mesh, 4.0)
    res = run_3ddem(ball_mesh, pop)
    assert res.report.final["var_rho0"] > 0.05
    assert res.report.final["var_rho"] < 1e-2
    assert res.report.final["folds"] == 0
    assert all(it["folds_post"] == 0 for it in res.report.iterations)


def test_run_3ddeq_alpha_zero_matches_flow_target(ball_mesh):
    pop = smooth_population(ball_mesh, 3.0)
    res = run_3ddeq(ball_mesh, pop, SolverConfig(alpha=0.0, n_max=3, eps=1e-9))
    assert res.report.final["folds"] == 0
    assert len(res.report.iterations) >= 1


def _frame_matrices(field):
    """W diag(lambdas) W^T per tet: each value on its frame column."""
    W = field.frames
    return (W * field.lambdas[:, None, :]) @ np.swapaxes(W, 1, 2)


def test_descending_field_keeps_values_on_their_columns():
    from volball.distortion import TetFrameField
    rng = np.random.default_rng(9)
    field = frame_decompose(rng.normal(size=(200, 3, 3)) + 2.0 * np.eye(3))
    lam = rng.uniform(0.5, 3.0, size=(200, 3))
    lam[:100] = np.sort(lam[:100], axis=1)[:, ::-1]  # already in order
    lam[100] = [2.0, 2.0, 1.0]  # a tie in order stays as it is
    mixed = TetFrameField(field.frames, lam)
    out = mixed.descending()
    assert np.array_equal(out.lambdas, np.sort(lam, axis=1)[:, ::-1])
    assert np.array_equal(out.frames[:101], field.frames[:101])
    np.testing.assert_allclose(_frame_matrices(out), _frame_matrices(mixed), atol=1e-14)
    np.testing.assert_allclose(np.linalg.det(out.frames), 1.0, atol=1e-14)


def test_deq_step_keeps_each_value_on_its_frame_column(monkeypatch, ball_mesh):
    # at alpha 10 the residual increment reorders the blended triples of a
    # fifth of a stretched map's tets; the prescribed field must still put
    # every blended value on the advected frame column it was computed for
    from volball import drivers
    pop = hemispheric_population(ball_mesh, 4.0)
    config = SolverConfig(alpha=10.0)
    state = drivers._Iterate.read(ball_mesh, ball_mesh.vertices * [3.0, 1.5, 1.0], True)
    state.jacobians = jacobian_per_tet(ball_mesh, state.positions)
    state.lambdas = dilations(state.jacobians)
    state.field = dem.field_from_volumes(ball_mesh, state.volumes, pop)
    advected = drivers._dem_step(ball_mesh, state, config)
    adv = frame_decompose(jacobian_per_tet(ball_mesh, advected))
    lam_cur = drivers._flip_and_floor(state.lambdas)
    blend = (drivers._flip_and_floor(adv.lambdas)
             + config.alpha * (drivers.residual_step(lam_cur, config.residual_constant)
                               - lam_cur))
    assert np.all(blend > 0)  # no flip: the sort alone reorders
    reordered = np.any(np.diff(blend, axis=1) > 0, axis=1)
    assert reordered.sum() > len(blend) // 10
    captured = []
    monkeypatch.setattr(drivers, "truncate_eigenvalues", lambda lam, k: lam)
    monkeypatch.setattr(drivers, "reconstruct_map",
                        lambda mesh, field, *args, **kwargs: captured.append(field))
    drivers._deq_step(ball_mesh, state, config)
    [field] = captured
    assert np.all(np.diff(field.lambdas, axis=1) <= 0)
    expected = _frame_matrices(drivers.TetFrameField(adv.frames, blend))
    np.testing.assert_allclose(_frame_matrices(field), expected,
                               atol=1e-12 * np.abs(expected).max())


def test_run_3ddeq_reduces_density_variance(ball_mesh):
    pop = smooth_population(ball_mesh, 4.0)
    res = run_3ddeq(ball_mesh, pop)
    assert res.report.final["var_rho"] < res.report.final["var_rho0"]
    assert res.report.final["folds"] == 0


def test_run_method_dispatch(ball_mesh):
    pop = np.abs(ball_mesh.volumes)
    assert run_method("3ddem", ball_mesh, pop).report.method == "3ddem"
    with pytest.raises(ValueError):
        run_method("bogus", ball_mesh, pop)


@pytest.mark.parametrize("run", [run_3ddem, run_3ddeq,
                                 lambda mesh, pop: run_method("3ddem", mesh, pop),
                                 lambda mesh, pop: run_method("3ddeq", mesh)],
                         ids=["run_3ddem", "run_3ddeq", "run_method-3ddem", "run_method-3ddeq"])
def test_density_run_without_population_is_a_density_error(ball_mesh, run):
    with pytest.raises(dem.DensityError, match="no population given"):
        run(ball_mesh, None)


@pytest.mark.parametrize("method", ["3dqc", "3ddem"])
def test_init_positions_must_be_one_finite_point_per_vertex(ball_mesh, method):
    pop = np.abs(ball_mesh.volumes)
    n = len(ball_mesh.vertices)
    with pytest.raises(ValueError, match=rf"shape \(5, 3\); expected \({n}, 3\)"):
        run_method(method, ball_mesh, pop, init_positions=np.zeros((5, 3)))
    ball = ball_mesh.vertices.copy()
    ball[7, 1] = np.nan
    with pytest.raises(ValueError, match="init_positions must be finite"):
        run_method(method, ball_mesh, pop, init_positions=ball)


@pytest.mark.parametrize("method", ["3ddem", "3ddeq"])
def test_ablation_correction_flag(ball_mesh_6k, method):
    # without correction both flows end on their first folded iterate, which
    # is recorded without a density
    pop = hemispheric_population(ball_mesh_6k, 4.0)
    res = run_method(method, ball_mesh_6k, pop, SolverConfig(correction=False))
    *clean, last = res.report.iterations
    assert all(it["folds_post"] == 0 for it in clean)
    assert last["folds_post"] >= 1 and last["var_rho"] is None
    assert res.report.final["folds"] == ball_mesh_6k.count_folds(res.positions) >= 1
    assert not res.converged


def test_run_3ddem_last_step_meets_eps(ball_mesh):
    # the n_max-th step reaches sd/mean < eps: the run has converged
    pop = hemispheric_population(ball_mesh, 4.0)
    res = run_3ddem(ball_mesh, pop, SolverConfig(eps=0.05, n_max=14))
    assert len(res.report.iterations) == 14
    assert np.sqrt(res.report.final["var_rho"]) < 0.05
    assert res.converged is True


def test_normalized_density_variance():
    assert normalized_density_variance(np.full(10, 3.3)) == pytest.approx(0.0)
    v = normalized_density_variance(np.array([1.0, 3.0]))
    assert v == pytest.approx(0.25)


# Reports of the three drivers on uniform_ball_mesh(1), 4:1 hemisphere,
# n_max=10: iteration count, (folds_pre, folds_post) per iteration, converged,
# and the final var_rho, mean_K, sd_K.
RECORDED = {
    "3dqc": (0, [], True,
             (1.096631162632262e-06, 1.0017732776738908, 0.0012290795807950894)),
    "3ddem": (10, [(1, 0), (1, 0), (1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (2, 0),
                   (0, 0), (1, 0)], False,
              (0.003483448485279633, 1.814811509663855, 1.3502054359138407)),
    "3ddeq": (9, [(0, 0)] * 9, True,
              (0.0040284192874609995, 1.7743659339340963, 0.8721206384897043)),
}


def test_reports_match_recorded_values(ball_mesh):
    pop = hemispheric_population(ball_mesh, 4.0)
    config = SolverConfig(n_max=10)
    for method, (iterations, folds, converged, final) in RECORDED.items():
        res = run_method(method, ball_mesh, pop, config)
        rows = [it for it in res.report.iterations if it["iteration"] >= 1]
        assert len(rows) == iterations, method
        assert [(it["folds_pre"], it["folds_post"]) for it in rows] == folds, method
        assert res.converged is converged, method
        got = tuple(res.report.final[k] for k in ("var_rho", "mean_K", "sd_K"))
        assert got == pytest.approx(final, rel=1e-6), method


def test_volume_flow_builds_no_coo_matrix(monkeypatch, ball_mesh):
    # a 3ddem iteration averages through the mesh's connectivity; only the
    # rest ball's TetMesh, built once per run, makes a COO matrix
    from scipy.sparse import coo_matrix
    pop = hemispheric_population(ball_mesh, 1.05)
    coo = []
    init = coo_matrix.__init__

    def counted(self, *args, **kwargs):
        coo.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(coo_matrix, "__init__", counted)
    counts = []
    for n_max in (1, 3):
        coo.clear()
        result = run_3ddem(ball_mesh, pop, SolverConfig(n_max=n_max, eps=1e-4),
                           init_positions=ball_mesh.vertices)
        assert [it["folds_pre"] for it in result.report.iterations] == [0] * n_max
        counts.append(len(coo))
    assert counts[1] == counts[0]


def _gather_per_kernel(vertices, tets):
    """The edges of each tet from its own gather, in the component form the
    kernels had when each took its own ``corner_edges``."""
    x = np.ascontiguousarray(np.transpose(vertices)).take(
        np.ascontiguousarray(np.transpose(tets)), axis=1)
    return x[:, 1:] - x[:, :1]


def _old_volumes(vertices, tets):
    e = _gather_per_kernel(vertices, tets)
    bc = np.stack([e[1, 1] * e[2, 2] - e[2, 1] * e[1, 2],
                   e[2, 1] * e[0, 2] - e[0, 1] * e[2, 2],
                   e[0, 1] * e[1, 2] - e[1, 1] * e[0, 2]])
    return (e[0, 0] * bc[0] + e[1, 0] * bc[1] + e[2, 0] * bc[2]) / 6.0


def _old_gradients(vertices, tets):
    e = _gather_per_kernel(vertices, tets)
    a, b, c = e[:, 0], e[:, 1], e[:, 2]

    def cross(u, v):
        return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                         u[0] * v[1] - u[1] * v[0]])

    g = np.stack([np.zeros_like(a), cross(b, c), cross(c, a), cross(a, b)])
    det = a[0] * g[1, 0] + a[1] * g[1, 1] + a[2] * g[1, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        g[1:] /= det
        g[0] = -(g[1] + g[2] + g[3])
    return det / 6.0, np.moveaxis(g, -1, 0)


def _old_jacobians(mesh, positions):
    e = _gather_per_kernel(positions, mesh.tets)
    g = np.moveaxis(mesh.hat_gradients, 0, -1)
    J = np.empty((3, 3, e.shape[2]))
    for r in range(3):
        for c in range(3):
            J[r, c] = e[r, 0] * g[1, c] + e[r, 1] * g[2, c] + e[r, 2] * g[3, c]
    return np.moveaxis(J, -1, 0)


@pytest.mark.parametrize("solid", ["ball", "stretched", "graded"])
def test_one_read_equals_the_separate_kernels(solid, ball_mesh):
    # the volumes, hat gradients and Jacobians of one corner gather are
    # bitwise those each kernel took from its own gather, folds included
    from volball import drivers, synthetic
    mesh = {"ball": ball_mesh, "stretched": synthetic.stretched_ball_mesh(1),
            "graded": synthetic.graded_ellipsoid_mesh(1)}[solid]
    rng = np.random.default_rng(7)
    for scale in (0.0, 1e-3, 0.3):
        pos = mesh.vertices + scale * rng.normal(size=mesh.vertices.shape)
        volumes, gradients = _old_gradients(pos, mesh.tets)
        assert np.array_equal(volumes, _old_volumes(pos, mesh.tets))
        jacobians = _old_jacobians(mesh, pos)
        for tracked in (False, True):
            read = drivers._Iterate.read(mesh, pos, tracked)
            assert read.positions is pos
            assert np.array_equal(read.volumes, volumes)
            assert np.array_equal(read.jacobians, jacobians)
            assert (read.gradients is None) if not tracked else \
                np.array_equal(read.gradients, gradients)
        assert np.array_equal(signed_volumes(pos, mesh.tets), volumes)
        assert np.array_equal(tet_gradients(pos, mesh.tets)[1], gradients)
        assert np.array_equal(jacobian_per_tet(mesh, pos), jacobians)
    assert np.any(volumes <= 0)


def test_volume_flow_step_takes_one_geometry_pass(monkeypatch, ball_mesh):
    # one 3ddem step reads the volumes and hat gradients of its positions
    # from the iterate's record, a single corner gather, and builds no COO
    # matrix
    import sys

    from scipy.sparse import coo_matrix

    from volball.drivers import _dem_step, _Iterate
    calls = {"corner_edges": 0, "tet_gradients": 0, "signed_volumes": 0, "coo_matrix": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in [m for name, m in sys.modules.items() if name.startswith("volball")]:
        for name in ("corner_edges", "tet_gradients", "signed_volumes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(coo_matrix, "__init__", counting("coo_matrix", coo_matrix.__init__))
    pos = ball_mesh.vertices
    field = dem.recouple_density(ball_mesh, pos, hemispheric_population(ball_mesh, 4.0))
    ball_mesh.connectivity.edges  # built once per mesh, not per step
    for counter in calls:
        calls[counter] = 0
    state = _Iterate.read(ball_mesh, pos, gradients=True)
    state.field = field
    out = _dem_step(ball_mesh, state, SolverConfig())
    assert np.linalg.norm(out - pos, axis=1).max() > 1e-3  # the step moves
    assert calls == {"corner_edges": 1, "tet_gradients": 0, "signed_volumes": 0,
                     "coo_matrix": 0}


def _kernel_calls(monkeypatch, run):
    """Calls of corner_edges (every gather of a map's tets), tet_gradients,
    signed_volumes, jacobian_per_tet and TetMesh.count_folds (in every
    volball module) and of correct_overlaps made by ``run()``, with its
    result."""
    import sys

    from volball import drivers
    kernels = ("corner_edges", "tet_gradients", "signed_volumes", "jacobian_per_tet")
    calls = dict.fromkeys(kernels + ("count_folds", "correct_overlaps"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as mp:
        for module in [m for n, m in sys.modules.items() if n.startswith("volball")]:
            for name in kernels:
                if hasattr(module, name):
                    mp.setattr(module, name, counting(name, getattr(module, name)))
        mp.setattr(TetMesh, "count_folds", counting("count_folds", TetMesh.count_folds))
        mp.setattr(drivers, "correct_overlaps",
                   counting("correct_overlaps", drivers.correct_overlaps))
        result = run()
    return calls, result


def test_driver_iterate_reads_its_geometry_once(monkeypatch, ball_mesh):
    # whole iterations: an iterate that needs no correction is read by one
    # corner gather, which its fold count, Jacobians, dilations and, in
    # 3ddem, density, energies and next step share; no iterate calls a
    # per-map kernel of its own
    pop = hemispheric_population(ball_mesh, 1.05)
    per_run = {}
    for n_max in (1, 3):
        calls, result = _kernel_calls(monkeypatch, lambda: run_3ddem(
            ball_mesh, pop, SolverConfig(n_max=n_max, eps=1e-4),
            init_positions=ball_mesh.vertices))
        assert [it["folds_pre"] for it in result.report.iterations] == [0] * n_max
        assert calls["correct_overlaps"] == 0
        per_run[n_max] = calls
    per_two = {k: per_run[3][k] - per_run[1][k] for k in per_run[1]}
    assert per_two == {"corner_edges": 2, "tet_gradients": 0, "signed_volumes": 0,
                       "jacobian_per_tet": 0, "count_folds": 0, "correct_overlaps": 0}

    mesh = stretched_ball_mesh(1)
    ball = run_3dqc(mesh, SolverConfig(n_max=1)).initial_positions
    qc_calls = []
    for n_max in (1, 3):
        calls, result = _kernel_calls(monkeypatch, lambda: run_3dqc(
            mesh, SolverConfig(n_max=n_max), init_positions=ball))
        assert len(result.report.iterations) == n_max + 1
        qc_calls.append(calls)
    assert {k: qc_calls[1][k] - qc_calls[0][k] for k in qc_calls[0]} == per_two


def test_3ddem_takes_corner_weights_once_per_settled_iterate(monkeypatch, ball_mesh):
    # the evaluation's density field and the next step's diffusion operators
    # share one Connectivity.corner_weights of the iterate's volumes
    from volball.tetmesh import Connectivity
    pop = hemispheric_population(ball_mesh, 4.0)
    ball = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    seen, corner_weights = [], Connectivity.corner_weights

    def recorded(self, measures):
        seen.append(measures.tobytes())
        return corner_weights(self, measures)

    monkeypatch.setattr(Connectivity, "corner_weights", recorded)
    result = run_3ddem(ball_mesh, pop, SolverConfig(n_max=3), init_positions=ball)
    assert len(result.report.iterations) == 3
    assert len(seen) == len(set(seen)) == 4  # the settled ball and three iterates


def test_3ddem_iteration_without_correction_decomposes_nothing(monkeypatch, ball_mesh):
    # a 3ddem iterate that needs no correction reads eigenvalues only
    pop = hemispheric_population(ball_mesh, 1.05)
    rows = _decomposed_rows(monkeypatch)
    result = run_3ddem(ball_mesh, pop, SolverConfig(n_max=3, eps=1e-4),
                       init_positions=ball_mesh.vertices)
    assert [it["folds_pre"] for it in result.report.iterations] == [0] * 3
    assert rows == []


def test_3ddem_correction_decomposes_only_screened_tets(monkeypatch, ball_mesh_6k):
    # folds fire the correction; each rebuild takes the closed-form roots of
    # the tets that pass its screen, once, frames none of them, and edits
    # those whose triples it flips or truncates; a boundary-patch rebuild
    # screens only the tets with a free corner
    from volball import distortion
    mesh, m = ball_mesh_6k, len(ball_mesh_6k.tets)
    screen, roots = distortion.fold_candidates, distortion._smith_roots
    screened, rooted = [], []

    def recorded_screen(J, ratio=None, tets=None):
        rows = screen(J, ratio, tets)
        screened.append((len(J), len(rows)))
        return rows

    def recorded_roots(diag, off):
        rooted.append(len(diag[0]))
        return roots(diag, off)

    pop = hemispheric_population(mesh, 4.0)
    ball = initial_ball(mesh, SolverConfig(), "3ddem")
    rows, edits = _decomposed_rows(monkeypatch), _rebuild_rows(monkeypatch)
    sweeps = _sweeps(monkeypatch)
    monkeypatch.setattr(distortion, "fold_candidates", recorded_screen)
    monkeypatch.setattr(distortion, "_smith_roots", recorded_roots)
    result = run_3ddem(mesh, pop, SolverConfig(n_max=6), init_positions=ball)
    assert any(it["folds_pre"] for it in result.report.iterations)
    assert rows == []
    assert all(not vectors for _, vectors in sweeps)
    # every roots call on fewer than all tets is a rebuild's, on its
    # screened rows (the recording rebuild screens each stack twice)
    rebuilds = screened[::2]
    assert screened[1::2] == rebuilds
    assert [n for n in rooted if n < m] == [k for _, k in rebuilds]
    assert [k for k, _ in edits] == [k for _, k in rebuilds]
    assert all(0 < e <= k for k, e in edits)
    patches = [n for n, _ in rebuilds if n < m]
    assert patches and all(n < m / 10 for n in patches)


def test_3ddem_correction_screens_and_reads_each_map_once(monkeypatch, ball_mesh_6k):
    # each rebuild takes closed-form roots of the rows that pass its screen
    # and runs no Jacobi sweep; every full-mesh eigenvalue call is a settle
    # read, whose only Jacobi sweep is its fallback's few rows, without
    # frames; no position set is gathered twice, by a settle read, a
    # rebuild, a solve or a fold count; and no boundary is tested for flips
    # twice
    from volball import distortion, drivers, tetmesh
    mesh, m = ball_mesh_6k, len(ball_mesh_6k.tets)
    events, reads, flip_tests = [], [], []
    screen, sweep = distortion.fold_candidates, distortion._sym3_eigh
    roots, flips = distortion._smith_roots, drivers.spherical_flips

    def screened(J, ratio=None, tets=None):
        rows = screen(J, ratio, tets)
        events.append(("screen", len(rows)))
        return rows

    def swept(diag, off, vectors, tets=None):
        events.append(("sweep", len(diag[0]), vectors))
        return sweep(diag, off, vectors, tets)

    def solved(diag, off):
        events.append(("roots", len(diag[0])))
        return roots(diag, off)

    def read(positions, tets):
        reads.append(np.asarray(positions).tobytes())
        return corner_edges(positions, tets)

    def read_gradients(positions, tets, tet_ids=None):
        reads.append(np.asarray(positions).tobytes())
        return tet_gradients(positions, tets, tet_ids)

    def tested(points, faces):
        flip_tests.append(np.asarray(points).tobytes())
        return flips(points, faces)

    pop = hemispheric_population(mesh, 4.0)
    ball = initial_ball(mesh, SolverConfig(), "3ddem")
    monkeypatch.setattr(distortion, "fold_candidates", screened)
    monkeypatch.setattr(distortion, "_sym3_eigh", swept)
    monkeypatch.setattr(distortion, "_smith_roots", solved)
    for module in (distortion, drivers, tetmesh):
        monkeypatch.setattr(module, "corner_edges", read)
    monkeypatch.setattr(distortion, "tet_gradients", read_gradients)
    monkeypatch.setattr(drivers, "spherical_flips", tested)
    result = run_3ddem(mesh, pop, SolverConfig(n_max=6), init_positions=ball)
    assert any(it["folds_pre"] for it in result.report.iterations)
    rebuilds, full = 0, 0
    while events:
        event = events.pop(0)
        if event[0] == "screen":
            rebuilds += 1
            assert events.pop(0) == ("roots", event[1])
            assert event[1] < m
        else:
            assert event == ("roots", m)
            full += 1
            if events and events[0][0] == "sweep":
                _, rows, vectors = events.pop(0)
                assert rows < m and not vectors
    assert rebuilds > 0
    # the initial ball and each iterate are read once each
    assert full == 1 + len(result.report.iterations)
    assert len(reads) == len(set(reads))
    assert 0 < len(flip_tests) == len(set(flip_tests))


def test_3dqc_iterate_decomposes_once(monkeypatch):
    # the residual step's coefficient comes from each iterate's Jacobians and
    # triples: no 3dqc run frames a tet, and each iterate (the initial ball
    # and every candidate) makes one full-mesh eigenvalue call, whose Jacobi
    # fallback, if any, takes a few rows without frames
    from volball import distortion
    mesh = stretched_ball_mesh(1)
    ball = run_3dqc(mesh, SolverConfig(n_max=1)).initial_positions
    sweep, roots = distortion._sym3_eigh, distortion._smith_roots
    for n_max in (1, 3):
        calls, sweeps = [], []

        def swept(diag, off, vectors, tets=None):
            sweeps.append((len(diag[0]), vectors))
            return sweep(diag, off, vectors, tets)

        def solved(diag, off):
            calls.append(len(diag[0]))
            return roots(diag, off)

        with monkeypatch.context() as mp:
            rows = _decomposed_rows(mp)
            mp.setattr(distortion, "_sym3_eigh", swept)
            mp.setattr(distortion, "_smith_roots", solved)
            result = run_3dqc(mesh, SolverConfig(n_max=n_max), init_positions=ball)
        assert len(result.report.iterations) == n_max + 1
        assert all(it["folds_pre"] == 0 for it in result.report.iterations)
        assert rows == []
        assert calls == [len(mesh.tets)] * (n_max + 1)
        assert len(sweeps) <= len(calls)
        assert all(n < len(mesh.tets) and not vectors for n, vectors in sweeps)


_THREAD_RUNS = """
import hashlib
from volball.drivers import SolverConfig, run_3ddem, run_3dqc
from volball.remesh import uniform_ball_mesh
from volball.synthetic import hemispheric_population, stretched_ball_mesh
qc = run_3dqc(stretched_ball_mesh(3), SolverConfig(n_max=2))
ball = uniform_ball_mesh(2)
dem = run_3ddem(ball, hemispheric_population(ball, 4.0), SolverConfig(n_max=5))
for result in (qc, dem):
    print(hashlib.sha256(result.report.to_json().encode()).hexdigest(),
          hashlib.sha256(result.positions.tobytes()).hexdigest())
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    # the energies of 20 112 tets are summed past OpenBLAS's threading
    # threshold for a dot product; reports and maps must not see the split
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                     if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUNS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
