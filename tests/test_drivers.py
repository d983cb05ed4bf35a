import numpy as np
import pytest

from volball import density as dem
from volball.distortion import frame_decompose, jacobian_per_tet
from volball.drivers import (SolverConfig, compute_energies, correct_overlaps,
                             initial_ball, normalized_density_variance,
                             run_3ddem, run_3ddeq, run_3dqc, run_method)
from volball.sphere_map import normalize_rows
from volball.synthetic import (hemispheric_population, smooth_population,
                               stretched_ball_mesh)
from volball.tetmesh import TetMesh, signed_volumes, tet_gradients


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
    cfg = SolverConfig()
    assert cfg.resolved_boundary_mode("3dqc") == "conformal"
    assert cfg.resolved_boundary_mode("3ddem") == "dem"
    assert cfg.resolved_boundary_mode("3ddeq") == "dem"
    assert SolverConfig(boundary_mode="dem").resolved_boundary_mode("3dqc") == "dem"


def test_initial_ball_on_ball_is_near_identity(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    assert ball_mesh.count_folds(pos) == 0
    assert np.abs(np.linalg.norm(pos[ball_mesh.boundary_vertex_mask], axis=1)
                  - 1).max() < 1e-12
    assert np.linalg.norm(pos - ball_mesh.vertices, axis=1).max() < 0.1


def _initial_ball_map_per_round(mesh, config):
    """Reference: the density initial ball with a full boundary map, its
    embedding included, in every refinement round."""
    from volball import drivers
    from volball.laplace import harmonic_fill
    from volball.sphere_map import (BoundaryMap, spherical_embedding,
                                    surface_density_equalize)
    cone = drivers._boundary_cone_volumes(mesh)
    face_population, best, best_var, rounds = cone.copy(), None, np.inf, 0
    vertex_ids, faces = mesh.boundary_surface()
    for _ in range(drivers.REFINE_ROUNDS + 1):
        rounds += 1
        embedded = spherical_embedding(mesh.vertices[vertex_ids], faces)
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
    return (pos if best is None else best), rounds


def test_initial_ball_embeds_once_and_matches_per_round_maps(monkeypatch):
    from volball import drivers
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    config = SolverConfig()
    expected, rounds = _initial_ball_map_per_round(mesh, config)
    assert rounds == drivers.REFINE_ROUNDS + 1
    embeddings, flows = [], []
    embed, flow = drivers.spherical_embedding, drivers.surface_density_equalize
    monkeypatch.setattr(drivers, "spherical_embedding",
                        lambda *a: embeddings.append(1) or embed(*a))
    monkeypatch.setattr(drivers, "surface_density_equalize",
                        lambda *a, **k: flows.append(1) or flow(*a, **k))
    np.testing.assert_array_equal(initial_ball(mesh, config, "3ddeq"), expected)
    assert (len(embeddings), len(flows)) == (1, rounds)


def test_correct_overlaps_noop_on_clean_input(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    out = correct_overlaps(ball_mesh, pos, 10.0)
    np.testing.assert_array_equal(out, pos)


def test_correct_overlaps_single_interior_fold(ball_mesh):
    pos = initial_ball(ball_mesh, SolverConfig(), "3ddem")
    interior = np.flatnonzero(~ball_mesh.boundary_vertex_mask)
    broken = None
    for v in interior:
        for t in np.flatnonzero(np.any(ball_mesh.tets == v, axis=1)):
            face = [i for i in ball_mesh.tets[t] if i != v]
            p0, p1, p2 = pos[face]
            n = np.cross(p1 - p0, p2 - p0)
            n /= np.linalg.norm(n)
            d = float((pos[v] - p0) @ n)
            cand = pos.copy()
            cand[v] -= 2.02 * d * n
            if ball_mesh.count_folds(cand) == 1:
                broken = cand
                break
        if broken is not None:
            break
    assert broken is not None
    fixed = correct_overlaps(ball_mesh, broken, 10.0)
    assert ball_mesh.count_folds(fixed) == 0
    assert np.abs(np.linalg.norm(fixed[ball_mesh.boundary_vertex_mask], axis=1)
                  - 1).max() < 1e-12


def test_compute_energies_identity(ball_mesh):
    frames = frame_decompose(jacobian_per_tet(ball_mesh, ball_mesh.vertices))
    field = dem.recouple_density(ball_mesh, ball_mesh.vertices,
                                 np.abs(ball_mesh.volumes))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, e_dem, e_deq = compute_energies(ball_rest, ball_mesh.vertices, field,
                                          frames, 0.01)
    assert e_qc == pytest.approx(0.0, abs=1e-18)
    assert e_dem == pytest.approx(0.0, abs=1e-15)
    assert e_deq == pytest.approx(0.0, abs=1e-15)


def test_compute_energies_scaling_invariance_of_qc(ball_mesh):
    frames = frame_decompose(jacobian_per_tet(ball_mesh, 3.0 * ball_mesh.vertices))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, _, _ = compute_energies(ball_rest, 3.0 * ball_mesh.vertices, None,
                                  frames, 0.01)
    assert e_qc == pytest.approx(0.0, abs=1e-16)


def test_compute_energies_brute_force_oracle(ball_mesh):
    rng = np.random.default_rng(0)
    positions = ball_mesh.vertices + 0.02 * rng.normal(size=ball_mesh.vertices.shape)
    if ball_mesh.count_folds(positions):
        positions = ball_mesh.vertices + 0.002 * rng.normal(size=positions.shape)
    pop = np.abs(ball_mesh.volumes)
    field = dem.recouple_density(ball_mesh, positions, pop)
    frames = frame_decompose(jacobian_per_tet(ball_mesh, positions))
    ball_rest = TetMesh.from_arrays(ball_mesh.vertices.copy(), ball_mesh.tets)
    e_qc, e_dem, e_deq = compute_energies(ball_rest, positions, field, frames, 0.01)

    # independent re-summation over raw arrays
    w = np.abs(signed_volumes(ball_mesh.vertices, ball_mesh.tets))
    acc_qc = 0.0
    for t in range(len(ball_mesh.tets)):
        lam = np.sort(np.abs(frames.lambdas[t]))[::-1]
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


def test_settle_decomposes_each_iterate_once(monkeypatch, ball_mesh):
    from volball import drivers
    rng = np.random.default_rng(4)
    cand = ball_mesh.vertices.copy()
    interior = ~ball_mesh.boundary_vertex_mask
    cand[interior] += 0.002 * rng.normal(size=(int(interior.sum()), 3))
    assert ball_mesh.count_folds(cand) == 0
    ratios = np.abs(frame_decompose(jacobian_per_tet(ball_mesh, cand)).ratios)
    seen = []

    def recorded(mesh, positions):
        seen.append(np.asarray(positions).tobytes())
        return jacobian_per_tet(mesh, positions)

    monkeypatch.setattr(drivers, "jacobian_per_tet", recorded)
    # fold-free but strained: correct_overlaps takes over the frames of the
    # candidate instead of decomposing it again
    drivers._settle(ball_mesh, cand, SolverConfig(),
                    normalize_rows(cand[ball_mesh.boundary_vertices]),
                    near_fold_ratio=float(np.median(ratios)))
    assert len(seen) >= 2
    assert len(seen) == len(set(seen))


def test_settle_counts_folds_once_without_correction(monkeypatch, ball_mesh):
    from volball import drivers
    calls = []
    count = TetMesh.count_folds

    def counted(self, positions):
        calls.append(1)
        return count(self, positions)

    monkeypatch.setattr(TetMesh, "count_folds", counted)
    ref = normalize_rows(ball_mesh.vertices[ball_mesh.boundary_vertices])
    # fold-free and unstrained: folds_post is folds_pre, counted once
    _, pre, post, _ = drivers._settle(ball_mesh, ball_mesh.vertices.copy(),
                                      SolverConfig(), ref)
    assert (pre, post, len(calls)) == (0, 0, 1)
    # a mirrored candidate folds everywhere: without correction nothing
    # recounts; a correction that ran is recounted once
    m = len(ball_mesh.tets)
    mirrored = ball_mesh.vertices * np.array([-1.0, 1.0, 1.0])
    calls.clear()
    _, pre, post, _ = drivers._settle(ball_mesh, mirrored,
                                      SolverConfig(correction=False), ref)
    assert (pre, post, len(calls)) == (m, m, 1)
    monkeypatch.setattr(drivers, "correct_overlaps",
                        lambda mesh, cand, *args, **kwargs: mesh.vertices.copy())
    calls.clear()
    _, pre, post, _ = drivers._settle(ball_mesh, mirrored, SolverConfig(), ref)
    assert (pre, post, len(calls)) == (m, 0, 2)


def test_solvers_run_without_batched_lapack(monkeypatch, ball_mesh):
    # the per-tet kernels are closed-form; batched LAPACK on 3 x 3 matrices
    # must stay off the solver path
    def refuse(*args, **kwargs):
        raise AssertionError("batched LAPACK call on the solver path")

    for name in ("eigh", "det", "solve"):
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
    # the 16-triplet tet layout serves every harmonic fill and reconstruction
    assert sizes.count(16 * len(mesh.tets)) == 1


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


def test_volume_flow_step_takes_one_geometry_pass(monkeypatch, ball_mesh):
    # one 3ddem step reads the volumes and hat gradients of its positions
    # from a single tet_gradients call and builds no COO matrix
    import sys
    from types import SimpleNamespace

    from scipy.sparse import coo_matrix

    from volball.drivers import _dem_step
    calls = {"tet_gradients": 0, "signed_volumes": 0, "coo_matrix": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in [m for name, m in sys.modules.items() if name.startswith("volball")]:
        for name in ("tet_gradients", "signed_volumes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(coo_matrix, "__init__", counting("coo_matrix", coo_matrix.__init__))
    pos = ball_mesh.vertices
    field = dem.recouple_density(ball_mesh, pos, hemispheric_population(ball_mesh, 4.0))
    ball_mesh.connectivity.edges  # built once per mesh, not per step
    for counter in calls:
        calls[counter] = 0
    out = _dem_step(ball_mesh, SimpleNamespace(positions=pos, field=field), SolverConfig())
    assert np.linalg.norm(out - pos, axis=1).max() > 1e-3  # the step moves
    assert calls == {"tet_gradients": 1, "signed_volumes": 0, "coo_matrix": 0}
