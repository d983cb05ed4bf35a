"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import time

import numpy as np
import pytest

import volball as vb
from volball import cli, fileio
from volball import density as dem
from volball.drivers import SolverConfig
from volball.remesh import pullback, quality_metrics, uniform_ball_mesh
from volball.synthetic import (graded_ellipsoid_mesh, hemispheric_population,
                               octant_population, smooth_population,
                               stretched_ball_mesh)
from volball.tetmesh import EDGE_LOCAL, signed_volumes


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def hemisphere_run():
    mesh = uniform_ball_mesh(2)  # ~6k tets
    population = hemispheric_population(mesh, 4.0)
    start = time.time()
    result = vb.run_3ddem(mesh, population)
    return mesh, population, result, time.time() - start


def test_criterion_1_hemispherical_ball(hemisphere_run):
    mesh, _, result, elapsed = hemisphere_run
    final = result.report.final
    folds_each = [it["folds_post"] for it in result.report.iterations]
    ok = (len(mesh.tets) > 5000 and final["var_rho0"] > 0.1
          and final["var_rho"] < 1e-2 and final["folds"] == 0
          and all(f == 0 for f in folds_each) and elapsed < 300)
    _line("criterion 1 (hemispherical-density ball)", ok,
          f"tets={len(mesh.tets)} var0={final['var_rho0']:.4f} "
          f"var={final['var_rho']:.6f} folds={final['folds']} "
          f"max_iter_folds={max(folds_each, default=0)} time={elapsed:.0f}s")


def test_criterion_2_continuous_density_ball():
    mesh = uniform_ball_mesh(2)
    result = vb.run_3ddem(mesh, smooth_population(mesh, 5.0))
    final = result.report.final
    ok = final["var_rho"] < 1e-2 and final["folds"] == 0
    _line("criterion 2 (continuous-density ball)", ok,
          f"var={final['var_rho']:.6f} folds={final['folds']}")


def test_criterion_3_volume_preserving_mode():
    mesh = graded_ellipsoid_mesh(2)
    population = np.abs(mesh.volumes)
    result = vb.run_3ddem(mesh, population)
    field = dem.recouple_density(mesh, result.positions, population)
    rho_bar = field.rho_vertex / field.rho_vertex.mean()
    frac = float(np.mean(np.abs(rho_bar - 1.0) <= 0.1))
    ok = frac >= 0.9 and result.report.final["folds"] == 0
    _line("criterion 3 (volume-preserving mode)", ok,
          f"fraction within 10% of 1: {frac:.3f} folds={result.report.final['folds']}")


def test_criterion_4_qc_energy_monotonicity():
    mesh = stretched_ball_mesh(2, stretch=(2.0, 1.0, 0.7))
    result = vb.run_3dqc(mesh)
    energies = [it["E_3DQC"] for it in result.report.iterations]
    monotone = all(b <= a for a, b in zip(energies, energies[1:]))
    mean_k0 = result.report.iterations[0]["mean_K"]
    mean_k = result.report.final["mean_K"]
    harmonic_folds = mesh.count_folds(result.initial_positions)
    qc_folds = result.report.final["folds"]
    ok = (monotone and mean_k < mean_k0 and qc_folds == 0
          and qc_folds <= harmonic_folds)
    _line("criterion 4 (3DQC energy monotonicity)", ok,
          f"monotone={monotone} meanK {mean_k0:.4f}->{mean_k:.4f} "
          f"folds harmonic={harmonic_folds} 3dqc={qc_folds}")


def test_criterion_5_deq_vs_dem_trend(cube8):
    config = SolverConfig(eps=5e-3, n_max=150)
    wins = 0
    rows = []
    for seed in range(5):
        population = octant_population(cube8, seed=seed, low=1.0, high=4.0)
        dem_final = vb.run_3ddem(cube8, population, config).report.final
        deq_final = vb.run_3ddeq(cube8, population, config).report.final
        trend = deq_final["sd_K"] <= dem_final["sd_K"]
        wins += trend
        assert dem_final["var_rho"] < 1e-2 and deq_final["var_rho"] < 1e-2
        assert dem_final["folds"] == 0 and deq_final["folds"] == 0
        rows.append(f"seed{seed}: sdK dem={dem_final['sd_K']:.2f} "
                    f"deq={deq_final['sd_K']:.2f} trend={trend}")
    ok = wins >= 4
    _line("criterion 5 (3DDEQ vs 3DDEM trend)", ok,
          f"trend holds {wins}/5 [" + "; ".join(rows) + "]")


def test_criterion_6_operator_oracles(ball_mesh):
    rng = np.random.default_rng(2024)
    # (a) per-tet gradient exact on linear fields
    g = np.array([2.0, -3.0, 0.5])
    grad = dem.density_gradient(ball_mesh.tets, ball_mesh.hat_gradients,
                                ball_mesh.vertices @ g)
    a_ok = np.abs(grad - g).max() < 1e-10
    # (b) truncation output ratio = min(K, K_T) to 1e-12
    c = rng.uniform(0.05, 2.0, size=1000)
    b = c + rng.uniform(0, 5, size=1000)
    a = b + rng.uniform(0, 5, size=1000)
    lam = np.column_stack([a, b, c])
    out = vb.truncate_eigenvalues(lam, 3.0)
    b_ok = np.abs(out[:, 0] / out[:, 2]
                  - np.minimum(lam[:, 0] / lam[:, 2], 3.0)).max() < 1e-12
    # (c) residual step strictly decreases K on 1000 random triples
    c3 = rng.uniform(0.05, 2.0, size=1000)
    b3 = c3 + rng.uniform(1e-9, 3.0, size=1000)
    a3 = b3 + rng.uniform(1e-9, 3.0, size=1000)
    lam3 = np.column_stack([a3, b3, c3])
    stepped = vb.residual_step(lam3, 50.0)
    c_ok = np.all(stepped[:, 0] / stepped[:, 2] < lam3[:, 0] / lam3[:, 2])
    # (d) frame ratio equals singular-value oracle to 1e-9 on 1000 matrices
    J = rng.normal(size=(1500, 3, 3))
    J = J[np.abs(np.linalg.det(J)) > 1e-3][:1000]
    frames = vb.frame_decompose(J)
    sv = np.linalg.svd(J, compute_uv=False)
    oracle = sv[:, 0] / sv[:, 2] * np.sign(np.linalg.det(J))
    d_ok = np.abs(frames.ratios / oracle - 1.0).max() < 1e-9
    # (e) diffusion conserves lumped mass to 1e-8 relative
    ops = dem.build_operators(ball_mesh, (ball_mesh.volumes, ball_mesh.hat_gradients))
    rho = 1.0 + rng.uniform(size=len(ball_mesh.vertices))
    rho_next = dem.diffusion_step(ops, rho, 0.1)
    m0 = float(ops.lumped_volumes @ rho)
    e_ok = abs(float(ops.lumped_volumes @ rho_next) - m0) <= 1e-8 * m0
    # (f) identity-frame reconstruction matches the harmonic fill to 1e-8
    from volball.sphere_map import compute_boundary_sphere_map
    bmap = compute_boundary_sphere_map(ball_mesh)
    harmonic = vb.harmonic_fill(ball_mesh, bmap.points, bmap.vertex_indices)
    m = len(ball_mesh.tets)
    ident = vb.TetFrameField(np.broadcast_to(np.eye(3), (m, 3, 3)).copy(),
                             np.ones((m, 3)))
    rec = vb.reconstruct_map(ball_mesh, ident, bmap.vertex_indices, bmap.points)
    f_ok = np.abs(rec - harmonic).max() < 1e-8
    ok = a_ok and b_ok and c_ok and d_ok and e_ok and f_ok
    _line("criterion 6 (operator oracles)", ok,
          f"gradient={a_ok} truncation={b_ok} residual={c_ok} "
          f"frames={d_ok} mass={e_ok} identity-recon={f_ok}")


def test_criterion_7_correction_ablation(hemisphere_run):
    mesh, population, corrected, _ = hemisphere_run
    ablated = vb.run_3ddem(mesh, population, SolverConfig(correction=False))
    folds_off = max((it["folds_post"] for it in ablated.report.iterations),
                    default=0)
    folds_on = max((it["folds_post"] for it in corrected.report.iterations),
                   default=0)
    ok = folds_off >= 1 and folds_on == 0
    _line("criterion 7 (correction-scheme ablation)", ok,
          f"max folds without correction={folds_off}, with correction={folds_on}")


def test_criterion_8_remeshing_metrics():
    start = time.time()
    mesh = graded_ellipsoid_mesh(2)
    population = np.abs(mesh.volumes)
    template = uniform_ball_mesh(3)
    metrics = {}
    for method in ("3dqc", "3ddem", "3ddeq"):
        result = vb.run_method(method, mesh,
                               None if method == "3dqc" else population)
        positions, _ = pullback(mesh, result.positions, template)
        metrics[method] = (quality_metrics(template.tets, positions), positions)
    elapsed = time.time() - start

    q_qc = metrics["3dqc"][0]
    q_dem = metrics["3ddem"][0]
    size_ok = q_dem.delta_size < q_qc.delta_size
    shape_ok = q_qc.delta_shape < q_dem.delta_shape

    # brute-force recomputation over raw arrays to 1e-12
    brute_ok = True
    for method, (q, positions) in metrics.items():
        vols = np.abs(np.linalg.det(positions[template.tets[:, 1:]]
                                    - positions[template.tets[:, :1]])) / 6.0
        edges = positions[template.tets[:, EDGE_LOCAL[:, 0]]] - \
            positions[template.tets[:, EDGE_LOCAL[:, 1]]]
        L = np.linalg.norm(edges, axis=2)
        R = np.abs(L / L.sum(axis=1, keepdims=True) - 1 / 6).sum(axis=1)
        brute_ok &= abs(q.delta_size - float(np.std(vols))) < 1e-12
        brute_ok &= abs(q.delta_shape - float(np.mean(R))) < 1e-12
    ok = size_ok and shape_ok and brute_ok and elapsed < 600
    _line("criterion 8 (remeshing metrics)", ok,
          f"dsize qc={q_qc.delta_size:.2e} dem={q_dem.delta_size:.2e} "
          f"dshape qc={q_qc.delta_shape:.4f} dem={q_dem.delta_shape:.4f} "
          f"brute={brute_ok} time={elapsed:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    mesh = uniform_ball_mesh(1)
    src = tmp_path / "in.mesh"
    fileio.save_mesh(str(src), mesh.vertices, mesh.tets)
    payloads = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main(["param", "--method", "3ddem", "--population", "volume",
                         str(src), str(out)])
        assert code in (0, 2)
        payloads.append((out / "report.json").read_bytes())
    ok = payloads[0] == payloads[1]
    _line("criterion 9 (CLI determinism)", ok,
          f"byte-identical reports: {ok}")
