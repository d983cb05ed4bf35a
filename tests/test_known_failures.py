"""Runs that return no map, or a wrong one, at present, pinned as strict
expected failures.

Each case asserts what a working run would give. The marker names the error
the run raises today, or AssertionError where it returns a wrong result (see
the FOUND lines in CHANGES.md), so a change that makes one pass has to flip
its marker, and one that makes it fail in another way shows as a failure.
Never shrink a solid or change a population here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from volball import cli, fileio, synthetic
from volball.distortion import FrameError
from volball.drivers import (CorrectionError, SolverConfig, initial_ball, run_3ddem,
                             run_3ddeq, run_3dqc)
from volball.remesh import remesh_through, uniform_ball_mesh
from volball.sphere_map import SphereMapError
from volball.synthetic import cube_mesh, hemispheric_population, lcube_mesh


@pytest.mark.xfail(strict=True, raises=SphereMapError,
                   reason="the surface density flow flips triangles that the "
                          "spherical overlap repair cannot remove")
@pytest.mark.parametrize("n", [4, 6, 8])
def test_lcube_density_initial_ball(n):
    mesh = lcube_mesh(n)
    ball = initial_ball(mesh, SolverConfig(), "3ddem")
    assert mesh.count_folds(ball) == 0


@pytest.mark.xfail(strict=True, raises=SphereMapError,
                   reason="the radial start and every smoothing round of the "
                          "conformal boundary map flip triangles (12 left), so "
                          "no flip-free map is left to repair against")
def test_lcube5_conformal_3dqc():
    mesh = lcube_mesh(5)
    result = run_3dqc(mesh)
    assert result.report.final["folds"] == 0


@pytest.mark.xfail(strict=True, raises=CorrectionError,
                   reason="overlap correction budget exhausted with 1 fold "
                          "left in iteration 87")
def test_cube4_hemisphere_3ddem():
    mesh = cube_mesh(4)
    result = run_3ddem(mesh, hemispheric_population(mesh, 4.0))
    assert result.report.final["folds"] == 0


@pytest.mark.xfail(strict=True, raises=FrameError,
                   reason="the tail degrades the map to a singular Jacobian "
                          "on tet 0 in iteration 44")
def test_cube3_hemisphere_3ddem():
    mesh = cube_mesh(3)
    result = run_3ddem(mesh, hemispheric_population(mesh, 4.0))
    assert result.report.final["folds"] == 0


@pytest.mark.xfail(strict=True, raises=FrameError,
                   reason="the tail after the var_rho target degrades the map "
                          "to a singular Jacobian in iteration 64")
def test_lcube3_hemisphere_3ddem():
    mesh = lcube_mesh(3)
    result = run_3ddem(mesh, hemispheric_population(mesh, 4.0))
    assert result.report.final["folds"] == 0


POPULATIONS = {"hemi": lambda mesh: hemispheric_population(mesh, 4.0),
               "smooth": synthetic.smooth_population,
               "octant": synthetic.octant_population}
RUNNERS = {"3ddem": run_3ddem, "3ddeq": run_3ddeq}


def _pinned(error, reason, solid, size, population, method):
    return pytest.param(solid, size, population, method,
                        marks=pytest.mark.xfail(strict=True, raises=error, reason=reason),
                        id=f"{solid.split('_')[0]}{size}-{population}-{method}")


@pytest.mark.parametrize("solid, size, population, method", [
    _pinned(FrameError, "singular Jacobian on tet 12", "cube_mesh", 2, "hemi", "3ddem"),
    _pinned(FrameError, "singular Jacobian on tet 20", "cube_mesh", 2, "smooth", "3ddem"),
    _pinned(FrameError, "singular Jacobian on tet 30", "cube_mesh", 2, "octant", "3ddem"),
    _pinned(FrameError, "singular Jacobian on tet 30", "cube_mesh", 2, "octant", "3ddeq"),
    _pinned(FrameError, "singular Jacobian on tet 155", "cube_mesh", 5, "hemi", "3ddem"),
    _pinned(FrameError, "singular Jacobian on tet 0", "lcube_mesh", 2, "smooth", "3ddem"),
    _pinned(CorrectionError, "2 folds remain", "cube_mesh", 3, "octant", "3ddem"),
    _pinned(CorrectionError, "5 folds remain", "cube_mesh", 4, "octant", "3ddem"),
    _pinned(CorrectionError, "3 folds remain", "cube_mesh", 4, "octant", "3ddeq"),
    _pinned(CorrectionError, "1 fold remains", "cube_mesh", 5, "octant", "3ddem"),
    # every vertex of lcube_mesh(2) lies on the boundary, so the correction
    # has no boundary patch to rebuild against a fixed remainder
    _pinned(CorrectionError, "2 folds remain", "lcube_mesh", 2, "octant", "3ddem"),
    _pinned(CorrectionError, "2 folds remain", "lcube_mesh", 2, "octant", "3ddeq"),
    _pinned(FrameError, "singular Jacobian on tet 51 in iteration 86", "lcube_mesh", 3,
            "smooth", "3ddem"),
    _pinned(CorrectionError, "3 folds remain", "lcube_mesh", 3, "octant", "3ddem"),
    # the density initial ball folds in 2 tets, which its correction removes;
    # the iterations then fold beyond repair (the population does not change
    # the initial ball)
    _pinned(CorrectionError, "3 folds remain in iteration 6", "lcube_mesh", 7, "hemi", "3ddem"),
    _pinned(CorrectionError, "1 fold remains in iteration 6", "lcube_mesh", 7, "hemi", "3ddeq"),
    _pinned(CorrectionError, "2 folds remain in iteration 2", "lcube_mesh", 7, "octant",
            "3ddem"),
    _pinned(CorrectionError, "1 fold remains in iteration 2", "lcube_mesh", 7, "octant",
            "3ddeq"),
])
def test_default_density_run(solid, size, population, method):
    mesh = getattr(synthetic, solid)(size)
    result = RUNNERS[method](mesh, POPULATIONS[population](mesh), SolverConfig())
    assert result.report.final["folds"] == 0


@pytest.mark.xfail(strict=True, raises=CorrectionError,
                   reason="overlap correction budget exhausted with 2 folds left "
                          "in iteration 13")
def test_ball1_octant_3ddeq_alpha10():
    mesh = uniform_ball_mesh(1)
    result = run_3ddeq(mesh, synthetic.octant_population(mesh), SolverConfig(alpha=10.0))
    assert result.report.final["folds"] == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the pullback inverts 3 template tets where the template "
                          "is finer than the graded solid, and the command exits 0")
def test_remesh_graded1_resolution3_writes_no_inverted_tet(tmp_path):
    mesh = synthetic.graded_ellipsoid_mesh(1)
    source = str(tmp_path / "in.mesh")
    fileio.save_mesh(source, mesh.vertices, mesh.tets)
    out = tmp_path / "out"
    code = cli.main(["remesh", "--method", "3ddeq", "--population", "volume",
                     "--resolution", "3", source, str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["final"]["remeshed_folds"] == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the pullback of the 3dqc map inverts 13 template tets "
                          "(demo 05's folds column)")
def test_remesh_graded2_3dqc_resolution3_inverts_no_tet():
    mesh = synthetic.graded_ellipsoid_mesh(2)
    fields = remesh_through(mesh, run_3dqc(mesh).positions, resolution=3)[2]
    assert fields["remeshed_folds"] == 0


_PCG_THREADS = """
import hashlib
import numpy as np
from volball import linsolve
from volball.laplace import laplacian_matrix
from volball.synthetic import cube_mesh
mesh = cube_mesh(29)  # 21 952 interior rows: past OpenBLAS's threaded dot
ids = mesh.boundary_vertices
x = mesh.vertices[ids]
system = laplacian_matrix(mesh)
earlier = []
for k in range(4):  # each solve starts from the last; the last two take a history
    system.constrain(ids, np.sin((k + 1.0) * x) + x[:, ::-1] ** 2)
    earlier.insert(0, linsolve.solve(system, np.zeros((len(mesh.vertices), 3)),
                                     start=earlier[0] if earlier else None,
                                     history=earlier[1:]))
print(hashlib.sha256(earlier[0].tobytes()).hexdigest())
"""


def test_pcg_solve_does_not_depend_on_the_blas_thread_count():
    # four Laplace solves on the PCG path, the last two with a history of the
    # earlier results
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                     if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _PCG_THREADS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 1
    assert outputs[0] == outputs[1]
