"""Runs that return no map at present, pinned as strict expected failures.

Each case asserts what a working run would give. The marker names the error
the run raises today (see the FOUND lines in CHANGES.md), so a change that
makes one pass has to flip its marker, and one that makes it fail in another
way shows as a failure. Never shrink a solid or change a population here.
"""

import pytest

from volball.distortion import FrameError
from volball.drivers import (CorrectionError, SolverConfig, initial_ball, run_3ddem,
                             run_3dqc)
from volball.sphere_map import SphereMapError
from volball.synthetic import cube_mesh, hemispheric_population, lcube_mesh


@pytest.mark.xfail(strict=True, raises=SphereMapError,
                   reason="the surface density flow flips triangles that the "
                          "spherical overlap repair cannot remove")
@pytest.mark.parametrize("n", [4, 6])
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
                   reason="overlap correction budget exhausted with 2 folds "
                          "left in iteration 86")
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
