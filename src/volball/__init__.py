"""Volumetric parameterization of simply-connected tetrahedral solids onto the
unit ball, with quasi-conformal, density-equalizing, and balanced variants."""

from .distortion import (TetFrameField, frame_decompose, reconstruct_map, residual_step,
                         truncate_eigenvalues)
from .drivers import (CorrectionError, RunResult, SolverConfig, initial_ball, run_3ddem,
                      run_3ddeq, run_3dqc, run_method)
from .fileio import load_mesh, save_mesh
from .laplace import harmonic_fill
from .remesh import pullback, quality_metrics, remesh_through, uniform_ball_mesh
from .report import RunReport
from .sphere_map import compute_boundary_sphere_map
from .tetmesh import DegenerateTetError, MeshError, TetMesh, TopologyError

__version__ = "0.1.0"

__all__ = [
    "CorrectionError", "DegenerateTetError", "MeshError", "RunReport", "RunResult",
    "SolverConfig", "TetMesh", "TopologyError", "compute_boundary_sphere_map",
    "initial_ball", "load_mesh", "pullback", "quality_metrics", "remesh_through",
    "run_3ddem", "run_3ddeq", "run_3dqc", "run_method", "save_mesh", "uniform_ball_mesh",
    # kernels the acceptance suite reaches through the package
    "TetFrameField", "frame_decompose", "harmonic_fill", "reconstruct_map",
    "residual_step", "truncate_eigenvalues",
]
