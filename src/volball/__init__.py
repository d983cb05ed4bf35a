"""Volumetric parameterization of simply-connected tetrahedral solids onto the
unit ball, with quasi-conformal, density-equalizing, and balanced variants."""

from .density import (DensityField, DiffusionOperators, build_operators,
                      density_gradient, diffusion_step, recouple_density,
                      velocity_field)
from .distortion import (TetFrameField, flip_eigenvalues, frame_decompose,
                         jacobian_per_tet, reconstruct_map, residual_step,
                         truncate_eigenvalues)
from .drivers import (CorrectionError, RunResult, SolverConfig, compute_energies,
                      correct_overlaps, initial_ball, run_3ddem, run_3ddeq,
                      run_3dqc, run_method)
from .fileio import load_mesh, save_mesh
from .laplace import harmonic_fill
from .remesh import RemeshQuality, pullback, quality_metrics, uniform_ball_mesh
from .report import RunReport, write_histogram_csv
from .sphere_map import BoundaryMap, compute_boundary_sphere_map
from .tetmesh import DegenerateTetError, MeshError, TetMesh, TopologyError, signed_volumes

__version__ = "0.1.0"

__all__ = [
    "BoundaryMap", "CorrectionError", "DegenerateTetError", "DensityField",
    "DiffusionOperators", "MeshError",
    "RemeshQuality", "RunReport", "RunResult", "SolverConfig", "TetFrameField",
    "TetMesh", "TopologyError", "build_operators",
    "compute_boundary_sphere_map", "compute_energies", "correct_overlaps",
    "density_gradient", "diffusion_step", "flip_eigenvalues",
    "frame_decompose", "harmonic_fill", "initial_ball", "jacobian_per_tet",
    "load_mesh", "pullback",
    "quality_metrics", "reconstruct_map", "recouple_density", "residual_step",
    "run_3ddem", "run_3ddeq", "run_3dqc", "run_method", "save_mesh",
    "signed_volumes", "truncate_eigenvalues",
    "uniform_ball_mesh", "velocity_field", "write_histogram_csv",
]
