"""Meshes and the initial ball map.

Builds a few synthetic solids, shows the mesh validation/query API, and
computes the initial unit-ball parameterization (spherical boundary map plus
harmonic interior) for each of them.
"""

import numpy as np

import volball as vb
from volball.drivers import initial_ball
from volball.synthetic import cube_mesh, ellipsoid_mesh, graded_ellipsoid_mesh
from volball.tetmesh import PointLocator, signed_volumes

# %% A tetrahedral solid is vertices + tets; the boundary surface is derived
# and validated (closed, genus zero) at construction.
ball = vb.uniform_ball_mesh(2)
print(f"unit ball mesh: {len(ball.vertices)} vertices, {len(ball.tets)} tets, "
      f"{len(ball.boundary_faces)} boundary faces")
print(f"volume by summation {ball.volumes.sum():.6f} "
      f"vs divergence theorem {ball.enclosed_volume():.6f} "
      f"vs 4*pi/3 = {4 * np.pi / 3:.6f}")

# %% Point location with barycentric coordinates, a batch of points in one
# call: tet -1 marks a point outside.
probes = np.array([[0.31, -0.12, 0.44], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                   [-0.5, 0.5, 0.1]])
tet_ids, weights = PointLocator(ball.vertices, ball.tets).locate_points(probes)
for probe, tet, w in zip(probes, tet_ids, weights):
    print(f"point {probe} -> tet {tet}, weights {w.round(4)}")

# %% The initial ball map sends the boundary to the unit sphere and fills the
# interior harmonically. For a mesh that is already a ball it is near-identity.
for name, mesh in [("ball", ball),
                   ("cube", cube_mesh(6)),
                   ("ellipsoid", ellipsoid_mesh(2)),
                   ("graded ellipsoid", graded_ellipsoid_mesh(2))]:
    positions = initial_ball(mesh, vb.SolverConfig(), method="3ddem")
    norms = np.linalg.norm(positions[mesh.boundary_vertex_mask], axis=1)
    print(f"{name:18s}: folds={mesh.count_folds(positions)} "
          f"boundary norm error={np.abs(norms - 1).max():.2e} "
          f"volume ratio={signed_volumes(positions, mesh.tets).sum() / (4 * np.pi / 3):.4f}")

# %% Meshes round-trip through Medit and Gmsh files with exact coordinates.
vb.save_mesh("/tmp/volball_demo_ball.mesh", ball.vertices, ball.tets)
again = vb.load_mesh("/tmp/volball_demo_ball.mesh")
print("file round trip exact:", np.array_equal(again.vertices, ball.vertices))
