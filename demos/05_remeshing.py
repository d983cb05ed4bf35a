"""Tetrahedral remeshing through ball parameterizations.

A graded ellipsoid (tiny tets inside, large outside) is parameterized onto the
unit ball with each method; a uniform ball template is then pulled back
through the inverse map. The quasi-conformal map yields the most regular tet
shapes, the density-equalizing map the most uniform tet sizes, and the
balanced map a compromise.
"""

import numpy as np

import volball as vb
from volball.remesh import pullback, quality_metrics, uniform_ball_mesh
from volball.synthetic import graded_ellipsoid_mesh

mesh = graded_ellipsoid_mesh(2)
population = np.abs(mesh.volumes)
q_in = quality_metrics(mesh.tets, mesh.vertices)
print(f"input: graded ellipsoid, {len(mesh.tets)} tets, "
      f"volume spread max/min = {mesh.volumes.max() / mesh.volumes.min():.1f}")
print(f"input quality: delta_size={q_in.delta_size:.2e} "
      f"delta_shape={q_in.delta_shape:.4f}")

template = uniform_ball_mesh(3)
print(f"template: uniform ball, {len(template.tets)} tets")
print()
print("method   delta_size   delta_shape   snapped   folds")
for method in ("3dqc", "3ddem", "3ddeq"):
    result = vb.run_method(method, mesh,
                           None if method == "3dqc" else population)
    positions, snapped = pullback(mesh, result.positions, template)
    q = quality_metrics(template.tets, positions)
    print(f"{method}   {q.delta_size:10.2e}   {q.delta_shape:11.4f}   "
          f"{snapped:7d}   {result.report.final['folds']}")
    vb.save_mesh(f"/tmp/volball_demo_remeshed_{method}.vtk",
                 positions, template.tets)

print()
print("remeshed solids written to /tmp/volball_demo_remeshed_<method>.vtk")
