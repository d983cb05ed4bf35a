"""Tetrahedral remeshing through ball parameterizations.

A graded ellipsoid (tiny tets inside, large outside) is parameterized onto the
unit ball with each method; a uniform ball template is then pulled back
through the inverse map. The quasi-conformal map gives the more regular tet
shapes (lower delta_shape), the density-equalizing maps the more uniform tet
sizes (lower delta_size). With the volume population the two density maps
print the same scores here: 3ddem's initial ball already meets its eps, and
3ddeq stops after one step that moves no vertex by more than about 1e-3, so
this solid shows no trade-off between them. The folds column counts the
remeshed tets that the pullback leaves inverted; the 13 of the 3dqc map are
a known failure (tests/test_known_failures.py).
"""

import numpy as np

import volball as vb
from volball.synthetic import graded_ellipsoid_mesh

mesh = graded_ellipsoid_mesh(2)
population = np.abs(mesh.volumes)
q_in = vb.quality_metrics(mesh.tets, mesh.vertices)
print(f"input: graded ellipsoid, {len(mesh.tets)} tets, "
      f"volume spread max/min = {mesh.volumes.max() / mesh.volumes.min():.1f}")
print(f"input quality: delta_size={q_in.delta_size:.2e} "
      f"delta_shape={q_in.delta_shape:.4f}")
print()
print("method   delta_size   delta_shape   snapped   folds")
for method in ("3dqc", "3ddem", "3ddeq"):
    result = vb.run_method(method, mesh,
                           None if method == "3dqc" else population)
    template, positions, f = vb.remesh_through(mesh, result.positions, resolution=3)
    print(f"{method}   {f['delta_size']:10.2e}   {f['delta_shape']:11.4f}   "
          f"{f['snapped_template_vertices']:7d}   {f['remeshed_folds']}")
    vb.save_mesh(f"/tmp/volball_demo_remeshed_{method}.vtk", positions, template.tets)

print()
print("remeshed solids written to /tmp/volball_demo_remeshed_<method>.vtk")
