"""Density-equalizing ball maps.

A unit ball carries a population with a 4:1 jump across the x = 0 plane. The
diffusion-driven flow enlarges the dense half and shrinks the sparse one until
the density is uniform, with the overlap correction keeping every iterate
fold-free.
"""

import numpy as np

import volball as vb
from volball import density as dem
from volball.synthetic import hemispheric_population
from volball.tetmesh import signed_volumes

mesh = vb.uniform_ball_mesh(2)
population = hemispheric_population(mesh, ratio=4.0)

result = vb.run_3ddem(mesh, population)
report = result.report

print(f"{len(mesh.tets)} tets, {len(report.iterations)} iterations, "
      f"converged={result.converged}")
print(f"normalized density variance: {report.final['var_rho0']:.4f} -> "
      f"{report.final['var_rho']:.6f}")
print(f"folds at any iteration: "
      f"{max((it['folds_post'] for it in report.iterations), default=0)}")

print("iteration  var(rho)   mean K   corrections needed")
for it in report.iterations[::10]:
    print(f"{it['iteration']:9d}  {it['var_rho']:.5f}   {it['mean_K']:.3f}   "
          f"{'yes' if it['folds_pre'] else 'no'}")

# %% The dense hemisphere gained volume; the sparse one lost it.
vols = signed_volumes(result.positions, mesh.tets)
centroid_x = mesh.vertices[mesh.tets].mean(axis=1)[:, 0]
dense = vols[centroid_x > 0].sum()
sparse = vols[centroid_x <= 0].sum()
print(f"dense-half volume share: {dense / (dense + sparse):.3f} (target 0.8)")

# %% Volume-preserving mode: population = rest volumes concentrates the
# normalized density at 1.
vp = vb.run_3ddem(mesh, np.abs(mesh.volumes))
field = dem.recouple_density(mesh, vp.positions, np.abs(mesh.volumes))
rho_bar = field.rho_vertex / field.rho_vertex.mean()
print(f"volume-preserving run: {np.mean(np.abs(rho_bar - 1) <= 0.1):.1%} of "
      f"vertices within 10% of density 1")
