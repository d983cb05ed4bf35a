"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Every call into volball goes through a module attribute (``drivers.run_3ddem``
and so on), so the span recorder's wrappers see it.

The seed relabels the input solid: seed 0 is the acceptance suite's mesh as
generated, seed s > 0 applies a seeded random permutation to its vertex and
tet numbering. A relabelled solid is the same geometric problem, so every seed
does the same work and reaches the same quality up to rounding; rotating the
density axis or stretch instead moves the run time by up to 23% and var_rho
by up to 2.5x between seeds, which no regression bound can absorb.

Each timed operation takes 2-6 s on a 2-core x86_64 host, so that a run
holds several of them and reports their median: the host is shared and its
speed drifts by up to a third within a minute, which a run of one 15 s
operation cannot average out. The density and quasi-conformal solves are
therefore capped at a fixed number of iterations (the per-iteration work is
what they exercise), and the remesh reads the smaller graded solid.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import volball.cli as cli
import volball.drivers as drivers
import volball.fileio as fileio
import volball.remesh as remesh
import volball.synthetic as synthetic
from volball.tetmesh import TetMesh, signed_volumes

BOUNDARY_TOL = 1e-12
VAR_RHO_TARGET = 1e-2


def relabel(mesh: TetMesh, seed: int) -> TetMesh:
    """The same solid with seeded vertex and tet numbering (seed 0: as is)."""
    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(mesh.vertices))  # new vertex i is old order[i]
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    tets = new_id[mesh.tets][rng.permutation(len(mesh.tets))]
    return TetMesh.from_arrays(mesh.vertices[order], tets)


@dataclass
class Outcome:
    """What one timed operation produced, for the checks."""

    mesh: TetMesh            # the solid the map starts from
    positions: np.ndarray    # the ball map of mesh.vertices
    report_bytes: bytes

    @property
    def report(self) -> dict:
        return json.loads(self.report_bytes)


class DemHemisphere:
    """3ddem population sweep over one solid, 20 iterations; the initial ball
    (default configuration) is set-up."""

    name = "dem_hemisphere"
    density = True
    config = drivers.SolverConfig(n_max=20)

    def __init__(self, resolution: int = 2):
        self.resolution = resolution

    def setup(self, seed: int, workdir: Path):
        mesh = relabel(remesh.uniform_ball_mesh(self.resolution), seed)
        population = synthetic.hemispheric_population(mesh, 4.0)
        ball = drivers.initial_ball(mesh, drivers.SolverConfig(), "3ddem")
        return mesh, population, ball

    def run(self, state, workdir: Path) -> Outcome:
        mesh, population, ball = state
        result = drivers.run_3ddem(mesh, population, self.config, init_positions=ball)
        return Outcome(mesh, result.positions, result.report.to_json().encode())


class QcStretched:
    """3dqc on a stretched ball, conformal initial ball included, 8 iterations.

    The cap does not change the conformal initial ball: its boundary flow
    settles in fewer iterations.
    """

    name = "qc_stretched_20k"
    density = False
    config = drivers.SolverConfig(n_max=8)

    def __init__(self, resolution: int = 3):
        self.resolution = resolution

    def setup(self, seed: int, workdir: Path):
        return relabel(synthetic.stretched_ball_mesh(self.resolution), seed)

    def run(self, mesh, workdir: Path) -> Outcome:
        result = drivers.run_3dqc(mesh, self.config)
        return Outcome(mesh, result.positions, result.report.to_json().encode())


class RemeshGradedCli:
    """``volball remesh --method 3ddeq`` from a Medit file to .mesh and .vtk."""

    name = "remesh_graded_cli"
    density = True

    def __init__(self, resolution: int = 1, template_resolution: int = 2):
        self.resolution = resolution
        self.template_resolution = template_resolution

    def setup(self, seed: int, workdir: Path):
        mesh = relabel(synthetic.graded_ellipsoid_mesh(self.resolution), seed)
        path = workdir / "in.mesh"
        fileio.save_mesh(str(path), mesh.vertices, mesh.tets)
        return path

    def run(self, path: Path, workdir: Path) -> Outcome:
        outdir = workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        runs = []
        run_method = drivers.run_method

        def capture(*args, **kwargs):
            result = run_method(*args, **kwargs)
            runs.append((args[1], result))
            return result

        # the CLI keeps the ball map to itself; capture it for the checks
        drivers.run_method = capture
        try:
            code = cli.main(["remesh", "--method", "3ddeq", "--population", "volume",
                             "--resolution", str(self.template_resolution),
                             str(path), str(outdir)])
        finally:
            drivers.run_method = run_method
        if code not in (0, 2):
            raise RuntimeError(f"volball remesh exited {code}")
        for name in ("remeshed.mesh", "remeshed.vtk", "trace.csv"):
            if not (outdir / name).is_file():
                raise RuntimeError(f"volball remesh wrote no {name}")
        mesh, result = runs[0]
        return Outcome(mesh, result.positions, (outdir / "report.json").read_bytes())


WORKLOADS = {w.name: w for w in (DemHemisphere, QcStretched, RemeshGradedCli)}


def check(workload, outcome: Outcome, first_report: bytes | None) -> list[str]:
    """Problems with one operation's outputs (an empty list means it passed)."""
    problems = []
    mesh, pos = outcome.mesh, outcome.positions
    folds = int(np.count_nonzero(signed_volumes(pos, mesh.tets) <= 0.0))
    if folds:
        problems.append(f"map has {folds} folded tets")
    norms = np.linalg.norm(pos[mesh.boundary_vertices], axis=1)
    off = float(np.max(np.abs(norms - 1.0)))
    if off > BOUNDARY_TOL:
        problems.append(f"boundary vertex norm off the unit sphere by {off:.3e}")
    if first_report is not None and outcome.report_bytes != first_report:
        problems.append("report differs from the first run of this workload and seed")
    report = outcome.report
    final = report["final"]
    if workload.density:
        if not final["var_rho"] < VAR_RHO_TARGET:
            problems.append(f"var_rho {final['var_rho']} misses {VAR_RHO_TARGET}")
    else:
        energies = [row["E_3DQC"] for row in report["iterations"]]
        if any(b > a for a, b in zip(energies, energies[1:])):
            problems.append("E_3DQC rose between iterations")
        if not final["mean_K"] < report["iterations"][0]["mean_K"]:
            problems.append("mean_K did not drop below its iteration-0 value")
    return problems


def quality(outcome: Outcome) -> dict[str, float]:
    """Quality metrics of one operation.

    delta_size and delta_shape are the remeshed template's scores where the
    run remeshes, and the ball map's own tet scores elsewhere.
    """
    final = outcome.report["final"]
    if "delta_size" in final:
        delta_size, delta_shape = final["delta_size"], final["delta_shape"]
    else:
        q = remesh.quality_metrics(outcome.mesh.tets, outcome.positions)
        delta_size, delta_shape = q.delta_size, q.delta_shape
    return {"var_rho": final["var_rho"], "mean_K": final["mean_K"],
            "delta_size": delta_size, "delta_shape": delta_shape}


def init_positions_problem(seed: int) -> str | None:
    """3ddem from a precomputed initial ball must match a plain run byte for byte.

    Checked on a small ball with a short iteration budget: the property does
    not depend on size, and a full-size check would double a run's time.
    """
    mesh = relabel(remesh.uniform_ball_mesh(1), seed)
    population = synthetic.hemispheric_population(mesh, 4.0)
    config = drivers.SolverConfig(n_max=20)
    ball = drivers.initial_ball(mesh, config, "3ddem")
    given = drivers.run_3ddem(mesh, population, config, init_positions=ball)
    plain = drivers.run_3ddem(mesh, population, config)
    if given.report.to_json() != plain.report.to_json():
        return "3ddem with init_positions differs from the plain run"
    return None
