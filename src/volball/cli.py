"""Command-line front end: init-ball, param, remesh, metrics, convert."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import drivers, fileio, remesh
from .density import DensityError, recouple_density
from .distortion import FrameError, dilations, jacobian_per_tet
from .drivers import SolverConfig, k_stats, normalized_density_variance
from .linsolve import SolverError
from .report import write_histogram_csv
from .tetmesh import MeshError, TetMesh


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise CliError(message)


# solver flag -> the SolverConfig field whose default and type it takes
_CONFIG_FLAGS = {"--dt": "dt", "--eps": "eps", "--max-iter": "n_max", "--kt": "k_threshold",
                 "--c-residual": "residual_constant", "--alpha": "alpha"}


def _add_config_flags(p):
    defaults = SolverConfig()
    for flag, field in _CONFIG_FLAGS.items():
        value = getattr(defaults, field)
        p.add_argument(flag, dest=field, type=type(value), default=value)
    p.add_argument("--boundary", dest="boundary_mode", choices=("conformal", "dem"),
                   default=defaults.boundary_mode)
    p.add_argument("--no-correction", dest="correction", action="store_false",
                   default=defaults.correction,
                   help="disable the overlap correction scheme (diagnostics)")


def _load(args):
    """The input mesh, the solver config and a density method's population.
    A given ``--population`` source is read for every method, so 3dqc too
    refuses a bad one."""
    mesh = fileio.load_mesh(args.input)
    try:
        config = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    except ValueError as exc:
        raise CliError(str(exc)) from None
    population = None if args.population is None else _population_from(args.population, mesh)
    if not drivers.METHODS[args.method].density:
        return mesh, config, None
    if population is None:
        raise CliError(f"--population is required for {args.method}")
    return mesh, config, population


def _population_from(source: str, mesh: TetMesh) -> np.ndarray:
    if source == "uniform":
        return np.ones(len(mesh.tets))
    if source == "volume":
        return np.abs(mesh.volumes).copy()
    if source.startswith("file:"):
        return fileio.read_population_csv(source[5:], len(mesh.tets))
    raise CliError(f"unknown population source {source!r} "
                   "(expected uniform, volume, or file:PATH)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="volball",
                     description="Volumetric parameterization of tetrahedral "
                                 "solids onto the unit ball")
    sub = parser.add_subparsers(dest="command", required=True)
    solver = argparse.ArgumentParser(add_help=False)  # what the three runs share
    solver.add_argument("input")
    solver.add_argument("outdir")
    _add_config_flags(solver)

    sub.add_parser("init-ball", parents=[solver],
                   help="initial ball map only").set_defaults(method="3dqc", population=None)

    run = argparse.ArgumentParser(add_help=False, parents=[solver])
    run.add_argument("--method", choices=drivers.METHODS, required=True)
    run.add_argument("--report", default=None, help="report JSON path override")
    run.add_argument("--trace", default=None, help="trace CSV path override")

    p = sub.add_parser("param", parents=[run], help="run a parameterization method")
    p.add_argument("--population", default=None,
                   help="uniform | volume | file:PATH (required for 3ddem/3ddeq)")
    p.add_argument("--histogram", default=None,
                   help="write a 50-bin density histogram CSV here")

    p = sub.add_parser("remesh", parents=[run], help="parameterize, build a uniform "
                                                     "ball template, and pull it back")
    p.add_argument("--population", default="volume")
    p.add_argument("--resolution", type=int, default=3)

    p = sub.add_parser("metrics", help="distortion and quality metrics")
    p.add_argument("mesh", help="rest mesh")
    p.add_argument("--mapped", default=None,
                   help="deformed mesh sharing the rest connectivity")
    p.add_argument("--report", default=None)

    p = sub.add_parser("convert", help="convert between mesh formats")
    p.add_argument("input")
    p.add_argument("output")
    return parser


def _output(args, stem: str) -> str:
    """``outdir/stem`` with the input's lowercased extension; makes ``outdir``."""
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, stem + os.path.splitext(args.input)[1].lower())


def _finish(args, result) -> int:
    """Write the run's report and trace; exit 0 if it converged, else 2."""
    result.report.write_json(args.report or os.path.join(args.outdir, "report.json"))
    result.report.write_trace_csv(args.trace or os.path.join(args.outdir, "trace.csv"))
    return 0 if result.converged else 2


def _cmd_init_ball(args) -> int:
    mesh, config, _ = _load(args)
    positions = drivers.initial_ball(mesh, config, args.method)
    out = _output(args, "ball")
    fileio.save_mesh(out, positions, mesh.tets)
    print(out)
    return 0


def _cmd_param(args) -> int:
    mesh, config, population = _load(args)
    result = drivers.run_method(args.method, mesh, population, config)
    fileio.save_mesh(_output(args, "result"), result.positions, mesh.tets)
    code = _finish(args, result)
    if args.histogram:
        rest = np.abs(mesh.volumes) if population is None else population
        rho = recouple_density(mesh, result.positions, rest).rho_vertex
        write_histogram_csv(args.histogram, rho / np.mean(rho))
    return code


def _cmd_remesh(args) -> int:
    if args.resolution < 1:
        raise CliError(f"--resolution must be at least 1, got {args.resolution}")
    mesh, config, population = _load(args)
    result = drivers.run_method(args.method, mesh, population, config)
    template = remesh.uniform_ball_mesh(args.resolution)
    positions, snapped = remesh.pullback(mesh, result.positions, template)
    quality = remesh.quality_metrics(template.tets, positions)
    result.report.final["delta_size"] = quality.delta_size
    result.report.final["delta_shape"] = quality.delta_shape
    result.report.final["snapped_template_vertices"] = snapped
    # quality_metrics scores |volume|, so an inverted output tet shows only here
    result.report.final["remeshed_folds"] = template.count_folds(positions)
    fileio.save_mesh_with_vtk(_output(args, "remeshed"),
                              os.path.join(args.outdir, "remeshed.vtk"),
                              positions, template.tets)
    return _finish(args, result)


def _cmd_metrics(args) -> int:
    mesh = fileio.load_mesh(args.mesh)
    quality = remesh.quality_metrics(mesh.tets, mesh.vertices)
    out = {"delta_size": quality.delta_size, "delta_shape": quality.delta_shape}
    if args.mapped:
        mapped = fileio.load_mesh(args.mapped)
        if mapped.tets.shape != mesh.tets.shape or len(mapped.vertices) != len(mesh.vertices):
            raise CliError("rest and mapped meshes have mismatched connectivity")
        positions = mapped.vertices
        folds = mesh.count_folds(positions)
        mean_k, sd_k = k_stats(dilations(jacobian_per_tet(mesh, positions)))
        # the volume population has rest density 1 everywhere
        out.update({"mean_K": mean_k, "sd_K": sd_k, "folds": int(folds), "var_rho0": 0.0})
        if folds == 0:
            rho = recouple_density(mesh, positions, np.abs(mesh.volumes)).rho_vertex
            out["var_rho"] = normalized_density_variance(rho)
        else:
            out["var_rho"] = None
    else:
        out.update({"mean_K": 1.0, "sd_K": 0.0, "folds": 0,
                    "var_rho0": 0.0, "var_rho": 0.0})
    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_convert(args) -> int:
    mesh = fileio.load_mesh(args.input)
    fileio.save_mesh(args.output, mesh.vertices, mesh.tets)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"init-ball": _cmd_init_ball, "param": _cmd_param,
                   "remesh": _cmd_remesh, "metrics": _cmd_metrics,
                   "convert": _cmd_convert}[args.command]
        return handler(args)
    except (CliError, MeshError, drivers.CorrectionError, DensityError, FrameError,
            SolverError, OSError) as exc:
        print(f"volball: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
