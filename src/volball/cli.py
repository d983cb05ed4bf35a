"""Command-line front end: init-ball, param, remesh, metrics, convert."""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _add_config_flags(p):
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--kt", type=float, default=10.0, help="anisotropy ratio cap")
    p.add_argument("--c-residual", type=float, default=50.0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--boundary", choices=("conformal", "dem"), default=None)
    p.add_argument("--no-correction", action="store_true",
                   help="disable the overlap correction scheme (diagnostics)")


def _config_from(args) -> SolverConfig:
    try:
        return SolverConfig(dt=args.dt, eps=args.eps, n_max=args.max_iter,
                            k_threshold=args.kt, residual_constant=args.c_residual,
                            alpha=args.alpha,
                            boundary_mode=args.boundary or "auto",
                            correction=not args.no_correction)
    except ValueError as exc:
        raise CliError(str(exc)) from None


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

    p = sub.add_parser("init-ball", help="initial ball map only")
    p.add_argument("input")
    p.add_argument("outdir")
    _add_config_flags(p)

    p = sub.add_parser("param", help="run a parameterization method")
    p.add_argument("input")
    p.add_argument("outdir")
    p.add_argument("--method", choices=drivers.METHODS, required=True)
    p.add_argument("--population", default=None,
                   help="uniform | volume | file:PATH (required for 3ddem/3ddeq)")
    p.add_argument("--report", default=None, help="report JSON path override")
    p.add_argument("--trace", default=None, help="trace CSV path override")
    p.add_argument("--histogram", default=None,
                   help="write a 50-bin density histogram CSV here")
    _add_config_flags(p)

    p = sub.add_parser("remesh", help="parameterize, build a uniform ball "
                                      "template, and pull it back")
    p.add_argument("input")
    p.add_argument("outdir")
    p.add_argument("--method", choices=drivers.METHODS, required=True)
    p.add_argument("--population", default=None)
    p.add_argument("--resolution", type=int, default=3)
    p.add_argument("--report", default=None)
    p.add_argument("--trace", default=None)
    _add_config_flags(p)

    p = sub.add_parser("metrics", help="distortion and quality metrics")
    p.add_argument("mesh", help="rest mesh")
    p.add_argument("--mapped", default=None,
                   help="deformed mesh sharing the rest connectivity")
    p.add_argument("--report", default=None)

    p = sub.add_parser("convert", help="convert between mesh formats")
    p.add_argument("input")
    p.add_argument("output")
    return parser


def _write_result(outdir, mesh, result, report_path, trace_path, in_fmt):
    os.makedirs(outdir, exist_ok=True)
    out_mesh = os.path.join(outdir, "result.mesh" if in_fmt == "medit" else "result.msh")
    fileio.save_mesh(out_mesh, result.positions, mesh.tets, fmt=in_fmt)
    result.report.write_json(report_path or os.path.join(outdir, "report.json"))
    result.report.write_trace_csv(trace_path or os.path.join(outdir, "trace.csv"))
    return out_mesh


def _cmd_init_ball(args) -> int:
    mesh = fileio.load_mesh(args.input)
    config = _config_from(args)
    positions = drivers.initial_ball(mesh, config, method="3dqc")
    os.makedirs(args.outdir, exist_ok=True)
    fmt = fileio.format_from_path(args.input)
    out = os.path.join(args.outdir, "ball.mesh" if fmt == "medit" else "ball.msh")
    fileio.save_mesh(out, positions, mesh.tets, fmt=fmt)
    print(out)
    return 0


def _cmd_param(args) -> int:
    mesh = fileio.load_mesh(args.input)
    config = _config_from(args)
    population = None
    if args.method in ("3ddem", "3ddeq"):
        if args.population is None:
            raise CliError(f"--population is required for {args.method}")
        population = _population_from(args.population, mesh)
    result = drivers.run_method(args.method, mesh, population, config)
    in_fmt = fileio.format_from_path(args.input)
    _write_result(args.outdir, mesh, result, args.report, args.trace, in_fmt)
    if args.histogram:
        field = recouple_density(
            mesh, result.positions,
            population if population is not None else np.abs(mesh.volumes))
        rho = field.rho_vertex
        write_histogram_csv(args.histogram, rho / np.mean(rho))
    return 0 if result.converged else 2


def _cmd_remesh(args) -> int:
    if args.resolution < 1:
        raise CliError(f"--resolution must be at least 1, got {args.resolution}")
    mesh = fileio.load_mesh(args.input)
    config = _config_from(args)
    population = None
    if args.method in ("3ddem", "3ddeq"):
        population = _population_from(args.population or "volume", mesh)
    result = drivers.run_method(args.method, mesh, population, config)
    template = remesh.uniform_ball_mesh(args.resolution)
    positions, snapped = remesh.pullback(mesh, result.positions, template)
    quality = remesh.quality_metrics(template.tets, positions)
    result.report.final["delta_size"] = quality.delta_size
    result.report.final["delta_shape"] = quality.delta_shape
    result.report.final["snapped_template_vertices"] = snapped
    # quality_metrics scores |volume|, so an inverted output tet shows only here
    result.report.final["remeshed_folds"] = template.count_folds(positions)

    os.makedirs(args.outdir, exist_ok=True)
    in_fmt = fileio.format_from_path(args.input)
    ext = "mesh" if in_fmt == "medit" else "msh"
    fileio.save_mesh(os.path.join(args.outdir, f"remeshed.{ext}"),
                     positions, template.tets, fmt=in_fmt)
    fileio.save_mesh(os.path.join(args.outdir, "remeshed.vtk"),
                     positions, template.tets, fmt="vtk")
    result.report.write_json(args.report or os.path.join(args.outdir, "report.json"))
    result.report.write_trace_csv(args.trace or os.path.join(args.outdir, "trace.csv"))
    return 0 if result.converged else 2


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
        pop = np.abs(mesh.volumes)
        # the volume population has rest density 1 everywhere
        out.update({"mean_K": mean_k, "sd_K": sd_k, "folds": int(folds), "var_rho0": 0.0})
        if folds == 0:
            rho = recouple_density(mesh, positions, pop).rho_vertex
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
    in_fmt = fileio.format_from_path(args.input)
    if in_fmt == "vtk":
        raise CliError("VTK is an output-only format")
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
