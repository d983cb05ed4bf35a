"""In-memory span recorder wrapped around volball's public functions.

The recorder replaces each traced function in every ``volball`` namespace that
binds it (``volball.drivers.frame_decompose`` as well as
``volball.distortion.frame_decompose``), and wraps the traced methods on their
classes. A span is ``[name, start_ns, end_ns, parent_index, attrs]``; spans
stay in a list until the run ends. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = ("linsolve", "laplace", "distortion", "density", "drivers",
          "sphere_map", "tetmesh", "remesh", "fileio", "report")


def _nnz(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _pcg_iters(args, kwargs, result):
    return {"iters": int(result[1])}


def _tets(args, kwargs, result):
    return {"tets": int(result.lambdas.shape[0])}


def _run(args, kwargs, result):
    rows = result.report.iterations
    return {"iterations": sum(1 for r in rows if r["iteration"] >= 1),
            "converged": int(bool(result.converged))}


def _locator_tets(args, kwargs, result):
    return {"tets": len(args[0].tets)}


def _rows(args, kwargs, result):
    return {"rows": len(args[2])}


def _pullback(args, kwargs, result):
    return {"snapped": int(result[1]), "vertices": len(result[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute path, attrs(args, kwargs, result) or None)
TRACED = {
    "linsolve.assemble": ("volball.linsolve", "assemble", _nnz),
    "linsolve.solve": ("volball.linsolve", "solve", None),
    # the only private function wrapped: no public call exposes PCG iterations
    "linsolve.pcg": ("volball.linsolve", "_pcg", _pcg_iters),
    "laplace.laplacian_matrix": ("volball.laplace", "laplacian_matrix", None),
    "laplace.harmonic_fill": ("volball.laplace", "harmonic_fill", None),
    "distortion.jacobian": ("volball.distortion", "jacobian_per_tet", None),
    "distortion.frame_decompose": ("volball.distortion", "frame_decompose", _tets),
    "distortion.reconstruct": ("volball.distortion", "reconstruct_map", None),
    "density.build_operators": ("volball.density", "build_operators", None),
    "density.diffusion_step": ("volball.density", "diffusion_step", None),
    "density.recouple": ("volball.density", "recouple_density", None),
    "drivers.initial_ball": ("volball.drivers", "initial_ball", None),
    "drivers.correction": ("volball.drivers", "correct_overlaps", None),
    "drivers.run_3dqc": ("volball.drivers", "run_3dqc", _run),
    "drivers.run_3ddem": ("volball.drivers", "run_3ddem", _run),
    "drivers.run_3ddeq": ("volball.drivers", "run_3ddeq", _run),
    "sphere_map.boundary_map": ("volball.sphere_map", "compute_boundary_sphere_map", None),
    "sphere_map.center_sphere": ("volball.sphere_map", "center_sphere", None),
    "sphere_map.face_normals_areas": ("volball.sphere_map", "face_normals_areas", None),
    "sphere_map.surface_flow": ("volball.sphere_map", "surface_density_equalize", None),
    "sphere_map.flip_repair": ("volball.sphere_map", "correct_spherical_flips", None),
    "tetmesh.count_folds": ("volball.tetmesh", "TetMesh.count_folds", None),
    "tetmesh.locator_build": ("volball.tetmesh", "PointLocator.__init__", None),
    "tetmesh.locate": ("volball.tetmesh", "PointLocator.locate", _locator_tets),
    "tetmesh.barycentric": ("volball.tetmesh", "barycentric_coordinates", _rows),
    "remesh.template": ("volball.remesh", "uniform_ball_mesh", None),
    "remesh.pullback": ("volball.remesh", "pullback", _pullback),
    "remesh.quality": ("volball.remesh", "quality_metrics", None),
    "fileio.load": ("volball.fileio", "load_mesh", None),
    "fileio.save": ("volball.fileio", "save_mesh", _bytes_written),
    "report.write_json": ("volball.report", "RunReport.write_json", None),
    "report.write_trace_csv": ("volball.report", "RunReport.write_trace_csv", None),
}


class Tracer:
    """Records nested spans; ``install`` wraps the TRACED functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = {"error": 1}
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import volball  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "volball" or n.startswith("volball."))]
        for name, (module_name, path, attrs) in TRACED.items():
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], attrs))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times_ns(spans: list[list], start: int = 0, end: int | None = None) -> list[int]:
    """Duration of each span in ``spans[start:end]`` minus its children's."""
    window = spans[start:end]
    out = [s[2] - s[1] for s in window]
    for s in window:
        if s[3] >= start:
            out[s[3] - start] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], start: int, end: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[start:end]``.

    ``<module>.<call>.s`` is inclusive time of the outermost spans of that
    call; ``<module>.self_s`` is the summed self time of the module's spans.
    """
    calls = defaultdict(int)
    incl = defaultdict(int)
    attr_sum = defaultdict(float)
    layer_self = defaultdict(int)
    errors = defaultdict(int)
    center_iters = 0
    fallbacks = set()  # locate spans with an exhaustive scan among their children
    own = self_times_ns(spans, start, end)
    for i, (name, t0, t1, parent, attrs) in enumerate(spans[start:end]):
        calls[name] += 1
        layer_self[name.split(".")[0]] += own[i]
        ancestor = parent
        while ancestor >= start and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < start:  # outermost span of its name
            incl[name] += t1 - t0
        for key, value in (attrs or {}).items():
            if key == "error":
                errors[name] += 1
            else:
                attr_sum[name, key] += value
        parent_name = spans[parent][0] if parent >= start else None
        if name == "sphere_map.face_normals_areas" and parent_name == "sphere_map.center_sphere":
            center_iters += 1
        elif name == "tetmesh.barycentric" and parent_name == "tetmesh.locate" \
                and attrs.get("rows") == (spans[parent][4] or {}).get("tets"):
            fallbacks.add(parent)

    def sec(ns):
        return ns / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    runs = ("drivers.run_3dqc", "drivers.run_3ddem", "drivers.run_3ddeq")
    iterations = sum(attr_sum[n, "iterations"] for n in runs)
    m = {
        "linsolve.assemble.calls": calls["linsolve.assemble"],
        "linsolve.assemble.s": sec(incl["linsolve.assemble"]),
        "linsolve.assemble.nnz": attr_sum["linsolve.assemble", "nnz"],
        "linsolve.solve.calls": calls["linsolve.solve"],
        "linsolve.solve.s": sec(incl["linsolve.solve"]),
        "linsolve.pcg.iters": attr_sum["linsolve.pcg", "iters"],
        "linsolve.pcg.s": sec(incl["linsolve.pcg"]),
        "laplace.laplacian_matrix.calls": calls["laplace.laplacian_matrix"],
        "laplace.laplacian_matrix.s": sec(incl["laplace.laplacian_matrix"]),
        "laplace.harmonic_fill.s": sec(incl["laplace.harmonic_fill"]),
        "distortion.jacobian.s": sec(incl["distortion.jacobian"]),
        "distortion.frame_decompose.calls": calls["distortion.frame_decompose"],
        "distortion.frame_decompose.tets": attr_sum["distortion.frame_decompose", "tets"],
        "distortion.frame_decompose.s": sec(incl["distortion.frame_decompose"]),
        "distortion.reconstruct.calls": calls["distortion.reconstruct"],
        "distortion.reconstruct.s": sec(incl["distortion.reconstruct"]),
        "density.build_operators.s": sec(incl["density.build_operators"]),
        "density.diffusion_step.s": sec(incl["density.diffusion_step"]),
        "density.recouple.s": sec(incl["density.recouple"]),
        "drivers.initial_ball.s": sec(incl["drivers.initial_ball"]),
        "drivers.iterations": iterations,
        "drivers.converged": sum(attr_sum[n, "converged"] for n in runs),
        "drivers.correction.calls": calls["drivers.correction"],
        "drivers.correction.fire_ratio": ratio(calls["drivers.correction"], iterations),
        "drivers.correction.s": sec(incl["drivers.correction"]),
        "drivers.correction.failures": errors["drivers.correction"],
        "sphere_map.boundary_map.s": sec(incl["sphere_map.boundary_map"]),
        "sphere_map.center_sphere.calls": calls["sphere_map.center_sphere"],
        "sphere_map.center_sphere.iters": center_iters,
        "sphere_map.center_sphere.s": sec(incl["sphere_map.center_sphere"]),
        "sphere_map.surface_flow.s": sec(incl["sphere_map.surface_flow"]),
        "sphere_map.flip_repair.calls": calls["sphere_map.flip_repair"],
        "sphere_map.flip_repair.s": sec(incl["sphere_map.flip_repair"]),
        "tetmesh.count_folds.calls": calls["tetmesh.count_folds"],
        "tetmesh.count_folds.s": sec(incl["tetmesh.count_folds"]),
        "tetmesh.locator_build.s": sec(incl["tetmesh.locator_build"]),
        "tetmesh.locate.calls": calls["tetmesh.locate"],
        "tetmesh.locate.fallback_ratio": ratio(len(fallbacks), calls["tetmesh.locate"]),
        "remesh.template.s": sec(incl["remesh.template"]),
        "remesh.pullback.s": sec(incl["remesh.pullback"]),
        "remesh.snapped": attr_sum["remesh.pullback", "snapped"],
        "remesh.snapped_ratio": ratio(attr_sum["remesh.pullback", "snapped"],
                                      attr_sum["remesh.pullback", "vertices"]),
        "remesh.quality.s": sec(incl["remesh.quality"]),
        "fileio.load.s": sec(incl["fileio.load"]),
        "fileio.save.s": sec(incl["fileio.save"]),
        "fileio.bytes_written": attr_sum["fileio.save", "bytes"],
        "report.write.s": sec(incl["report.write_json"] + incl["report.write_trace_csv"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sec(layer_self[layer])
    return m
