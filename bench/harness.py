"""One benchmark run: set-up, timed operations for a fixed time, checks, metrics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from reference import NOMINAL_S, Reference
from spans import LAYERS, Tracer, layer_metrics
import workloads

# Set-up is repeated at least this often, and until this much time is spent,
# so that setup_s is a median even where one set-up takes milliseconds.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 100
SETUP_MIN_SECONDS = 2.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def report_key(src: Path, machine: dict) -> str:
    """Digest of the volball sources, the workload definitions and the machine
    record (thread cap, library versions), so that stored reports follow
    changes to any of them: each can change the reduction order and so the
    report bytes."""
    h = hashlib.sha256(json.dumps(machine, sort_keys=True).encode())
    for path in sorted((src / "volball").glob("*.py")) + [Path(workloads.__file__)]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ReportStore:
    """Digest of the first report of each (workload, seed, source) in a file."""

    def __init__(self, path: Path, key_prefix: str):
        self.path = path
        self.prefix = key_prefix
        try:
            self.digests = json.loads(path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def matches(self, workload: str, seed: int, report: bytes) -> bool:
        """Whether ``report`` equals the first one stored for its key (storing
        it if it is the first)."""
        key = f"{self.prefix}:{workload}:{seed}"
        digest = hashlib.sha256(report).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        return self.digests[key] == digest


def machine_record(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _setup(workload, seed: int, workdir: Path):
    """Repeated set-up; returns (last state, set-up times)."""
    times = []
    while True:
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_MAX_REPS or (
                len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_MIN_SECONDS):
            return state, times


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            store: ReportStore):
    """Run one workload; returns (attempted, failed, metrics by name).

    Operations repeat until ``seconds`` have passed (at least one). With
    ``trace`` one untraced operation runs first, for the tracing overhead, and
    the metrics are the per-layer ones; otherwise they are the end-to-end ones,
    and the reference computation is timed before the first operation and
    after each one, to scale the operation times to the host's speed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    attempted, failed = 1, 0
    try:
        problem = workloads.init_positions_problem(seed)
    except Exception as exc:
        problem = f"equivalence check raised {exc!r}"
    if problem:
        _log(f"[{workload.name}] FAIL {problem}")
        failed += 1

    tracer = Tracer()
    if trace:
        tracer.install()
    state, setup_times = _setup(workload, seed, workdir)
    setup_layers = layer_metrics(tracer.spans, 0, len(tracer.spans))

    walls = {False: [], True: []}
    qualities, layers = [], []
    first_report = None

    def operation(traced: bool) -> None:
        nonlocal attempted, failed, first_report
        attempted += 1
        i0 = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            outcome = workload.run(state, workdir)
        except Exception as exc:  # a raising operation counts as failed
            _log(f"[{workload.name}] FAIL operation raised {exc!r}")
            failed += 1
            outcome = None
        walls[traced].append(time.perf_counter() - t0)
        if traced:  # a failed operation's spans too, so that error marks count
            layers.append(layer_metrics(tracer.spans, i0, len(tracer.spans)))
        if outcome is None:
            return
        if first_report is None:
            first_report = outcome.report_bytes
            if not store.matches(workload.name, seed, first_report):
                _log(f"[{workload.name}] FAIL report differs from an earlier "
                     "invocation with this seed")
                failed += 1
        problems = workloads.check(workload, outcome, first_report)
        if problems:
            _log(f"[{workload.name}] FAIL " + "; ".join(problems))
            failed += 1
        qualities.append(workloads.quality(outcome))
        _log(f"[{workload.name}] seed={seed} {'traced ' if traced else ''}"
             f"operation {walls[traced][-1]:.3f}s {'FAILED' if problems else 'ok'}")

    reference = None if trace else Reference()
    refs = []
    start = time.perf_counter()
    if trace:
        tracer.uninstall()
        operation(False)
        tracer.install()
    else:
        refs.append(reference.seconds())
    while True:
        operation(trace)
        if reference is not None:
            refs.append(reference.seconds())
        if time.perf_counter() - start >= seconds:
            break
    tracer.uninstall()

    if not trace:
        if not qualities:
            raise RuntimeError("no operation completed; nothing to report")
        # each operation against the mean of the reference times around it
        metrics = {"wall_norm_s": statistics.median(
                       wall * NOMINAL_S * 2 / (before + after)
                       for wall, before, after in zip(walls[False], refs, refs[1:])),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics.update(_median_dict(qualities))
        return attempted, failed, metrics
    metrics = _median_dict(layers)
    for layer in LAYERS:  # per set-up, not summed over the repetitions
        metrics[f"setup.{layer}.self_s"] = setup_layers[f"{layer}.self_s"] / len(setup_times)
    metrics["trace.wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
    metrics["trace.spans"] = len(tracer.spans)
    with open(workdir / f"spans-{workload.name}-{seed}.json", "w") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    return attempted, failed, metrics
