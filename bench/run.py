"""volball benchmark: one workload, run for a fixed time, metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload dem_hemisphere --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it records the machine. Progress goes to
standard error; scratch files go to ``.bench_build/volball``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_thread_cap() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "volball" / "__init__.py").is_file():
        print(f"volball sources not found under {src}", file=sys.stderr)
        return 2
    threads = blas_thread_cap()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import harness
    from workloads import WORKLOADS

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = ROOT / ".bench_build" / "volball"
    workdir.mkdir(parents=True, exist_ok=True)
    machine = harness.machine_record(threads)
    store = harness.ReportStore(workdir / "reports.json", harness.report_key(src, machine))
    attempted, failed, metrics = harness.measure(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
        workdir / args.workload, store)
    if set(metrics) != set(units):
        print(f"emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
