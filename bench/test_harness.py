"""Self-test of the benchmark harness on small inputs (about a minute).

    python3 -m pytest bench/test_harness.py -q

Runs every workload at ``uniform_ball_mesh(1)`` size, untraced and traced,
and checks that the metric names match BENCHMARK.json exactly and that no
span has a negative self time; checks that an overlap correction that gives
up is counted in ``drivers.correction.failures``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volball.drivers as drivers

import harness
import workloads
from spans import self_times_ns

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "dem_hemisphere": lambda: workloads.DemHemisphere(resolution=1),
    "qc_stretched_20k": lambda: workloads.QcStretched(resolution=1),
    "remesh_graded_cli": lambda: workloads.RemeshGradedCli(resolution=1,
                                                           template_resolution=1),
}


def test_workloads_match_spec():
    assert sorted(SMALL) == sorted(workloads.WORKLOADS) == \
        sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_harness_small(tmp_path, name, trace):
    store = harness.ReportStore(tmp_path / "reports.json", "selftest")
    workload = SMALL[name]()
    attempted, failed, metrics = harness.measure(
        workload, 1, 0.0, bool(trace), tmp_path / name, store)
    assert failed == 0 and attempted >= 2
    listed = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(metrics) == listed
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    if trace:
        spans = json.loads((tmp_path / name / f"spans-{name}-1.json").read_text())
        assert spans and min(self_times_ns(spans)) >= 0
    else:
        assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])


class FailingOnce(workloads.DemHemisphere):
    """Small dem_hemisphere whose second operation, the first traced one in a
    traced run, ends in an overlap correction that gives up."""

    calls = 0

    def run(self, state, workdir):
        self.calls += 1
        if self.calls == 2:
            mesh, _, ball = state
            mirrored = ball * np.array([-1.0, 1.0, 1.0])  # every tet inverted
            drivers.correct_overlaps(mesh, mirrored, budget=0)
        return super().run(state, workdir)


def test_failed_correction_is_counted(tmp_path):
    store = harness.ReportStore(tmp_path / "reports.json", "selftest")
    attempted, failed, metrics = harness.measure(
        FailingOnce(resolution=1), 1, 0.0, True, tmp_path / "failing", store)
    assert (attempted, failed) == (3, 1)
    assert metrics["drivers.correction.failures"] == 1


def test_exits_nonzero_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dem_hemisphere",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
