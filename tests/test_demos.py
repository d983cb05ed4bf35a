"""The demos run end to end, so an API change that breaks one fails here.

Demo 04 (a 100-iteration balanced run, about 20 s) is left out to keep the
suite short; the other four take about 18 s together on a 2-core host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_mesh_and_initial_ball", "02_quasi_conformal_map",
         "03_density_equalizing_map", "05_remeshing"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
