"""Run reports: per-iteration traces, summary JSON, and histogram export.

Serialization is deterministic (sorted keys, repr-based floats) so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TRACE_COLUMNS = ("iteration", "E_3DQC", "E_3DDEM", "E_3DDEQ", "var_rho",
                 "mean_K", "sd_K", "folds_pre", "folds_post", "displacement")
HISTOGRAM_BINS = 50


def _py(value):
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass
class RunReport:
    """Per-iteration statistics and final summary of a parameterization run."""

    method: str
    config: dict
    iterations: list = field(default_factory=list)
    final: dict = field(default_factory=dict)

    def add_iteration(self, **fields) -> None:
        self.iterations.append(_py(fields))

    def to_dict(self) -> dict:
        return {"method": self.method, "config": _py(self.config),
                "iterations": self.iterations, "final": _py(self.final)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def write_trace_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for entry in self.iterations:
                row = []
                for col in TRACE_COLUMNS:
                    v = entry.get(col)
                    row.append("" if v is None else repr(v) if isinstance(v, float) else str(v))
                fh.write(",".join(row) + "\n")


def write_histogram_csv(path: str, data: np.ndarray) -> None:
    """Histogram export as HISTOGRAM_BINS rows of (bin_left, bin_right, count)."""
    data = np.asarray(data, dtype=np.float64)
    counts, edges = np.histogram(data, bins=HISTOGRAM_BINS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")
