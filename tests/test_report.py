import json

import numpy as np

from volball.report import RunReport, write_histogram_csv


def test_report_roundtrip_and_schema():
    rep = RunReport("3ddem", {"dt": 0.1})
    rep.add_iteration(iteration=1, E_3DDEM=np.float64(0.5), var_rho=0.1,
                      mean_K=np.float64(1.5), sd_K=0.2, folds_pre=2, folds_post=0)
    rep.final = {"var_rho": 0.01, "mean_K": 1.2, "sd_K": 0.1, "folds": 0}
    data = json.loads(rep.to_json())
    assert set(data) == {"method", "config", "iterations", "final"}
    assert isinstance(data["iterations"][0]["E_3DDEM"], float)


def test_report_json_deterministic():
    def build():
        rep = RunReport("3dqc", {"dt": 0.1, "eps": 0.01})
        rep.add_iteration(iteration=1, E_3DQC=1.23456789012345e-3)
        rep.final = {"var_rho": 0.0, "mean_K": 1.0, "sd_K": 0.0, "folds": 0}
        return rep.to_json()

    assert build() == build()


def test_trace_csv_columns(tmp_path):
    rep = RunReport("3ddeq", {})
    rep.add_iteration(iteration=1, E_3DQC=0.1, E_3DDEM=0.2, E_3DDEQ=0.3,
                      var_rho=0.4, mean_K=1.1, sd_K=0.1, folds_pre=1, folds_post=0)
    rep.add_iteration(iteration=2, mean_K=1.0)
    path = tmp_path / "trace.csv"
    rep.write_trace_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == ["iteration", "E_3DQC", "E_3DDEM", "E_3DDEQ",
                                  "var_rho", "mean_K", "sd_K",
                                  "folds_pre", "folds_post", "displacement"]
    assert lines[1].split(",")[0] == "1"
    assert lines[2].split(",")[1] == ""  # missing values stay empty


def test_histogram_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "h.csv"
    write_histogram_csv(str(path), rng.normal(size=1000))
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 51
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 1000
