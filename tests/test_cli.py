import json
import os

import numpy as np
import pytest

from volball import cli, fileio
from volball.density import DensityError
from volball.distortion import FrameError
from volball.linsolve import SolverError
from volball.remesh import quality_metrics, uniform_ball_mesh
from volball.synthetic import hemispheric_population, lcube_mesh, octant_population


@pytest.fixture(scope="module")
def ball_file(tmp_path_factory):
    mesh = uniform_ball_mesh(1)
    path = tmp_path_factory.mktemp("meshes") / "ball.mesh"
    fileio.save_mesh(str(path), mesh.vertices, mesh.tets)
    return str(path)


def test_param_3ddem_volume(tmp_path, ball_file):
    out = tmp_path / "run"
    code = cli.main(["param", "--method", "3ddem", "--population", "volume",
                     ball_file, str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"method", "config", "iterations", "final"}
    assert report["method"] == "3ddem"
    assert "var_rho" in report["final"]
    assert report["final"]["folds"] == 0
    assert (out / "result.mesh").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == ("iteration,E_3DQC,E_3DDEM,E_3DDEQ,var_rho,mean_K,sd_K,"
                        "folds_pre,folds_post,displacement")


def test_param_3ddeq_trace_displacement(tmp_path, ball_file):
    out = tmp_path / "deq"
    code = cli.main(["param", "--method", "3ddeq", "--population", "volume",
                     ball_file, str(out)])
    assert code == 0
    header, *rows = (out / "trace.csv").read_text().splitlines()
    column = header.split(",").index("displacement")
    assert rows
    for row in rows:
        assert np.isfinite(float(row.split(",")[column]))


def test_param_missing_population_exit_1(tmp_path, ball_file, capsys):
    code = cli.main(["param", "--method", "3ddem", ball_file, str(tmp_path / "o")])
    assert code == 1
    assert "population" in capsys.readouterr().err


def test_param_bad_file_exit_1(tmp_path, capsys):
    code = cli.main(["param", "--method", "3dqc", str(tmp_path / "nope.mesh"),
                     str(tmp_path / "o")])
    assert code == 1


def test_param_3dqc_monotone_series(tmp_path, ball_file):
    out = tmp_path / "qc"
    code = cli.main(["param", "--method", "3dqc", ball_file, str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    E = [it["E_3DQC"] for it in report["iterations"]]
    assert all(b <= a for a, b in zip(E, E[1:]))


def test_metrics_identity_pair(tmp_path, ball_file, capsys):
    code = cli.main(["metrics", ball_file, "--mapped", ball_file])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean_K"] == pytest.approx(1.0, abs=1e-9)
    assert out["folds"] == 0
    assert {"mean_K", "sd_K", "var_rho0", "var_rho", "folds",
            "delta_size", "delta_shape"} <= set(out)


def test_metrics_rest_mesh_alone_prints_and_writes_same_json(tmp_path, ball_file, capsys):
    report = tmp_path / "metrics.json"
    code = cli.main(["metrics", ball_file, "--report", str(report)])
    assert code == 0
    printed = capsys.readouterr().out
    assert report.read_bytes() == printed.encode("utf-8")
    out = json.loads(printed)
    # without a mapped mesh the map is the identity
    assert {k: out[k] for k in ("mean_K", "sd_K", "folds", "var_rho0", "var_rho")} == {
        "mean_K": 1.0, "sd_K": 0.0, "folds": 0, "var_rho0": 0.0, "var_rho": 0.0}
    mesh = fileio.load_mesh(ball_file)
    quality = quality_metrics(mesh.tets, mesh.vertices)
    assert (out["delta_size"], out["delta_shape"]) == (quality.delta_size,
                                                       quality.delta_shape)


def test_metrics_mirrored_pair(tmp_path, ball_file, capsys):
    mesh = fileio.load_mesh(ball_file)
    mirrored = mesh.vertices * np.array([-1.0, 1.0, 1.0])
    mpath = tmp_path / "mirror.mesh"
    # write mirrored coordinates with the ORIGINAL connectivity; every tet of
    # the rest mesh is inverted under them
    fileio.save_mesh(str(mpath), mirrored, mesh.tets)
    code = cli.main(["metrics", ball_file, "--mapped", str(mpath)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["folds"] == len(mesh.tets) == 731
    assert out["mean_K"] >= 1.0
    assert out["var_rho"] is None


def test_convert_roundtrip_bytes(tmp_path, ball_file):
    msh = tmp_path / "a.msh"
    back = tmp_path / "b.mesh"
    assert cli.main(["convert", ball_file, str(msh)]) == 0
    assert cli.main(["convert", str(msh), str(back)]) == 0
    m0 = fileio.load_mesh(ball_file)
    m2 = fileio.load_mesh(str(back))
    np.testing.assert_array_equal(m0.vertices, m2.vertices)
    np.testing.assert_array_equal(m0.tets, m2.tets)


def test_convert_to_vtk(tmp_path, ball_file):
    vtk = tmp_path / "out.vtk"
    assert cli.main(["convert", ball_file, str(vtk)]) == 0
    text = vtk.read_text().splitlines()
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[-1] == "10"


def test_init_ball_command(tmp_path, ball_file):
    out = tmp_path / "ib"
    assert cli.main(["init-ball", ball_file, str(out)]) == 0
    ball = fileio.load_mesh(str(out / "ball.mesh"))
    norms = np.linalg.norm(ball.vertices[ball.boundary_vertex_mask], axis=1)
    assert np.abs(norms - 1).max() < 1e-12


def test_init_ball_boundary_flag(tmp_path, ball_file):
    from volball.drivers import SolverConfig, initial_ball
    mesh = fileio.load_mesh(ball_file)
    out = tmp_path / "ib"
    assert cli.main(["init-ball", "--boundary", "dem", ball_file, str(out)]) == 0
    ball = fileio.load_mesh(str(out / "ball.mesh")).vertices
    expected = initial_ball(mesh, SolverConfig(boundary_mode="dem"))
    np.testing.assert_array_equal(ball, expected)
    assert not np.array_equal(ball, initial_ball(mesh, SolverConfig()))


def test_param_no_correction_is_recorded(tmp_path, ball_file):
    out = tmp_path / "run"
    code = cli.main(["param", "--method", "3dqc", "--max-iter", "1", "--no-correction",
                     ball_file, str(out)])
    assert code in (0, 2)
    assert json.loads((out / "report.json").read_text())["config"]["correction"] is False


def test_population_file_source(tmp_path, ball_file):
    mesh = fileio.load_mesh(ball_file)
    pop = hemispheric_population(mesh, 2.0)
    csv = tmp_path / "pop.csv"
    with open(csv, "w") as fh:
        fh.write("tet_index,population\n")
        for i, p in enumerate(pop):
            fh.write(f"{i},{float(p)!r}\n")
    out = tmp_path / "run"
    code = cli.main(["param", "--method", "3ddem",
                     "--population", f"file:{csv}", ball_file, str(out)])
    assert code == 0


def test_param_non_finite_population_exit_1(tmp_path, ball_file, capsys):
    mesh = fileio.load_mesh(ball_file)
    csv = tmp_path / "pop.csv"
    rows = ["inf" if i == 5 else "1.0" for i in range(len(mesh.tets))]
    csv.write_text("tet_index,population\n"
                   + "".join(f"{i},{p}\n" for i, p in enumerate(rows)))
    code = cli.main(["param", "--method", "3ddem", "--population", f"file:{csv}",
                     ball_file, str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == \
        f"volball: error: {csv}:7: non-finite population 'inf'\n"


def test_param_all_boundary_solid_exit_1(tmp_path, capsys):
    # every vertex of lcube_mesh(2) lies on the boundary; the overlap
    # correction's boundary-patch rebuild used to free them all and end in a
    # bare ValueError, which the CLI printed as a traceback
    mesh = lcube_mesh(2)
    path = tmp_path / "lcube2.mesh"
    fileio.save_mesh(str(path), mesh.vertices, mesh.tets)
    csv = tmp_path / "pop.csv"
    csv.write_text("tet_index,population\n" + "".join(
        f"{i},{float(p)!r}\n" for i, p in enumerate(octant_population(mesh))))
    code = cli.main(["param", "--method", "3ddem", "--population", f"file:{csv}",
                     str(path), str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == \
        "volball: error: overlap correction budget exhausted: the best state seen has " \
        "2 folded tets plus flipped boundary triangles\n"


@pytest.mark.parametrize("error", [DensityError("bad density"),
                                   FrameError("bad frame"),
                                   SolverError("no convergence", 7, 1e-3)])
def test_param_typed_errors_exit_1(tmp_path, ball_file, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.drivers, "run_method", fail)
    code = cli.main(["param", "--method", "3dqc", ball_file, str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == f"volball: error: {error}\n"


@pytest.mark.parametrize("flags", [["--dt", "-1"], ["--kt", "0.5"], ["--max-iter", "0"],
                                   ["--dt", "nan"], ["--eps", "nan"], ["--alpha", "inf"]],
                         ids=lambda flags: "=".join(flags).lstrip("-"))
def test_param_bad_config_exit_1(tmp_path, ball_file, capsys, flags):
    code = cli.main(["param", "--method", "3dqc", ball_file, str(tmp_path / "run"),
                     *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("volball: error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_usage_error_exit_1(tmp_path, ball_file, capsys):
    code = cli.main(["param", ball_file, str(tmp_path / "run"), "--method", "3dxx"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: volball param")
    assert err.count("volball: error:") == 1
    assert err.splitlines()[-1].startswith("volball: error: argument --method: invalid choice")


def test_param_uniform_population(tmp_path, ball_file):
    from volball.drivers import SolverConfig, run_3ddem
    out = tmp_path / "run"
    code = cli.main(["param", "--method", "3ddem", "--population", "uniform",
                     "--max-iter", "3", ball_file, str(out)])
    mesh = fileio.load_mesh(ball_file)
    expected = run_3ddem(mesh, np.ones(len(mesh.tets)), SolverConfig(n_max=3))
    assert code == (0 if expected.converged else 2)
    assert (out / "report.json").read_text() == expected.report.to_json()


@pytest.mark.parametrize("argv, message", [
    (["param", "--method", "3ddeq", "--population", "bogus", "{ball}", "{tmp}/run"],
     "unknown population source 'bogus' (expected uniform, volume, or file:PATH)"),
    (["metrics", "{ball}", "--mapped", "{other}"],
     "rest and mapped meshes have mismatched connectivity"),
    (["convert", "{tmp}/ball.vtk", "{tmp}/back.mesh"], "unsupported input format 'vtk'"),
    (["convert", "{tmp}/ball.obj", "{tmp}/back.mesh"],
     "cannot infer mesh format from extension '.obj'"),
    (["init-ball", "{tmp}/ball.off", "{tmp}/ib"],
     "cannot infer mesh format from extension '.off'"),
    (["param", "--method", "3dqc", "--population", "bogus", "{ball}", "{tmp}/run"],
     "unknown population source 'bogus' (expected uniform, volume, or file:PATH)"),
    (["param", "--method", "3dqc", "--population", "file:{tmp}/none.csv", "{ball}", "{tmp}/run"],
     "[Errno 2] No such file or directory: '{tmp}/none.csv'"),
    (["convert", "{tmp}/latin1.msh", "{tmp}/back.mesh"],
     "{tmp}/latin1.msh: malformed Gmsh file ('utf-8' codec can't decode byte 0xff "
     "in position 50: invalid start byte)"),
    (["convert", "{tmp}/binary.msh", "{tmp}/back.mesh"],
     "{tmp}/binary.msh: unsupported Gmsh file type 1 (only ASCII, type 0, is read)"),
], ids=["unknown-population", "metrics-mismatch", "convert-from-vtk", "convert-unknown-ext",
        "init-ball-unknown-ext", "3dqc-unknown-population", "3dqc-missing-population-file",
        "gmsh-not-utf8", "gmsh-binary"])
def test_input_errors_exit_1(tmp_path, ball_file, capsys, argv, message):
    ball, other = fileio.load_mesh(ball_file), lcube_mesh(2)
    fileio.save_mesh(str(tmp_path / "ball.vtk"), ball.vertices, ball.tets)
    fileio.save_mesh(str(tmp_path / "other.mesh"), other.vertices, other.tets)
    header = b"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
    (tmp_path / "latin1.msh").write_bytes(header + b"$Nodes\n1\n1 0 0 \xff\n")
    (tmp_path / "binary.msh").write_bytes(header.replace(b" 0 ", b" 1 "))
    names = {"ball": ball_file, "tmp": str(tmp_path), "other": str(tmp_path / "other.mesh")}
    code = cli.main([arg.format(**names) for arg in argv])
    assert code == 1
    assert capsys.readouterr().err == f"volball: error: {message.format(**names)}\n"


def test_histogram_export(tmp_path, ball_file):
    out = tmp_path / "run"
    hist = tmp_path / "hist.csv"
    code = cli.main(["param", "--method", "3ddem", "--population", "volume",
                     "--histogram", str(hist), ball_file, str(out)])
    assert code == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 51


def test_remesh_command(tmp_path, ball_file):
    out = tmp_path / "rm"
    code = cli.main(["remesh", "--method", "3dqc", "--resolution", "1",
                     ball_file, str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "delta_size" in report["final"] and "delta_shape" in report["final"]
    assert (out / "remeshed.mesh").exists()
    assert (out / "remeshed.vtk").exists()


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_remesh_bad_resolution_exit_1(tmp_path, ball_file, capsys, monkeypatch, resolution):
    # checked before the parameterization runs, not by uniform_ball_mesh
    # after it
    calls = []
    monkeypatch.setattr(cli.drivers, "run_method", lambda *args: calls.append(args))
    out = tmp_path / "rm"
    code = cli.main(["remesh", "--method", "3dqc", "--resolution", resolution,
                     ball_file, str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        f"volball: error: --resolution must be at least 1, got {resolution}\n"
    assert calls == [] and not out.exists()


def test_cli_determinism(tmp_path, ball_file):
    runs = [(["param", "--method", "3ddem", "--population", "volume"], ["report.json"]),
            (["remesh", "--method", "3ddeq", "--population", "volume", "--resolution", "2"],
             ["remeshed.mesh", "remeshed.vtk", "report.json", "trace.csv"])]
    for command, files in runs:
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command[0] / name
            code = cli.main([*command, ball_file, str(out)])
            assert code == 0
            outs.append([(out / f).read_bytes() for f in files])
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def graded_file(tmp_path_factory):
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    path = tmp_path_factory.mktemp("meshes") / "graded1.mesh"
    fileio.save_mesh(str(path), mesh.vertices, mesh.tets)
    return str(path)


@pytest.mark.parametrize("resolution, folds", [(1, 0), (2, 0), (3, 3)])
def test_remesh_report_counts_inverted_tets(tmp_path, graded_file, monkeypatch,
                                            resolution, folds):
    # the bench's remesh (template resolution 2) writes no inverted tet; at
    # resolution 3 the template is finer than the graded solid, and three
    # pulled-back tets come out inverted while the command still exits 0.
    # The files are what remesh.remesh_through gives on the command's map
    from volball import drivers, remesh
    from volball.tetmesh import signed_volumes
    runs, run_method = [], drivers.run_method

    def recorded(*args):
        runs.append((args[1], run_method(*args)))
        return runs[-1][1]

    monkeypatch.setattr(cli.drivers, "run_method", recorded)
    out = tmp_path / "out"
    code = cli.main(["remesh", "--method", "3ddeq", "--population", "volume",
                     "--resolution", str(resolution), graded_file, str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # the raw arrays: load_mesh would reorient the inverted tets
    vertices, tets = fileio._read_medit(str(out / "remeshed.mesh"))
    recount = int(np.count_nonzero(signed_volumes(vertices, tets) <= 0.0))
    assert report["final"]["remeshed_folds"] == recount == folds
    assert report["final"]["folds"] == 0
    [(mesh, result)] = runs
    template, positions, fields = remesh.remesh_through(mesh, result.positions, resolution)
    assert vertices.tobytes() == positions.tobytes()
    assert tets.tobytes() == template.tets.tobytes()
    assert report["final"] == {**result.report.final, **fields}
