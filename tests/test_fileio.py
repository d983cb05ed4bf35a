import numpy as np
import pytest

from volball import fileio
from volball.tetmesh import TopologyError


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MEDIT_ONE_TET = """MeshVersionFormatted 2
Dimension 3
Vertices
4
0 0 0 0
1 0 0 0
0 1 0 0
0 0 1 0
Tetrahedra
1
1 2 3 4 0
End
"""


def test_medit_single_tet(tmp_path):
    path = _write(tmp_path, "one.mesh", MEDIT_ONE_TET)
    mesh = fileio.load_mesh(path)
    assert len(mesh.vertices) == 4
    assert len(mesh.tets) == 1
    assert len(mesh.boundary_faces) == 4


def test_medit_repeated_vertex_errors(tmp_path):
    bad = MEDIT_ONE_TET.replace("1 2 3 4 0", "1 2 3 3 0")
    path = _write(tmp_path, "bad.mesh", bad)
    with pytest.raises(fileio.MeshError):
        fileio.load_mesh(path)


def test_medit_malformed(tmp_path):
    path = _write(tmp_path, "trunc.mesh", "MeshVersionFormatted 2\nVertices\n10\n1 2\n")
    with pytest.raises(fileio.ParseError):
        fileio.load_mesh(path)


def test_gmsh_roundtrip(tmp_path, ball_mesh):
    path = str(tmp_path / "ball.msh")
    fileio.save_mesh(path, ball_mesh.vertices, ball_mesh.tets)
    back = fileio.load_mesh(path)
    np.testing.assert_array_equal(back.vertices, ball_mesh.vertices)
    np.testing.assert_array_equal(back.tets, ball_mesh.tets)


def test_medit_gmsh_medit_roundtrip(tmp_path, ball_mesh):
    a = str(tmp_path / "a.mesh")
    b = str(tmp_path / "b.msh")
    c = str(tmp_path / "c.mesh")
    fileio.save_mesh(a, ball_mesh.vertices, ball_mesh.tets)
    m1 = fileio.load_mesh(a)
    fileio.save_mesh(b, m1.vertices, m1.tets)
    m2 = fileio.load_mesh(b)
    fileio.save_mesh(c, m2.vertices, m2.tets)
    m3 = fileio.load_mesh(c)
    np.testing.assert_array_equal(m3.vertices, ball_mesh.vertices)
    np.testing.assert_array_equal(m3.tets, ball_mesh.tets)


def test_gmsh_triangles_only_is_topology_error(tmp_path):
    text = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
1
1 2 3 0 0 0 1 2 3
$EndElements
"""
    path = _write(tmp_path, "tri.msh", text)
    with pytest.raises(TopologyError):
        fileio.load_mesh(path)


def test_vtk_output_structure(tmp_path, reference_tet):
    path = str(tmp_path / "out.vtk")
    fileio.save_mesh(path, reference_tet.vertices, reference_tet.tets)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert "POINTS 4 double" in lines
    assert "CELL_TYPES 1" in lines
    assert lines[-1] == "10"  # tetra cell type


def test_population_csv(tmp_path):
    path = _write(tmp_path, "pop.csv", "tet_index,population\n0,2.5\n1,1.0\n")
    pop = fileio.read_population_csv(path, 2)
    np.testing.assert_allclose(pop, [2.5, 1.0])
    with pytest.raises(fileio.ParseError):
        fileio.read_population_csv(path, 3)  # missing rows
    bad = _write(tmp_path, "bad.csv", "tet_index,population\n0,-1\n")
    with pytest.raises(fileio.ParseError):
        fileio.read_population_csv(bad, 1)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_population_csv_rejects_non_finite(tmp_path, value):
    path = _write(tmp_path, "pop.csv", f"tet_index,population\n0,1.0\n1,{value}\n")
    with pytest.raises(fileio.ParseError,
                       match=f"pop.csv:3: non-finite population '{value}'"):
        fileio.read_population_csv(path, 2)


def _row_by_row(fmt, vertices, tets):
    """Reference: each writer's output built one formatted row at a time."""
    verts = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    if fmt == "medit":
        return "".join(["MeshVersionFormatted 2\nDimension 3\n", f"Vertices\n{len(vertices)}\n"]
                       + [f"{v} 0\n" for v in verts] + [f"Tetrahedra\n{len(tets)}\n"]
                       + [f"{t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1} 0\n" for t in tets]
                       + ["End\n"])
    if fmt == "gmsh2":
        return "".join(["$MeshFormat\n2.2 0 8\n$EndMeshFormat\n", f"$Nodes\n{len(vertices)}\n"]
                       + [f"{i + 1} {v}\n" for i, v in enumerate(verts)]
                       + ["$EndNodes\n", f"$Elements\n{len(tets)}\n"]
                       + [f"{i + 1} 4 2 0 0 {t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1}\n"
                          for i, t in enumerate(tets)] + ["$EndElements\n"])
    return "".join(["# vtk DataFile Version 3.0\nvolball mesh\nASCII\n",
                    "DATASET UNSTRUCTURED_GRID\n", f"POINTS {len(vertices)} double\n"]
                   + [f"{v}\n" for v in verts] + [f"CELLS {len(tets)} {5 * len(tets)}\n"]
                   + [f"4 {t[0]} {t[1]} {t[2]} {t[3]}\n" for t in tets]
                   + [f"CELL_TYPES {len(tets)}\n", "10\n" * len(tets)])


@pytest.mark.parametrize("fmt", ["medit", "gmsh2", "vtk"])
def test_writers_match_row_by_row_reference(tmp_path, fmt):
    # coordinates over many decades and both signs, -0.0 included, and tet
    # indices up to the vertex count
    rng = np.random.default_rng(7)
    vertices = rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-12, 12, size=(300, 3))
    vertices[5] = [-0.0, 0.0, 1.0]
    tets = rng.integers(0, 300, size=(500, 4))
    path = tmp_path / "out.mesh"
    fileio.save_mesh(str(path), vertices, tets, fmt)
    assert path.read_bytes() == _row_by_row(fmt, vertices, tets).encode()


@pytest.mark.parametrize("fmt", ["medit", "gmsh2"])
def test_mesh_with_vtk_copy_matches_both_writers(tmp_path, fmt):
    # the remesh output pair: one coordinate formatting serves the Medit and
    # VTK files, each byte for byte what save_mesh writes alone
    rng = np.random.default_rng(8)
    vertices = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-12, 12, size=(200, 3))
    vertices[3] = [-0.0, 0.0, -1.0]
    tets = rng.integers(0, 200, size=(300, 4))
    path, vtk_path = tmp_path / f"pair.{'mesh' if fmt == 'medit' else 'msh'}", tmp_path / "pair.vtk"
    fileio.save_mesh_with_vtk(str(path), str(vtk_path), vertices, tets, fmt)
    assert path.read_bytes() == _row_by_row(fmt, vertices, tets).encode()
    assert vtk_path.read_bytes() == _row_by_row("vtk", vertices, tets).encode()
    alone = tmp_path / "alone.vtk"
    fileio.save_mesh(str(alone), vertices, tets)
    assert alone.read_bytes() == vtk_path.read_bytes()
