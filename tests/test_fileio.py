import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_medit_skips_triangles_and_edges(tmp_path):
    extra = "Triangles\n1\n1 2 3 7\nEdges\n2\n1 2 5\n3 4 5\nTetrahedra"
    path = _write(tmp_path, "extra.mesh", MEDIT_ONE_TET.replace("Tetrahedra", extra))
    mesh = fileio.load_mesh(path)
    np.testing.assert_array_equal(mesh.tets, [[0, 1, 2, 3]])


@pytest.mark.parametrize("text, message", [
    (MEDIT_ONE_TET.split("Tetrahedra")[0] + "Triangles\n2\n1 2 3 0\n", "malformed Medit file"),
    ("MeshVersionFormatted 2\nDimension 3\nEnd\n", "no Vertices section"),
], ids=["triangles-cut-short", "no-vertices"])
def test_medit_cut_short_or_without_vertices(tmp_path, text, message):
    path = _write(tmp_path, "bad.mesh", text)
    with pytest.raises(fileio.ParseError, match=message):
        fileio.load_mesh(path)


@pytest.mark.parametrize("name, text, message", [
    ("neg.mesh", MEDIT_ONE_TET.replace("Tetrahedra\n1\n", "Tetrahedra\n-1\n"),
     "malformed Medit file \\(-1 tetrahedra rows, 6 values left\\)"),
    ("big.mesh", MEDIT_ONE_TET.replace("1 2 3 4 0", "1 2 3 99999999999999999999 0"),
     "malformed Medit file \\(Python int too large"),
    ("short.msh", "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n1\n1 0 0 0\n$EndNodes\n"
                  "$Elements\n1\n1 4 2 0 0 1 1 1\n$EndElements\n",
     "malformed Gmsh file \\(list index out of range\\)"),
], ids=["medit-negative-count", "medit-index-overflow", "gmsh-tet-of-three-nodes"])
def test_malformed_counts_and_indices_are_parse_errors(tmp_path, name, text, message):
    path = _write(tmp_path, name, text)
    with pytest.raises(fileio.ParseError, match=message):
        fileio.load_mesh(path)


def test_gmsh_other_version_is_named(tmp_path):
    path = _write(tmp_path, "v4.msh", "$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(fileio.ParseError) as info:
        fileio.load_mesh(path)
    assert str(info.value) == f"{path}: unsupported Gmsh version 4.1"


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


@pytest.mark.parametrize("text, message", [
    ("tet,pop\n0,1.0\n", "pop.csv: expected header 'tet_index,population'"),
    ("tet_index,population\n0,1.0,2\n", "pop.csv:2: malformed row '0,1.0,2'"),
    ("tet_index,population\n0,x\n", "pop.csv:2: malformed row '0,x'"),
    ("tet_index,population\n0,1.0\n\n2,1.0\n", "pop.csv:4: tet index 2 out of range"),
    ("tet_index,population\n-1,1.0\n", "pop.csv:2: tet index -1 out of range"),
], ids=["header", "three-fields", "not-a-number", "index-past-end", "negative-index"])
def test_population_csv_rejects_bad_rows(tmp_path, text, message):
    path = _write(tmp_path, "pop.csv", text)
    with pytest.raises(fileio.ParseError, match=message):
        fileio.read_population_csv(path, 2)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_population_csv_rejects_non_finite(tmp_path, value):
    path = _write(tmp_path, "pop.csv", f"tet_index,population\n0,1.0\n1,{value}\n")
    with pytest.raises(fileio.ParseError,
                       match=f"pop.csv:3: non-finite population '{value}'"):
        fileio.read_population_csv(path, 2)


_EXTENSION = {"medit": ".mesh", "gmsh2": ".msh", "vtk": ".vtk"}


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
    path = tmp_path / f"out{_EXTENSION[fmt]}"
    fileio.save_mesh(str(path), vertices, tets)
    assert path.read_bytes() == _row_by_row(fmt, vertices, tets).encode()


@pytest.mark.parametrize("fmt", ["medit", "gmsh2"])
def test_mesh_with_vtk_copy_matches_both_writers(tmp_path, fmt):
    # the remesh output pair: one coordinate formatting serves the Medit and
    # VTK files, each byte for byte what save_mesh writes alone
    rng = np.random.default_rng(8)
    vertices = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-12, 12, size=(200, 3))
    vertices[3] = [-0.0, 0.0, -1.0]
    tets = rng.integers(0, 200, size=(300, 4))
    path, vtk_path = tmp_path / f"pair{_EXTENSION[fmt]}", tmp_path / "pair.vtk"
    fileio.save_mesh_with_vtk(str(path), str(vtk_path), vertices, tets)
    assert path.read_bytes() == _row_by_row(fmt, vertices, tets).encode()
    assert vtk_path.read_bytes() == _row_by_row("vtk", vertices, tets).encode()
    alone = tmp_path / "alone.vtk"
    fileio.save_mesh(str(alone), vertices, tets)
    assert alone.read_bytes() == vtk_path.read_bytes()


def _token_loop_medit(path):
    """Reference: the Medit reader as a loop over tokens, one value at a time."""
    def tokens():
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                yield from line.split("#", 1)[0].split()

    tok = tokens()
    vertices, tets = [], []
    for word in tok:
        key = word.lower()
        if key == "vertices":
            for _ in range(int(next(tok))):
                vertices += [float(next(tok)) for _ in range(3)]
                next(tok)  # reference tag
        elif key == "tetrahedra":
            for _ in range(int(next(tok))):
                tets += [int(next(tok)) - 1 for _ in range(4)]
                next(tok)
        elif key in ("triangles", "edges"):
            for _ in range((4 if key == "triangles" else 3) * int(next(tok))):
                next(tok)
        elif key == "end":
            break
    if not vertices:
        raise fileio.ParseError(f"{path}: no Vertices section")
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3),
            np.array(tets, dtype=np.int64).reshape(-1, 4))


_VALUES = {
    "Vertices": st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False),
                          st.floats(allow_nan=False), st.integers(-3, 3)),
    "Tetrahedra": st.tuples(*[st.integers(1, 10**6)] * 4, st.integers(0, 9)),
    "Triangles": st.tuples(*[st.integers(1, 10**6)] * 3, st.integers(0, 9)),
    "Edges": st.tuples(*[st.integers(1, 10**6)] * 2, st.integers(0, 9)),
}
_SECTION = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.lists(_VALUES[key], max_size=6),
                          st.sampled_from(["", " # note Vertices 9", "#"])))


@pytest.fixture(scope="module")
def medit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("medit")


@settings(max_examples=150, deadline=None)
@given(st.lists(_SECTION, max_size=6), st.booleans(), st.sampled_from([" ", "\n", "  \n\t"]))
def test_medit_reader_matches_token_loop(medit_dir, sections, end, sep):
    # floats of every decade and -0.0, written as repr; repeated sections;
    # comments after a count, on rows and in whole lines; Triangles and Edges
    lines = ["MeshVersionFormatted 2", "# a comment line", "Dimension 3"]
    for key, rows, comment in sections:
        lines += [key.upper() if comment == "#" else key, f"{len(rows)}{comment}"]
        lines += [sep.join(repr(v) for v in row) + comment for row in rows]
    lines += ["End", "Vertices 1 garbage after End"] if end else []
    path = medit_dir / "case.mesh"
    path.write_text("\n".join(lines) + "\n")
    try:
        expected = _token_loop_medit(str(path))
    except fileio.ParseError as exc:
        with pytest.raises(fileio.ParseError, match="no Vertices section") as info:
            fileio._read_medit(str(path))
        assert str(info.value) == str(exc)
        return
    for got, want in zip(fileio._read_medit(str(path)), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_medit_non_finite_coordinates_name_the_vertex(tmp_path, value):
    # the reader parses them; the mesh refuses them by vertex (0-based)
    text = MEDIT_ONE_TET.replace("0 1 0 0\n", f"0 {value} 0 0\n")
    message = rf"vertex 2 has a non-finite coordinate \[0\.0, {value}, 0\.0\]"
    with pytest.raises(fileio.MeshError, match=message):
        fileio.load_mesh(_write(tmp_path, "nan.mesh", text))
