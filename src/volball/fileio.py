"""Readers and writers for Medit .mesh, Gmsh v2.2 .msh, and legacy VTK files.

Indices are 1-based on disk and 0-based in memory. Coordinates are written
with 17 significant digits so float64 values round-trip exactly through text.
"""

from __future__ import annotations

import os

import numpy as np

from .tetmesh import MeshError, TetMesh, TopologyError


class ParseError(MeshError):
    pass


_EXT_TO_FORMAT = {".mesh": "medit", ".msh": "gmsh2", ".vtk": "vtk"}


def format_from_path(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext not in _EXT_TO_FORMAT:
        raise ParseError(f"cannot infer mesh format from extension {ext!r}")
    return _EXT_TO_FORMAT[ext]


def load_mesh(path: str, fmt: str | None = None) -> TetMesh:
    """Load a tetrahedral mesh, validating topology and orientation."""
    fmt = fmt or format_from_path(path)
    if fmt == "medit":
        vertices, tets = _read_medit(path)
    elif fmt == "gmsh2":
        vertices, tets = _read_gmsh2(path)
    else:
        raise ParseError(f"unsupported input format {fmt!r}")
    if len(tets) == 0:
        raise TopologyError(f"{path}: no tetrahedra found")
    return TetMesh.from_arrays(vertices, tets)


def save_mesh(path: str, vertices: np.ndarray, tets: np.ndarray,
              fmt: str | None = None) -> None:
    """Write ``vertices`` (n, 3) and 0-based ``tets`` (m, 4) in ``fmt``
    (``medit``, ``gmsh2`` or ``vtk``), by default inferred from the extension
    of ``path`` (``.mesh``, ``.msh``, ``.vtk``). Raises ``ParseError`` on an
    unknown extension or format."""
    fmt = fmt or format_from_path(path)
    if fmt == "medit":
        _write_medit(path, vertices, tets)
    elif fmt == "gmsh2":
        _write_gmsh2(path, vertices, tets)
    elif fmt == "vtk":
        _write_vtk(path, vertices, tets)
    else:
        raise ParseError(f"unsupported output format {fmt!r}")


def save_mesh_with_vtk(path: str, vtk_path: str, vertices: np.ndarray, tets: np.ndarray,
                       fmt: str | None = None) -> None:
    """``save_mesh(path, vertices, tets, fmt)`` and a VTK copy at
    ``vtk_path``, byte for byte as ``save_mesh`` writes them; a Medit file
    shares the VTK file's coordinate text, formatted once."""
    fmt = fmt or format_from_path(path)
    coords = _coordinate_rows(vertices)
    if fmt == "medit":
        _write_medit(path, vertices, tets, coords)
    else:
        save_mesh(path, vertices, tets, fmt)
    _write_vtk(vtk_path, vertices, tets, coords)


# -- Medit ---------------------------------------------------------------


def _tokens(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            yield from line.split()


def _read_medit(path: str) -> tuple[np.ndarray, np.ndarray]:
    tok = _tokens(path)
    vertices: list[float] = []
    tets: list[int] = []
    try:
        for word in tok:
            key = word.lower()
            if key == "vertices":
                n = int(next(tok))
                for _ in range(n):
                    for _ in range(3):
                        vertices.append(float(next(tok)))
                    next(tok)  # reference tag
            elif key == "tetrahedra":
                n = int(next(tok))
                for _ in range(n):
                    for _ in range(4):
                        tets.append(int(next(tok)) - 1)
                    next(tok)
            elif key == "triangles":
                n = int(next(tok))
                for _ in range(4 * n):
                    next(tok)
            elif key == "edges":
                n = int(next(tok))
                for _ in range(3 * n):
                    next(tok)
            elif key == "end":
                break
    except (StopIteration, ValueError) as exc:
        raise ParseError(f"{path}: malformed Medit file ({exc})") from exc
    if not vertices:
        raise ParseError(f"{path}: no Vertices section")
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3),
            np.array(tets, dtype=np.int64).reshape(-1, 4))


def _rows(fmt: str, block) -> str:
    """``fmt`` applied to each row of the 2-D ``block``, in one format call."""
    block = np.asarray(block)
    return (fmt * len(block)) % tuple(block.reshape(-1).tolist())


def _coordinate_rows(vertices: np.ndarray) -> str:
    """One "x y z" line per vertex, 17 significant digits: the VTK rows, and
    the Medit rows without their reference tag."""
    return _rows("%.17g %.17g %.17g\n", vertices)


def _write_medit(path: str, vertices: np.ndarray, tets: np.ndarray,
                 coords: str | None = None) -> None:
    """The Medit file; ``coords``, the ``_coordinate_rows`` of ``vertices``
    when the caller has them, get the reference tag 0 on each line."""
    coords = _coordinate_rows(vertices) if coords is None else coords
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("MeshVersionFormatted 2\nDimension 3\n")
        fh.write(f"Vertices\n{len(vertices)}\n")
        fh.write(coords.replace("\n", " 0\n"))
        fh.write(f"Tetrahedra\n{len(tets)}\n")
        fh.write(_rows("%d %d %d %d 0\n", np.asarray(tets) + 1))
        fh.write("End\n")


# -- Gmsh v2.2 -------------------------------------------------------------


def _read_gmsh2(path: str) -> tuple[np.ndarray, np.ndarray]:
    vertices = None
    tets: list[list[int]] = []
    id_map: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = iter(fh.read().splitlines())
    try:
        for line in lines:
            tag = line.strip()
            if tag == "$MeshFormat":
                version = next(lines).split()[0]
                if not version.startswith("2"):
                    raise ParseError(f"{path}: unsupported Gmsh version {version}")
                next(lines)  # $EndMeshFormat
            elif tag == "$Nodes":
                n = int(next(lines))
                vertices = np.empty((n, 3), dtype=np.float64)
                for i in range(n):
                    parts = next(lines).split()
                    id_map[int(parts[0])] = i
                    vertices[i] = [float(parts[1]), float(parts[2]), float(parts[3])]
                next(lines)  # $EndNodes
            elif tag == "$Elements":
                n = int(next(lines))
                for _ in range(n):
                    parts = next(lines).split()
                    etype = int(parts[1])
                    ntags = int(parts[2])
                    nodes = parts[3 + ntags:]
                    if etype == 4:
                        tets.append([id_map[int(v)] for v in nodes[:4]])
                next(lines)  # $EndElements
    except ParseError:
        raise
    except (StopIteration, ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"{path}: malformed Gmsh file ({exc})") from exc
    if vertices is None:
        raise ParseError(f"{path}: no $Nodes section")
    return vertices, np.array(tets, dtype=np.int64).reshape(-1, 4)


def _write_gmsh2(path: str, vertices: np.ndarray, tets: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(vertices)}\n")
        ids = np.arange(1, len(vertices) + 1)
        fh.write(_rows("%d %.17g %.17g %.17g\n", np.column_stack([ids, vertices])))
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(tets)}\n")
        ids = np.arange(1, len(tets) + 1)
        fh.write(_rows("%d 4 2 0 0 %d %d %d %d\n", np.column_stack([ids, np.asarray(tets) + 1])))
        fh.write("$EndElements\n")


# -- VTK legacy unstructured grid (output only) -----------------------------


def _write_vtk(path: str, vertices: np.ndarray, tets: np.ndarray,
               coords: str | None = None) -> None:
    """The legacy VTK file, with ``coords`` as in ``_write_medit``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\nvolball mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(vertices)} double\n")
        fh.write(_coordinate_rows(vertices) if coords is None else coords)
        fh.write(f"CELLS {len(tets)} {5 * len(tets)}\n")
        fh.write(_rows("4 %d %d %d %d\n", tets))
        fh.write(f"CELL_TYPES {len(tets)}\n")
        fh.write("10\n" * len(tets))


def read_population_csv(path: str, n_tets: int) -> np.ndarray:
    """Read per-tet populations from a CSV with header ``tet_index,population``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().lower().replace(" ", "")
        if header != "tet_index,population":
            raise ParseError(f"{path}: expected header 'tet_index,population'")
        pop = np.full(n_tets, np.nan)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                idx_s, val_s = line.split(",")
                idx, val = int(idx_s), float(val_s)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: malformed row {line!r}") from exc
            if not 0 <= idx < n_tets:
                raise ParseError(f"{path}:{lineno}: tet index {idx} out of range")
            if not np.isfinite(val):
                raise ParseError(f"{path}:{lineno}: non-finite population {val_s!r}")
            pop[idx] = val
    if np.any(np.isnan(pop)):
        raise ParseError(f"{path}: populations missing for some tets")
    if np.any(pop <= 0):
        raise ParseError(f"{path}: populations must be positive")
    return pop
