"""Readers and writers for Medit .mesh, Gmsh v2.2 .msh, and legacy VTK files.

A path's extension picks its format through one table, ``_FORMATS``:
extension -> (reader, writer), with no reader for VTK, an output-only format.
Every writer lays out its vertices from one ``_coordinate_rows`` text.
Indices are 1-based on disk and 0-based in memory. Coordinates are written
with 17 significant digits so float64 values round-trip exactly through text.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .tetmesh import MeshError, TetMesh, TopologyError


class ParseError(MeshError):
    pass


def _extension(path: str) -> str:
    """``path``'s lowercased extension, a key of ``_FORMATS``."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in _FORMATS:
        raise ParseError(f"cannot infer mesh format from extension {ext!r}")
    return ext


def load_mesh(path: str) -> TetMesh:
    """Load a tetrahedral mesh, validating topology and orientation."""
    ext = _extension(path)
    read = _FORMATS[ext][0]
    if read is None:
        raise ParseError(f"unsupported input format {ext[1:]!r}")
    vertices, tets = read(path)
    if len(tets) == 0:
        raise TopologyError(f"{path}: no tetrahedra found")
    return TetMesh.from_arrays(vertices, tets)


def save_mesh(path: str, vertices: np.ndarray, tets: np.ndarray) -> None:
    """Write ``vertices`` (n, 3) and 0-based ``tets`` (m, 4) in the format of
    ``path``'s extension (``.mesh``, ``.msh``, ``.vtk``). Raises
    ``ParseError`` on an unknown extension."""
    _FORMATS[_extension(path)][1](path, vertices, tets, _coordinate_rows(vertices))


def save_mesh_with_vtk(path: str, vtk_path: str, vertices: np.ndarray, tets: np.ndarray) -> None:
    """``save_mesh(path, vertices, tets)`` and a VTK copy at ``vtk_path``,
    byte for byte as ``save_mesh`` writes them, from one formatting of the
    coordinates."""
    coords = _coordinate_rows(vertices)
    _FORMATS[_extension(path)][1](path, vertices, tets, coords)
    _write_vtk(vtk_path, vertices, tets, coords)


def _rows(fmt: str, block) -> str:
    """``fmt`` applied to each row of the 2-D ``block``, in one format call."""
    block = np.asarray(block)
    return (fmt * len(block)) % tuple(block.reshape(-1).tolist())


def _coordinate_rows(vertices: np.ndarray) -> str:
    """One "x y z" line per vertex, 17 significant digits: the text each
    writer lays out its vertices from."""
    return _rows("%.17g %.17g %.17g\n", vertices)


# -- Medit ---------------------------------------------------------------

# section -> values per row, reference tag included; Triangles and Edges are
# read past
_MEDIT_WIDTHS = {"vertices": 4, "tetrahedra": 5, "triangles": 4, "edges": 3}


def _read_medit(path: str) -> tuple[np.ndarray, np.ndarray]:
    sections = {key: [] for key in _MEDIT_WIDTHS}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            words = re.sub("#.*", "", fh.read()).split()
        i = 0
        while i < len(words) and words[i].lower() != "end":
            key, i = words[i].lower(), i + 1
            if key in _MEDIT_WIDTHS:
                n, width = int(words[i]), _MEDIT_WIDTHS[key]
                start, i = i + 1, i + 1 + n * width
                if n < 0 or i > len(words):
                    raise ValueError(f"{n} {key} rows, {len(words) - start} values left")
                sections[key].append(np.array(words[start:i], dtype=object).reshape(n, width))
        vertices = np.concatenate([np.empty((0, 4), object)] + sections["vertices"])[:, :3]
        tets = np.concatenate([np.empty((0, 5), object)] + sections["tetrahedra"])[:, :4]
        vertices, tets = vertices.astype(np.float64), tets.astype(np.int64) - 1
    except (IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed Medit file ({exc})") from exc
    if len(vertices) == 0:
        raise ParseError(f"{path}: no Vertices section")
    return vertices, tets


def _write_medit(path: str, vertices: np.ndarray, tets: np.ndarray, coords: str) -> None:
    """The Medit file; each ``coords`` line gets the reference tag 0."""
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = iter(fh.read().splitlines())
        for line in lines:
            tag = line.strip()
            if tag == "$MeshFormat":
                version, file_type = next(lines).split()[:2]
                if not version.startswith("2"):
                    raise ParseError(f"{path}: unsupported Gmsh version {version}")
                if file_type != "0":
                    raise ParseError(f"{path}: unsupported Gmsh file type {file_type} "
                                     "(only ASCII, type 0, is read)")
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
                        tets.append([id_map[int(nodes[k])] for k in range(4)])
                next(lines)  # $EndElements
    except ParseError:
        raise
    except (StopIteration, ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"{path}: malformed Gmsh file ({exc})") from exc
    if vertices is None:
        raise ParseError(f"{path}: no $Nodes section")
    return vertices, np.array(tets, dtype=np.int64).reshape(-1, 4)


def _write_gmsh2(path: str, vertices: np.ndarray, tets: np.ndarray, coords: str) -> None:
    """The Gmsh file; each ``coords`` line, prefixed by its 1-based id, is a node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{len(vertices)}\n")
        fh.writelines(f"{i} {row}\n" for i, row in enumerate(coords.splitlines(), 1))
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{len(tets)}\n")
        ids = np.arange(1, len(tets) + 1)
        fh.write(_rows("%d 4 2 0 0 %d %d %d %d\n", np.column_stack([ids, np.asarray(tets) + 1])))
        fh.write("$EndElements\n")


# -- VTK legacy unstructured grid (output only) -----------------------------


def _write_vtk(path: str, vertices: np.ndarray, tets: np.ndarray, coords: str) -> None:
    """The legacy VTK file, with ``coords`` as its points."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\nvolball mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(vertices)} double\n")
        fh.write(coords)
        fh.write(f"CELLS {len(tets)} {5 * len(tets)}\n")
        fh.write(_rows("4 %d %d %d %d\n", tets))
        fh.write(f"CELL_TYPES {len(tets)}\n")
        fh.write("10\n" * len(tets))


# extension -> (reader or None for an output-only format, writer)
_FORMATS = {".mesh": (_read_medit, _write_medit), ".msh": (_read_gmsh2, _write_gmsh2),
            ".vtk": (None, _write_vtk)}


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
