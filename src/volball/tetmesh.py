"""Tetrahedral mesh container: validation, topology queries, point location."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .linsolve import AssemblyPlan


class MeshError(ValueError):
    """Base class for mesh construction and query failures."""


class DegenerateTetError(MeshError):
    pass


class TopologyError(MeshError):
    pass


# Local vertex triples of the four faces of a tet (0,1,2,3), oriented so the
# face normal points outward when the tet has positive signed volume.
FACE_LOCAL = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], dtype=np.int64)

# The six edges of a tet as local vertex pairs.
EDGE_LOCAL = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)

# Volume of a tet smaller than DEGENERACY_FACTOR * bbox_diagonal**3 is rejected.
DEGENERACY_FACTOR = 1e-14

INSIDE_TOL = 1e-9


def _det3(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 3 x 3 matrices (..., 3, 3), by cofactor
    expansion along the first row."""
    return (M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
            - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
            + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0]))


def signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volume of each tet: det of the edge matrix over 6."""
    e = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
    return _det3(e) / 6.0


def face_area_vectors(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Outward area vector of the face opposite each tet vertex, shape (m, 4, 3)."""
    corners = vertices[tets]  # (m, 4, 3)
    tri = corners[:, FACE_LOCAL]  # (m, 4, 3, 3)
    return 0.5 * np.cross(tri[:, :, 1] - tri[:, :, 0], tri[:, :, 2] - tri[:, :, 0])


def barycentric_coordinates(vertices: np.ndarray, tets: np.ndarray,
                            tet_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of ``points[i]`` inside ``tets[tet_ids[i]]``.

    Returns an array of shape (k, 4) whose rows sum to 1.
    """
    corners = vertices[tets[tet_ids]]          # (k, 4, 3)
    e = corners[:, 1:] - corners[:, :1]        # (k, 3, 3) rows are edges
    rhs = points - corners[:, 0]
    lam = np.linalg.solve(np.swapaxes(e, 1, 2), rhs[:, :, None])[..., 0]
    lam0 = 1.0 - lam.sum(axis=1)
    return np.column_stack([lam0, lam])


@dataclass(frozen=True)
class BarycentricCoord:
    """Location of a point inside a tet: tet index plus four weights."""

    tet_index: int
    lambdas: np.ndarray

    def point(self, vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
        return self.lambdas @ vertices[tets[self.tet_index]]


class PointLocator:
    """Uniform-grid accelerated point-in-tet queries.

    The grid cell size is roughly twice the mean edge length; cells store the
    tets whose bounding boxes overlap them. Queries fall back to an exhaustive
    scan when the grid lookup misses.
    """

    def __init__(self, vertices: np.ndarray, tets: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.tets = np.asarray(tets, dtype=np.int64)
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        edges = self.vertices[self.tets[:, EDGE_LOCAL[:, 0]]] - \
            self.vertices[self.tets[:, EDGE_LOCAL[:, 1]]]
        mean_edge = float(np.mean(np.linalg.norm(edges, axis=2)))
        cell = max(2.0 * mean_edge, 1e-12)
        span = np.maximum(hi - lo, 1e-12)
        dims = np.clip(np.ceil(span / cell).astype(int), 1, 64)
        self._lo = lo
        self._cell = span / dims
        self._dims = dims
        corners = self.vertices[self.tets]
        tlo = ((corners.min(axis=1) - lo) / self._cell).astype(int)
        thi = ((corners.max(axis=1) - lo) / self._cell).astype(int)
        tlo = np.clip(tlo, 0, dims - 1)
        thi = np.clip(thi, 0, dims - 1)
        buckets: dict[tuple[int, int, int], list[int]] = {}
        for t in range(len(self.tets)):
            for i in range(tlo[t, 0], thi[t, 0] + 1):
                for j in range(tlo[t, 1], thi[t, 1] + 1):
                    for k in range(tlo[t, 2], thi[t, 2] + 1):
                        buckets.setdefault((i, j, k), []).append(t)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    def _candidates(self, point: np.ndarray) -> np.ndarray:
        idx = ((point - self._lo) / self._cell).astype(int)
        idx = np.clip(idx, 0, self._dims - 1)
        return self._buckets.get((idx[0], idx[1], idx[2]), np.empty(0, dtype=np.int64))

    def locate(self, point, tol: float = INSIDE_TOL) -> BarycentricCoord | None:
        point = np.asarray(point, dtype=np.float64)
        for cand in (self._candidates(point), np.arange(len(self.tets))):
            if len(cand) == 0:
                continue
            lam = barycentric_coordinates(
                self.vertices, self.tets, cand, np.broadcast_to(point, (len(cand), 3)))
            worst = lam.min(axis=1)
            best = int(np.argmax(worst))
            if worst[best] >= -tol:
                return BarycentricCoord(int(cand[best]), lam[best])
        return None


@dataclass(frozen=True)
class TetMesh:
    """Immutable tetrahedral mesh with derived boundary surface.

    All tets are stored with positive signed volume (input tets with negative
    orientation are repaired at construction by swapping two vertices), the
    boundary is the set of faces incident to exactly one tet, and the boundary
    surface is required to be a single closed genus-0 triangle mesh.
    """

    vertices: np.ndarray            # (n, 3) float64
    tets: np.ndarray                # (m, 4) int64
    boundary_faces: np.ndarray      # (k, 3) int64, outward oriented
    boundary_vertex_mask: np.ndarray  # (n,) bool
    boundary_owners: np.ndarray     # (k,) int64, the tet of each boundary face

    @classmethod
    def from_arrays(cls, vertices, tets) -> "TetMesh":
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (n, 3), got {vertices.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"tets must be (m, 4), got {tets.shape}")
        n = len(vertices)
        if tets.size and (tets.min() < 0 or tets.max() >= n):
            raise MeshError("tet vertex index out of range")
        if len(tets) == 0:
            raise MeshError("mesh has no tetrahedra")
        sorted_t = np.sort(tets, axis=1)
        if np.any(sorted_t[:, :-1] == sorted_t[:, 1:]):
            bad = int(np.where(np.any(sorted_t[:, :-1] == sorted_t[:, 1:], axis=1))[0][0])
            raise DegenerateTetError(f"tet {bad} repeats a vertex")

        # Canonical orientation: make every signed volume positive.
        vols = signed_volumes(vertices, tets)
        flip = vols < 0
        if np.any(flip):
            tets = tets.copy()
            tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()
            vols = np.abs(vols)
        diag = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
        if np.any(vols < DEGENERACY_FACTOR * diag**3):
            bad = int(np.argmin(vols))
            raise DegenerateTetError(
                f"tet {bad} is degenerate (volume {vols[bad]:.3e})")

        used = np.zeros(n, dtype=bool)
        used[tets.ravel()] = True
        if not used.all():
            raise TopologyError(
                f"{int((~used).sum())} isolated vertices not referenced by any tet")

        boundary, owners = cls._extract_boundary(tets)
        mask = np.zeros(n, dtype=bool)
        mask[boundary.ravel()] = True
        cls._check_boundary_topology(boundary)

        for arr in (vertices, tets, boundary, mask, owners):
            arr.setflags(write=False)
        return cls(vertices, tets, boundary, mask, owners)

    @staticmethod
    def _extract_boundary(tets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Faces incident to exactly one tet, and the index of that tet."""
        faces = tets[:, FACE_LOCAL].reshape(-1, 3)
        key = np.sort(faces, axis=1)
        order = np.lexsort(key.T[::-1])
        key_sorted = key[order]
        new_group = np.ones(len(key_sorted), dtype=bool)
        new_group[1:] = np.any(key_sorted[1:] != key_sorted[:-1], axis=1)
        group_ids = np.cumsum(new_group) - 1
        counts = np.bincount(group_ids)
        if counts.max(initial=0) > 2:
            raise TopologyError("non-manifold face shared by more than two tets")
        single = order[counts[group_ids] == 1]
        return np.ascontiguousarray(faces[single]), single // 4

    @staticmethod
    def _check_boundary_topology(boundary: np.ndarray) -> None:
        if len(boundary) == 0:
            raise TopologyError("mesh has no boundary faces")
        bverts = np.unique(boundary)
        e = np.sort(boundary[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        eu, counts = np.unique(e, axis=0, return_counts=True)
        if np.any(counts != 2):
            raise TopologyError("boundary surface is not closed / not edge-manifold")
        euler = len(bverts) - len(eu) + len(boundary)
        if euler != 2:
            raise TopologyError(
                f"boundary surface is not genus-0 (Euler characteristic {euler})")
        remap = {v: i for i, v in enumerate(bverts)}
        ce = np.vectorize(remap.get)(eu)
        adj = coo_matrix((np.ones(len(ce)), (ce[:, 0], ce[:, 1])),
                         shape=(len(bverts), len(bverts)))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise TopologyError(f"boundary surface has {ncomp} components")

    # -- geometric queries ---------------------------------------------------

    @cached_property
    def volumes(self) -> np.ndarray:
        v = signed_volumes(self.vertices, self.tets)
        v.setflags(write=False)
        return v

    def signed_volume(self, tet_index: int) -> float:
        return float(signed_volumes(self.vertices, self.tets[tet_index:tet_index + 1])[0])

    def count_folds(self, positions: np.ndarray) -> int:
        """Number of tets whose signed volume under ``positions`` is <= 0."""
        return int(np.count_nonzero(signed_volumes(positions, self.tets) <= 0.0))

    @cached_property
    def assembly_plan(self) -> AssemblyPlan:
        """Pattern of the per-tet 4 x 4 element matrices (16 triplets per tet),
        shared by every operator assembled on this connectivity."""
        return AssemblyPlan.for_elements(self.tets, len(self.vertices))

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """Gradients of the four P1 hat functions on each rest tet, shape
        (m, 4, 3): -S / (3 V) from the face area vectors S."""
        g = -face_area_vectors(self.vertices, self.tets) / (3.0 * self.volumes[:, None, None])
        g.setflags(write=False)
        return g

    @cached_property
    def locator(self) -> PointLocator:
        return PointLocator(self.vertices, self.tets)

    def locate_point(self, point, tol: float = INSIDE_TOL) -> BarycentricCoord | None:
        return self.locator.locate(point, tol=tol)

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        idx = np.flatnonzero(self.boundary_vertex_mask)
        idx.setflags(write=False)
        return idx

    def boundary_surface(self) -> tuple[np.ndarray, np.ndarray]:
        """Boundary triangle mesh with compact vertex indexing.

        Returns (vertex_ids, faces): ``vertex_ids`` maps compact index back to
        the volume mesh, ``faces`` are outward-oriented triangles over the
        compact indices.
        """
        vertex_ids = self.boundary_vertices
        inv = np.full(len(self.vertices), -1, dtype=np.int64)
        inv[vertex_ids] = np.arange(len(vertex_ids))
        return vertex_ids, inv[self.boundary_faces]

    def enclosed_volume(self, positions: np.ndarray | None = None) -> float:
        """Volume of the region bounded by the boundary faces (divergence theorem)."""
        x = self.vertices if positions is None else positions
        tri = x[self.boundary_faces]
        return float(np.sum(np.einsum("ij,ij->i", tri[:, 0],
                                      np.cross(tri[:, 1], tri[:, 2]))) / 6.0)
