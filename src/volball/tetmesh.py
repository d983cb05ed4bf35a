"""Tetrahedral mesh container: validation, topology queries, point location,
and the element connectivity shared by triangle and tet meshes.

Per-tet geometry is component-major, tet index last, so every elementwise
pass reads contiguous rows of length m: ``corner_edges`` returns (3, 3, m)
with ``E[:, k]`` edge k, and ``edge_geometry`` turns one such gather into
volumes and (4, 3, m) hat gradients, handing out their (m, 4, 3) view.
``component_major`` and ``per_tet`` switch views without a copy.

Errors: ``TetMesh.from_arrays`` raises ``MeshError`` on malformed arrays
(wrong shapes, bool or fractional indices, indices out of range,
non-finite coordinates) or more than ``MAX_VERTICES`` vertices,
``DegenerateTetError`` on a degenerate tet and ``TopologyError`` on a bad
topology, naming the first offending entry, vertex, tet, face or edge;
``PointLocator`` and ``barycentric_coordinates`` raise
``DegenerateTetError`` on a zero-volume tet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .linsolve import AssemblyPlan


class MeshError(ValueError):
    """Base class for mesh construction and query failures."""


class DegenerateTetError(MeshError):
    """A tet that repeats a vertex or whose volume is below
    ``DEGENERACY_FACTOR`` times the cube of the bounding-box diagonal
    (``TetMesh.from_arrays``), or of zero volume where barycentric
    coordinates are taken; the message names the tet."""


class TopologyError(MeshError):
    """A mesh that is not a simply-connected solid: isolated vertices, a face
    shared by more than two tets, no boundary, or a boundary that is not one
    closed, edge-manifold, genus-0 surface, or no tetrahedra at all (from
    ``TetMesh.from_arrays`` and ``load_mesh`` alike)."""


# Local vertex triples of the four faces of a tet (0,1,2,3), oriented so the
# face normal points outward when the tet has positive signed volume.
FACE_LOCAL = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], dtype=np.int64)

# The six edges of a tet as local vertex pairs.
EDGE_LOCAL = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)

# Volume of a tet smaller than DEGENERACY_FACTOR * bbox_diagonal**3 is rejected.
DEGENERACY_FACTOR = 1e-14

# Largest vertex count a mesh may have: the boundary extraction keys a face
# with sorted corners a < b < c by (a n + b) n + c <= n^3 - 1, an int64 up to
# n = 2^21.
MAX_VERTICES = 1 << 21

# A point lies in a tet when its smallest barycentric coordinate is >= -INSIDE_TOL.
INSIDE_TOL = 1e-9


def component_major(a: np.ndarray) -> np.ndarray:
    """The component-major view (..., m) of a per-tet stack (m, ...): its
    rows are contiguous when ``a`` is a view of that layout, as the stacks
    of ``tet_gradients`` and ``distortion.jacobian_per_tet`` are."""
    return np.moveaxis(a, 0, -1)


def per_tet(a: np.ndarray) -> np.ndarray:
    """The per-tet view (m, ...) of a component-major stack (..., m)."""
    return np.moveaxis(a, -1, 0)


def _unique_edges(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges among the vertex pairs (e, 2) as sorted pairs
    in lexicographic order, the order of the 1-D key i * n + j, and counts."""
    i, j = pairs[:, 0], pairs[:, 1]
    key, counts = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_counts=True)
    return np.column_stack([key // n, key % n]), counts


def _whole_indices(tets: np.ndarray) -> np.ndarray:
    """``tets`` as a C-ordered int64 array; ``MeshError`` naming the first
    entry the cast would truncate: any entry of a bool array, and an entry
    of a float, complex or object array that is not a whole number."""
    kind = tets.dtype.kind
    if kind not in "bfcO":
        return np.ascontiguousarray(tets, dtype=np.int64)
    values = tets.astype(np.complex128) if kind == "O" else tets
    bad = (np.ones(tets.shape, dtype=bool) if kind == "b"
           else ~np.isfinite(values) | (values != np.trunc(values.real)))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise MeshError(f"tet {i} corner {j} is {np.asarray(tets[i, j]).item()!r}, "
                        "not an integer index")
    return np.ascontiguousarray(values.real, dtype=np.int64)


def vertex_rings(faces: np.ndarray, n_vertices: int) -> csr_matrix:
    """Symmetric (n_vertices, n_vertices) adjacency of the edges of the
    triangles ``faces``; entry (i, j) counts the faces with edge ij."""
    e = np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    adj = coo_matrix((np.ones(2 * len(e)),
                      (np.concatenate([e[:, 0], e[:, 1]]),
                       np.concatenate([e[:, 1], e[:, 0]]))),
                     shape=(n_vertices, n_vertices))
    return adj.tocsr()


class Connectivity:
    """What depends only on an (m, k) element array, triangles (k = 3) or
    tets (k = 4), built once: the assembly plan of the symmetric k x k
    element matrices (k (k + 1) / 2 pairs each), each edge once, and the
    corners that element-to-vertex averages scatter over."""

    def __init__(self, elements: np.ndarray, n_vertices: int):
        self.elements = elements
        self.k = elements.shape[1]  # corners per element
        self.n_vertices = n_vertices
        self.plan = AssemblyPlan.for_elements(elements, n_vertices)
        self.corners = elements.reshape(-1)
        # slot of each (coordinate, corner) pair in a flattened (3, n) array
        self.coordinate_corners = (self.corners + n_vertices * np.arange(3)[:, None]).reshape(-1)

    @cached_property
    def edges(self) -> np.ndarray:
        """Distinct edges of the elements as sorted vertex pairs in
        lexicographic order, shape (e, 2)."""
        pairs = self.elements[:, list(combinations(range(self.k), 2))].reshape(-1, 2)
        e = _unique_edges(pairs, self.n_vertices)[0]
        e.setflags(write=False)
        return e

    def corner_weights(self, measures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The summed measure (area or volume) of the elements around each
        vertex, shape (n,), and the weight of each corner in the
        element-to-vertex means, shape (m k,): its element's measure over
        that sum at its vertex. One per-corner copy of the measures serves
        both."""
        per_corner = np.repeat(measures, self.k)
        incident = np.bincount(self.corners, weights=per_corner, minlength=self.n_vertices)
        return incident, per_corner / incident[self.corners]

    def to_vertices(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Measure-weighted mean of per-element scalars (m,) or vectors (m, 3)
        over the elements around each vertex, with the ``corner_weights`` of
        the measures (the second array). The weighted values are summed in corner order, which
        is bitwise the product with the row-stochastic incidence matrix. Vectors
        are weighted and summed one coordinate row after another, which reads
        the (3, m) arrays that the gradient kernels return views of in order.
        The (n, 3) result is C-ordered, as it was when summed by rows: the
        advection's ``np.einsum`` sums differently on another layout.
        """
        if values.ndim == 1:
            return np.bincount(self.corners, weights=weights * np.repeat(values, self.k),
                               minlength=self.n_vertices)
        terms = weights * np.repeat(values.T, self.k, axis=1)  # (3, m k)
        sums = np.bincount(self.coordinate_corners, weights=terms.reshape(-1),
                           minlength=3 * self.n_vertices)
        return np.ascontiguousarray(sums.reshape(3, -1).T)


def corner_edges(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Edge vectors from corner 0 of each tet, component-major (3, 3, m):
    ``E[r, k]`` is coordinate r of corner k + 1 minus corner 0, so ``E[:, k]``
    is edge k and E the edge matrix of each tet with the edges as columns.
    One ``take`` of the transposed positions gathers all corners."""
    xt = np.ascontiguousarray(np.transpose(vertices), dtype=np.float64)  # (3, n)
    x = xt.take(np.ascontiguousarray(np.transpose(tets)), axis=1)  # (3, 4, m)
    return x[:, 1:] - x[:, :1]


def _dot(u, v) -> np.ndarray:
    """Dot products of component-major vectors: sum_c u[c] v[c] over the
    leading axis, left to right."""
    out = u[0] * v[0]
    for c in range(1, len(u)):
        out = out + u[c] * v[c]
    return out


def _cross_into(out: np.ndarray, a, b) -> None:
    """Cross products of component-major vectors (rows x, y, z) into ``out``,
    the arithmetic of ``np.cross``."""
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])


def signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volume of each tet: det of the edge matrix over 6, bitwise the
    volumes of ``tet_gradients``."""
    return edge_geometry(corner_edges(vertices, tets), gradients=False)[0]


def edge_geometry(e: np.ndarray, gradients: bool = True):
    """Signed volumes (m,) and, with ``gradients``, P1 hat gradients (m, 4, 3)
    (else None) of the tets whose ``corner_edges`` are ``e``: with the edges
    a, b, c, corners 1-3 get the cofactors b x c, c x a, a x b over
    det = a . (b x c) (the rows of E^-1), corner 0 minus their sum. The
    gradients are a view of a (4, 3, m) component-major array; zero volumes
    give non-finite rows."""
    a, b, c = e[:, 0], e[:, 1], e[:, 2]
    g = np.empty((4 if gradients else 2, 3, e.shape[2]))  # g[1] = b x c either way
    _cross_into(g[1], b, c)
    det = _dot(a, g[1])
    if not gradients:
        return det / 6.0, None
    _cross_into(g[2], c, a)
    _cross_into(g[3], a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        g[1:] /= det
        np.negative(g[1] + g[2] + g[3], out=g[0])
    return det / 6.0, per_tet(g)


def tet_gradients(vertices, tets, tet_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Signed volumes (k,) and P1 hat gradients (k, 4, 3) of ``tets[tet_ids]``
    (every tet by default) under ``vertices``: ``edge_geometry`` of one
    ``corner_edges`` gather. The volumes are bitwise ``signed_volumes``."""
    return edge_geometry(corner_edges(vertices, tets if tet_ids is None else tets[tet_ids]))


def _invertible(vols: np.ndarray, tet_ids=None) -> None:
    """Raise DegenerateTetError naming the first tet of zero volume."""
    bad = np.flatnonzero(vols == 0.0)[:1]
    if bad.size:
        bad = bad if tet_ids is None else tet_ids[bad]
        raise DegenerateTetError(f"tet {bad[0]} has zero volume")


def _affine_barycentric(grad: np.ndarray, x0: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates e0 + G (p - x0), shape (k, 4), of ``points`` in
    tets with corner 0 at ``x0`` and hat gradients ``grad``; corner 0 takes 1
    minus the others, so rows sum to 1."""
    lam = np.einsum("kij,kj->ki", grad[:, 1:], points - x0)
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


def barycentric_coordinates(vertices: np.ndarray, tets: np.ndarray,
                            tet_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (k, 4), rows summing to 1, of ``points[i]`` in
    ``tets[tet_ids[i]]``."""
    tet_ids = np.asarray(tet_ids, dtype=np.int64)
    vols, grad = tet_gradients(vertices, tets, tet_ids)
    _invertible(vols, tet_ids)
    return _affine_barycentric(grad, vertices[tets[tet_ids, 0]], points)


# Nearest centroids tried first per point, and (point, tet) pairs evaluated
# at once, which bounds the locator's working memory.
LOCATE_NEAREST = 8
LOCATE_PAIRS = 1 << 15


class PointLocator:
    """Batched point-in-tet queries over a k-d tree of tet centroids.

    A point is tested against the tets of its ``LOCATE_NEAREST`` nearest
    centroids and, if none contains it, against every tet whose centroid lies
    within its own reach of the point, a tet's reach being its largest
    corner-to-centroid distance (the k-d tree gathers them within the
    largest reach of any tet). A tet that contains the point has its
    centroid that close, so the second pass finds whatever an exhaustive
    scan would.

    A point's pick depends on that point alone, not on the rest of its
    batch. A point placed in a tet T (coordinates >= -INSIDE_TOL, at most
    three of them negative) lies within 3 INSIDE_TOL diam(T) of T, so no
    point beyond the convex hull of ``vertices`` by more than that is ever
    placed: ``remesh.pullback`` sends the points beyond it by its far wider
    HULL_MARGIN straight to its misses, and no pick changes.
    """

    def __init__(self, vertices: np.ndarray, tets: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.tets = np.asarray(tets, dtype=np.int64)
        corners = self.vertices[self.tets]
        self._centroids = corners.mean(axis=1)
        self._tree = cKDTree(self._centroids)
        self._x0 = corners[:, 0]
        vols, grad = tet_gradients(self.vertices, self.tets)
        _invertible(vols)
        self._grad = np.ascontiguousarray(grad)  # gathered per candidate tet
        self._tet_reach = np.linalg.norm(corners - self._centroids[:, None], axis=2).max(axis=1)

    def locate_points(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Tet index (n,) and barycentric coordinates (n, 4) of each point: the
        tet whose smallest coordinate is largest, if that is >= -INSIDE_TOL;
        else -1 and a row of NaN."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        tet_index = np.full(len(points), -1, dtype=np.int64)
        lambdas = np.full((len(points), 4), np.nan)
        k = min(LOCATE_NEAREST, len(self.tets))
        for ids in np.array_split(np.arange(len(points)), len(points) * k // LOCATE_PAIRS + 1):
            near = self._tree.query(points[ids], k=k)[1]
            self._pick(points, np.repeat(ids, k), np.reshape(near, -1), tet_index, lambdas)

        # a tet containing p has |p - centroid| <= sum |lambda_i| * its reach
        # <= (1 + 6 INSIDE_TOL) * its reach; a candidate farther off cannot
        # be the one picked, so dropping it leaves the pick as it was
        slack = 1.0 + 1e-6 + 6.0 * INSIDE_TOL
        radius = float(self._tet_reach.max()) * slack
        missed = np.flatnonzero(tet_index < 0)
        counts = self._tree.query_ball_point(points[missed], radius, return_length=True)
        # batches of about LOCATE_PAIRS pairs (plus at most one point's)
        cuts = np.flatnonzero(np.diff(np.cumsum(counts) // LOCATE_PAIRS)) + 1
        for ids, n_ids in zip(np.split(missed, cuts), np.split(counts, cuts)):
            near = self._tree.query_ball_point(points[ids], radius, return_sorted=True)
            cand = np.fromiter(chain.from_iterable(near), dtype=np.int64, count=int(n_ids.sum()))
            owner = np.repeat(ids, n_ids)
            close = (np.linalg.norm(points[owner] - self._centroids[cand], axis=1)
                     <= self._tet_reach[cand] * slack)
            self._pick(points, owner[close], cand[close], tet_index, lambdas)
        return tet_index, lambdas

    def _pick(self, points, owner, cand, tet_index, lambdas) -> None:
        """Give each point ``owner[j]`` (sorted) its first candidate tet
        ``cand[j]`` of largest smallest coordinate, if that is >= -INSIDE_TOL."""
        if cand.size == 0:
            return
        lam = _affine_barycentric(self._grad[cand], self._x0[cand], points[owner])
        worst = np.minimum(np.minimum(lam[:, 0], lam[:, 1]), np.minimum(lam[:, 2], lam[:, 3]))
        new = np.r_[True, owner[1:] != owner[:-1]]
        group = np.cumsum(new) - 1
        hits = np.flatnonzero(worst == np.maximum.reduceat(worst, np.flatnonzero(new))[group])
        head = hits[np.r_[True, group[hits[1:]] != group[hits[:-1]]]]
        head = head[worst[head] >= -INSIDE_TOL]
        tet_index[owner[head]] = cand[head]
        lambdas[owner[head]] = lam[head]

    def locate(self, point) -> tuple[int, np.ndarray] | None:
        """``locate_points`` for one point: (tet, lambdas), or None when it
        lies in no tet."""
        tet, lam = self.locate_points(np.asarray(point, dtype=np.float64)[None])
        return None if tet[0] < 0 else (int(tet[0]), lam[0])


@dataclass(frozen=True)
class TetMesh:
    """Immutable tetrahedral mesh with derived boundary surface.

    All tets are stored with positive signed volume (input tets with negative
    orientation are repaired at construction by swapping two vertices), the
    boundary is the set of faces incident to exactly one tet, and the boundary
    surface is required to be a single closed genus-0 triangle mesh.

    ``from_arrays`` is the checked path: it validates the arrays (shapes,
    whole indices in range, finite coordinates, distinct corners, volume,
    no isolated vertex, manifold faces, boundary topology) and derives the
    orientation and the boundary. ``_from_validated`` checks nothing and
    derives only the boundary vertex mask, for arrays ``from_arrays`` has
    already derived, such as the stored ball templates of
    ``remesh.uniform_ball_mesh``.
    """

    vertices: np.ndarray            # (n, 3) float64
    tets: np.ndarray                # (m, 4) int64
    boundary_faces: np.ndarray      # (k, 3) int64, outward oriented
    boundary_vertex_mask: np.ndarray  # (n,) bool
    boundary_owners: np.ndarray     # (k,) int64, the tet of each boundary face

    @classmethod
    def from_arrays(cls, vertices, tets) -> "TetMesh":
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        tets = np.asarray(tets)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (n, 3), got {vertices.shape}")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"tets must be (m, 4), got {tets.shape}")
        tets = _whole_indices(tets)
        n = len(vertices)
        if tets.size and (tets.min() < 0 or tets.max() >= n):
            raise MeshError("tet vertex index out of range")
        if len(tets) == 0:
            raise TopologyError("mesh has no tetrahedra")
        repeats = np.zeros(len(tets), dtype=bool)
        for i, j in EDGE_LOCAL:
            repeats |= tets[:, i] == tets[:, j]
        if repeats.any():
            raise DegenerateTetError(f"tet {int(np.argmax(repeats))} repeats a vertex")
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise MeshError(f"vertex {bad} has a non-finite coordinate {vertices[bad].tolist()}")

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

        mesh = cls._from_validated(vertices, tets, *cls._extract_boundary(tets, n))
        cls._check_boundary_topology(mesh.boundary_faces, mesh.boundary_vertex_mask)
        return mesh

    @classmethod
    def _from_validated(cls, vertices, tets, boundary_faces, boundary_owners) -> "TetMesh":
        """The mesh of arrays as ``from_arrays`` derives them: float64 and
        int64, C-ordered, positively oriented tets and their boundary faces
        and owners. It derives the boundary vertex mask, makes every array
        read-only and checks nothing."""
        mask = np.zeros(len(vertices), dtype=bool)
        mask[boundary_faces.ravel()] = True
        for arr in (vertices, tets, boundary_faces, mask, boundary_owners):
            arr.setflags(write=False)
        return cls(vertices, tets, boundary_faces, mask, boundary_owners)

    @staticmethod
    def _extract_boundary(tets: np.ndarray, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
        """Faces incident to exactly one tet, and the index of that tet, in
        the order of the faces' sorted corners. ``MeshError`` above
        ``MAX_VERTICES``; ``TopologyError`` naming the first face (in that
        order) of more than two tets."""
        if n_vertices > MAX_VERTICES:
            raise MeshError(f"{n_vertices} vertices: boundary extraction keys faces "
                            f"by one int64, which holds at most {MAX_VERTICES}")
        faces = tets[:, FACE_LOCAL].reshape(-1, 3)
        # each face's corners sorted a < b < c by a min/max network, keyed
        # (a n + b) n + c, whose order is the lexicographic order of (a, b, c);
        # a boundary face's key is unique, so any sort lists the boundary
        # faces in the same order
        f0, f1, f2 = faces.T
        lo, hi = np.minimum(f0, f1), np.maximum(f0, f1)
        mid = np.maximum(lo, f2)
        key = np.minimum(lo, f2) * n_vertices + np.minimum(hi, mid)
        key = key * n_vertices + np.maximum(hi, mid)
        order = np.argsort(key)
        key = key[order]
        # differs[j]: sorted faces j - 1 and j differ (true at both ends)
        differs = np.ones(len(key) + 1, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=differs[1:-1])
        triple = ~(differs[1:-2] | differs[2:-1])  # faces j, j + 1 and j + 2 equal
        if triple.any():
            j = int(np.argmax(triple))
            count = int(np.searchsorted(key, key[j], side="right")) - j
            a, b, c = np.sort(faces[order[j]]).tolist()
            raise TopologyError("non-manifold face shared by more than two tets: "
                                f"face ({a}, {b}, {c}) is in {count} tets")
        single = order[differs[:-1] & differs[1:]]
        return np.ascontiguousarray(faces[single]), single // 4

    @staticmethod
    def _check_boundary_topology(boundary: np.ndarray, mask: np.ndarray) -> None:
        """Raise ``TopologyError`` unless the faces ``boundary``, whose
        vertices ``mask`` marks, form one closed, edge-manifold, genus-0
        surface; a fault names its first edge or the counts it read."""
        if len(boundary) == 0:
            raise TopologyError("mesh has no boundary faces")
        bverts = np.flatnonzero(mask)
        compact = np.zeros(len(mask), dtype=np.int64)
        compact[bverts] = np.arange(len(bverts))
        pairs = compact[boundary][:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
        eu, counts = _unique_edges(pairs, len(bverts))  # over compact indices
        bad = np.flatnonzero(counts != 2)
        if bad.size:
            a, b = bverts[eu[bad[0]]].tolist()
            raise TopologyError("boundary surface is not closed / not edge-manifold: "
                                f"edge ({a}, {b}) is in {counts[bad[0]]} faces")
        # components first: k closed genus-0 components sum to Euler
        # characteristic 2k, which the genus test would misname
        adj = coo_matrix((np.ones(len(eu)), (eu[:, 0], eu[:, 1])),
                         shape=(len(bverts), len(bverts)))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise TopologyError(f"boundary surface has {ncomp} components")
        euler = len(bverts) - len(eu) + len(boundary)
        if euler != 2:
            raise TopologyError(
                f"boundary surface is not genus-0 (Euler characteristic {euler})")

    # -- geometric queries ---------------------------------------------------

    @cached_property
    def volumes(self) -> np.ndarray:
        v = signed_volumes(self.vertices, self.tets)
        v.setflags(write=False)
        return v

    def count_folds(self, positions: np.ndarray) -> int:
        """Number of tets whose signed volume under ``positions`` is <= 0."""
        return int(np.count_nonzero(signed_volumes(positions, self.tets) <= 0.0))

    @cached_property
    def connectivity(self) -> Connectivity:
        """The tets' assembly plan (10 pairs per tet, shared by every
        operator assembled on this mesh), edges and corner scatter slots."""
        return Connectivity(self.tets, len(self.vertices))

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """P1 hat gradients (m, 4, 3) of the rest tets, from ``tet_gradients``
        (a view of its component-major (4, 3, m) array)."""
        g = tet_gradients(self.vertices, self.tets)[1]
        g.setflags(write=False)
        return g

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        idx = np.flatnonzero(self.boundary_vertex_mask)
        idx.setflags(write=False)
        return idx

    @cached_property
    def boundary_rings(self) -> csr_matrix:
        """``vertex_rings`` of the boundary surface in the compact indexing of
        ``boundary_surface``, built once, with read-only arrays."""
        rings = vertex_rings(self.boundary_surface()[1], len(self.boundary_vertices))
        for arr in (rings.data, rings.indices, rings.indptr):
            arr.setflags(write=False)
        return rings

    def boundary_surface(self) -> tuple[np.ndarray, np.ndarray]:
        """(vertex_ids, faces): the boundary vertices, which map compact index
        to volume index, and the outward triangles over compact indices."""
        vertex_ids = self.boundary_vertices
        inv = np.full(len(self.vertices), -1, dtype=np.int64)
        inv[vertex_ids] = np.arange(len(vertex_ids))
        return vertex_ids, inv[self.boundary_faces]

    def enclosed_volume(self) -> float:
        """Volume of the region bounded by the boundary faces (divergence theorem).
        Kept as a volume oracle independent of the tets: the tests and demo 01
        check the tets' volume sum against it."""
        tri = self.vertices[self.boundary_faces]
        return float(np.sum(tri[:, 0] * np.cross(tri[:, 1], tri[:, 2])) / 6.0)
