"""Uniform ball templates, inverse-map pullback, and remeshing quality scores.

A ball template's connectivity is the Delaunay triangulation of its point
cloud (``_ball_cloud``). For resolutions 1-3 the package file
``ball_tets.npz`` stores it as ``TetMesh.from_arrays`` derives it from
qhull's tets: the oriented tets and the boundary faces and owners, as int16
arrays ``r<resolution>_tets``, ``r<resolution>_boundary_faces`` and
``r<resolution>_boundary_owners``. A stored template costs no qhull run and
no validation, and does not depend on the installed qhull version.
Regenerate the file from the repository root with

    PYTHONPATH=src python -c "import numpy as np; from scipy.spatial import Delaunay; from volball.remesh import _ball_cloud, _STORED_FIELDS; from volball.tetmesh import TetMesh; meshes = {r: TetMesh.from_arrays(_ball_cloud(r), Delaunay(_ball_cloud(r)).simplices) for r in (1, 2, 3)}; np.savez('src/volball/ball_tets.npz', **{f'r{r}_{name}': getattr(m, name).astype(np.int16) for r, m in meshes.items() for name in _STORED_FIELDS})"
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from numbers import Integral

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, cKDTree

from .tetmesh import (EDGE_LOCAL, INSIDE_TOL, LOCATE_PAIRS, PointLocator, TetMesh,
                      barycentric_coordinates, signed_volumes)

_JITTER_SEED = 20240915
# uniform_ball_mesh's stored meshes: the int16 arrays "r<resolution>_<name>"
# for each TetMesh field in _STORED_FIELDS and each resolution
# 1.._STORED_RESOLUTIONS, which covers the CLI's default and every
# resolution the benchmark and the tests build
_TEMPLATE_FILE = "ball_tets.npz"
_STORED_FIELDS = ("tets", "boundary_faces", "boundary_owners")
_STORED_RESOLUTIONS = 3

# A point whose barycentric coordinates in a tet are all >= -INSIDE_TOL lies
# within 3 INSIDE_TOL times the tet's diameter of it (PointLocator), so at
# most 3 INSIDE_TOL times the bounding-box diagonal beyond any facet plane
# of the hull around it. The margin is over twenty times that bound, so
# rounding in the coordinates and in qhull's facet equations cannot carry a
# point the locator would place past it.
HULL_MARGIN = 64 * INSIDE_TOL


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([np.cos(theta) * np.sin(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(phi)])


def _ball_cloud(resolution: int) -> np.ndarray:
    """The point cloud of ``uniform_ball_mesh(resolution)``: the centre,
    then concentric spherical shells with equal radial spacing and per-shell
    Fibonacci counts proportional to the shell area. A deterministic
    sub-percent jitter breaks the cospherical degeneracies that would
    otherwise produce sliver tets."""
    shells = 3 * resolution
    n_outer = 120 * resolution * resolution
    rng = np.random.default_rng(_JITTER_SEED)
    points = [np.zeros((1, 3))]
    spacing = 1.0 / shells
    for k in range(1, shells + 1):
        r = k / shells
        nk = max(8, int(round(n_outer * r * r)))
        shell = fibonacci_sphere(nk)
        if k < shells:
            shell = shell * r + 0.05 * spacing * rng.standard_normal((nk, 3))
        else:
            # keep the outer shell spherical; shrink radii a hair to break
            # the exact cosphericity
            shell = shell * (r - 5e-5 * spacing * rng.random((nk, 1)))
        points.append(shell)
    return np.vstack(points)


def uniform_ball_mesh(resolution: int = 3) -> TetMesh:
    """Near-uniform tetrahedralization of the unit ball: the Delaunay
    triangulation of ``_ball_cloud(resolution)``, a convex cloud.

    Resolutions 1 to ``_STORED_RESOLUTIONS`` read, on each call, the tets,
    boundary faces and owners that ``TetMesh.from_arrays`` derives from
    qhull's tets, from the package file ``_TEMPLATE_FILE`` (see the module
    docstring), and run no check: the tests compare the stored arrays with
    that derivation. Higher resolutions run qhull and ``from_arrays``,
    with all its checks.

    ValueError unless ``resolution`` is an integer (not a bool) >= 1;
    FileNotFoundError when a stored resolution's file is missing.
    """
    # a bool is an Integral too, but True would read as resolution 1
    if isinstance(resolution, bool) or not isinstance(resolution, Integral):
        raise ValueError(f"resolution must be an integer, not {resolution!r}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    cloud = _ball_cloud(int(resolution))
    if resolution > _STORED_RESOLUTIONS:
        return TetMesh.from_arrays(cloud, Delaunay(cloud).simplices)
    with resources.files(__package__).joinpath(_TEMPLATE_FILE).open("rb") as f, \
            np.load(f) as stored:
        fields = [stored[f"r{resolution}_{name}"].astype(np.int64) for name in _STORED_FIELDS]
    return TetMesh._from_validated(cloud, *fields)


@dataclass(frozen=True)
class RemeshQuality:
    delta_size: float        # std of tet volumes
    delta_shape: float       # mean of per-tet regularities
    regularity: np.ndarray   # (m,) deviation of edge-length fractions from 1/6


def quality_metrics(tets: np.ndarray, positions: np.ndarray) -> RemeshQuality:
    """Size and shape variation of the tets ``tets`` at ``positions``.

    ``delta_size`` is the standard deviation of the tet volumes, taken as
    |signed volume|, so an inverted tet scores as its mirror image; the
    per-tet regularity sums |e_j / sum(e) - 1/6| over the six edge lengths,
    vanishing exactly for equilateral tets, and ``delta_shape`` is its mean.
    Neither reveals inverted tets: ``TetMesh.count_folds`` counts them.
    """
    tets = np.asarray(tets)
    vertices = np.asarray(positions, dtype=np.float64)
    vols = np.abs(signed_volumes(vertices, tets))
    edges = vertices[tets[:, EDGE_LOCAL[:, 0]]] - vertices[tets[:, EDGE_LOCAL[:, 1]]]
    lengths = np.linalg.norm(edges, axis=2)  # (m, 6)
    frac = lengths / lengths.sum(axis=1, keepdims=True)
    regularity = np.abs(frac - 1.0 / 6.0).sum(axis=1)
    return RemeshQuality(float(np.std(vols)), float(np.mean(regularity)), regularity)


def _dot(x, y):
    return np.einsum("...j,...j->...", x, y)


def _closest_point_on_triangles(points: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Closest point to ``points`` (..., 3) on each triangle of ``tri``
    (..., 3, 3), the two broadcast against each other."""
    a, b, c = tri[..., 0, :], tri[..., 1, :], tri[..., 2, :]
    ab, ac, ap = b - a, c - a, points - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = points - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = points - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = np.maximum(va + vb + vc, 1e-300)
    v = vb / denom
    w = vc / denom
    best = a + v[..., None] * ab + w[..., None] * ac

    # clamp to the three edges and corners where the interior projection
    # falls outside the triangle
    out = ~((vb >= 0) & (vc >= 0) & (va >= 0))
    if out.any():
        p = np.broadcast_to(points, best.shape)[out]
        cand = []
        for p0, p1 in ((a[out], b[out]), (a[out], c[out]), (b[out], c[out])):
            d = p1 - p0
            t = np.clip(_dot(p - p0, d) / np.maximum(_dot(d, d), 1e-300), 0.0, 1.0)
            cand.append(p0 + t[:, None] * d)
        cand = np.stack(cand, axis=1)
        pick = np.argmin(np.linalg.norm(cand - p[:, None], axis=2), axis=1)
        best[out] = cand[np.arange(len(pick)), pick]
    return best


def _snap(source: TetMesh, forward_positions: np.ndarray,
          points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner tet and weights of the closest point on the deformed boundary to
    each of ``points``, sought on the 16 boundary faces of nearest centroid
    (the first of them on a tie); the weights are clipped to be nonnegative
    and renormalised.

    A face lies within its reach (largest corner-to-centroid distance) of
    its centroid, so it is no closer to a point than their distance minus
    that reach. Only faces whose bound does not exceed the distance to the
    nearest centroid's face, with a 1e-9 relative slack for rounding, get a
    closest point; the rest cannot be picked, and each pair's arithmetic
    does not depend on the others, so the picks are those of all 16."""
    faces = source.boundary_faces
    tri = forward_positions[faces]
    centroids = tri.mean(axis=1)
    reach = np.linalg.norm(tri - centroids[:, None], axis=2).max(axis=1)
    k = min(16, len(faces))
    dist, cand = cKDTree(centroids).query(points, k=k)
    dist, cand = np.reshape(dist, (len(points), k)), np.reshape(cand, (len(points), k))
    proj = np.empty((len(points), k, 3))
    proj[:, 0] = _closest_point_on_triangles(points, tri[cand[:, 0]])
    gap = np.full((len(points), k), np.inf)
    gap[:, 0] = np.linalg.norm(proj[:, 0] - points, axis=1)
    near = gap[:, :1] + 1e-9 * (dist[:, 1:] + gap[:, :1])
    rows, cols = np.nonzero(dist[:, 1:] - reach[cand[:, 1:]] <= near)
    cols += 1
    proj[rows, cols] = _closest_point_on_triangles(points[rows], tri[cand[rows, cols]])
    gap[rows, cols] = np.linalg.norm(proj[rows, cols] - points[rows], axis=1)
    rows = np.arange(len(points))
    best = np.argmin(gap, axis=1)
    tets = source.boundary_owners[cand[rows, best]]
    lam = np.clip(barycentric_coordinates(forward_positions, source.tets, tets,
                                          proj[rows, best]), 0.0, None)
    return tets, lam / lam.sum(axis=1, keepdims=True)


def _beyond_hull(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the ``points`` farther than HULL_MARGIN times the bounding-box
    diagonal of ``vertices`` beyond a facet plane of their convex hull (qhull's
    Quickhull, outward unit normals n and offsets d): max(n . p + d) exceeds
    the margin. ``PointLocator`` locates no such point in any tet over
    ``vertices`` (see its docstring). Rows go in batches of about
    LOCATE_PAIRS (point, facet) pairs."""
    equations = ConvexHull(vertices).equations
    normals = np.ascontiguousarray(equations[:, :3].T)
    offsets = np.ascontiguousarray(equations[:, 3])
    margin = HULL_MARGIN * float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    step = max(1, LOCATE_PAIRS // len(offsets))
    worst = []
    for i in range(0, len(points), step):
        violation = points[i:i + step] @ normals
        violation += offsets
        worst.append(violation.max(axis=1))
    return np.concatenate(worst) > margin


def pullback(source: TetMesh, forward_positions: np.ndarray,
             template: TetMesh) -> tuple[np.ndarray, int]:
    """Map template vertices back through the inverse of a forward map.

    The template vertices are located at once inside the deformed source mesh
    (``forward_positions``), and their barycentric weights are replayed on the
    source's rest coordinates. Vertices that fall outside the deformed mesh
    (typically template boundary points beyond the piecewise-linear sphere)
    are snapped, again in one batch and in index order, to the nearest
    deformed boundary face; the snap count is returned alongside the mapped
    positions.

    A vertex beyond the convex hull of all forward positions by more than
    HULL_MARGIN times their bounding-box diagonal (``_beyond_hull``) skips
    point location: every tet, folded or not, lies inside that hull, so the
    locator would miss it, and it joins the misses as it would have. Every
    other vertex is located as one batch, and a point's pick does not depend
    on the rest of its batch, so positions and snap count are those of
    locating every vertex.
    """
    forward_positions = np.asarray(forward_positions, dtype=np.float64)
    locator = PointLocator(forward_positions, source.tets)
    tets = np.full(len(template.vertices), -1, dtype=np.int64)
    lam = np.full((len(template.vertices), 4), np.nan)
    near = np.flatnonzero(~_beyond_hull(forward_positions, template.vertices))
    tets[near], lam[near] = locator.locate_points(template.vertices[near])
    missed = np.flatnonzero(tets < 0)
    if missed.size:
        tets[missed], lam[missed] = _snap(source, forward_positions,
                                          template.vertices[missed])
    out = np.matmul(lam[:, None, :], source.vertices[source.tets[tets]])[:, 0]
    return out, int(missed.size)
