"""Uniform ball templates, inverse-map pullback, and remeshing quality scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .tetmesh import (EDGE_LOCAL, PointLocator, TetMesh,
                      barycentric_coordinates, signed_volumes)

_JITTER_SEED = 20240915


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([np.cos(theta) * np.sin(phi),
                            np.sin(theta) * np.sin(phi),
                            np.cos(phi)])


def uniform_ball_mesh(resolution: int = 3) -> TetMesh:
    """Near-uniform tetrahedralization of the unit ball.

    Points are laid out on concentric spherical shells with equal radial
    spacing and per-shell counts proportional to the shell area, then
    tetrahedralized with a Delaunay triangulation of the (convex) cloud. A
    deterministic sub-percent jitter breaks the cospherical degeneracies that
    would otherwise produce sliver tets.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
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
    cloud = np.vstack(points)
    tets = Delaunay(cloud).simplices
    return TetMesh.from_arrays(cloud, tets)


@dataclass(frozen=True)
class RemeshQuality:
    delta_size: float        # std of tet volumes
    delta_shape: float       # mean of per-tet regularities
    regularity: np.ndarray   # (m,) deviation of edge-length fractions from 1/6


def quality_metrics(tets: np.ndarray, positions: np.ndarray) -> RemeshQuality:
    """Size and shape variation of the tets ``tets`` at ``positions``.

    ``delta_size`` is the standard deviation of the tet volumes; the per-tet
    regularity sums |e_j / sum(e) - 1/6| over the six edge lengths, vanishing
    exactly for equilateral tets, and ``delta_shape`` is its mean.
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
    each of ``points``, sought on the 16 boundary faces of nearest centroid;
    the weights are clipped to be nonnegative and renormalised."""
    faces = source.boundary_faces
    k = min(16, len(faces))
    _, cand = cKDTree(forward_positions[faces].mean(axis=1)).query(points, k=k)
    cand = np.reshape(cand, (len(points), k))
    proj = _closest_point_on_triangles(points[:, None], forward_positions[faces[cand]])
    rows = np.arange(len(points))
    best = np.argmin(np.linalg.norm(proj - points[:, None], axis=2), axis=1)
    tets = source.boundary_owners[cand[rows, best]]
    lam = np.clip(barycentric_coordinates(forward_positions, source.tets, tets,
                                          proj[rows, best]), 0.0, None)
    return tets, lam / lam.sum(axis=1, keepdims=True)


def pullback(source: TetMesh, forward_positions: np.ndarray,
             template: TetMesh) -> tuple[np.ndarray, int]:
    """Map template vertices back through the inverse of a forward map.

    All template vertices are located at once inside the deformed source mesh
    (``forward_positions``), and their barycentric weights are replayed on the
    source's rest coordinates. Vertices that fall outside the deformed mesh
    (typically template boundary points beyond the piecewise-linear sphere)
    are snapped, again in one batch, to the nearest deformed boundary face;
    the snap count is returned alongside the mapped positions.
    """
    forward_positions = np.asarray(forward_positions, dtype=np.float64)
    tets, lam = PointLocator(forward_positions, source.tets).locate_points(template.vertices)
    missed = np.flatnonzero(tets < 0)
    if missed.size:
        tets[missed], lam[missed] = _snap(source, forward_positions,
                                          template.vertices[missed])
    out = np.matmul(lam[:, None, :], source.vertices[source.tets[tets]])[:, 0]
    return out, int(missed.size)
