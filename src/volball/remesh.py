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


def quality_metrics(mesh_or_tets, positions: np.ndarray | None = None) -> RemeshQuality:
    """Size and shape variation of a tet mesh.

    ``delta_size`` is the standard deviation of the tet volumes; the per-tet
    regularity sums |e_j / sum(e) - 1/6| over the six edge lengths, vanishing
    exactly for equilateral tets, and ``delta_shape`` is its mean.
    """
    if isinstance(mesh_or_tets, TetMesh):
        tets = mesh_or_tets.tets
        vertices = mesh_or_tets.vertices if positions is None else positions
    else:
        tets = np.asarray(mesh_or_tets)
        vertices = positions
    vertices = np.asarray(vertices, dtype=np.float64)
    vols = np.abs(signed_volumes(vertices, tets))
    edges = vertices[tets[:, EDGE_LOCAL[:, 0]]] - vertices[tets[:, EDGE_LOCAL[:, 1]]]
    lengths = np.linalg.norm(edges, axis=2)  # (m, 6)
    frac = lengths / lengths.sum(axis=1, keepdims=True)
    regularity = np.abs(frac - 1.0 / 6.0).sum(axis=1)
    return RemeshQuality(float(np.std(vols)), float(np.mean(regularity)), regularity)


def _closest_point_on_triangles(point: np.ndarray, tri: np.ndarray):
    """Closest point to ``point`` on each triangle of ``tri`` (k, 3, 3)."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac, ap = b - a, c - a, point - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = point - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = point - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = np.maximum(va + vb + vc, 1e-300)
    v = vb / denom
    w = vc / denom
    best = a + v[:, None] * ab + w[:, None] * ac

    # clamp to the three edges and corners where the interior projection
    # falls outside the triangle
    inside = (vb >= 0) & (vc >= 0) & (va >= 0)
    if not inside.all():
        out = ~inside
        cand = [best[out]]
        for p0, p1 in ((a[out], b[out]), (a[out], c[out]), (b[out], c[out])):
            d = p1 - p0
            t = np.clip(np.einsum("ij,ij->i", point - p0, d)
                        / np.maximum(np.einsum("ij,ij->i", d, d), 1e-300), 0.0, 1.0)
            cand.append(p0 + t[:, None] * d)
        cand = np.stack(cand, axis=1)
        dist = np.linalg.norm(cand - point, axis=2)
        pick = np.argmin(dist[:, 1:], axis=1) + 1
        best[out] = cand[np.arange(len(pick)), pick]
    return best


def pullback(source: TetMesh, forward_positions: np.ndarray,
             template: TetMesh) -> tuple[np.ndarray, int]:
    """Map template vertices back through the inverse of a forward map.

    Each template vertex is located inside the deformed source mesh
    (``forward_positions``), and its barycentric weights are replayed on the
    source's rest coordinates. Vertices that fall outside the deformed mesh
    (typically template boundary points beyond the piecewise-linear sphere)
    are snapped to the nearest deformed boundary face; the snap count is
    returned alongside the mapped positions.
    """
    forward_positions = np.asarray(forward_positions, dtype=np.float64)
    locator = PointLocator(forward_positions, source.tets)
    owners = source.boundary_owners
    tree = cKDTree(forward_positions[source.boundary_faces].mean(axis=1))

    out = np.empty((len(template.vertices), 3))
    snapped = 0
    for i, p in enumerate(template.vertices):
        bc = locator.locate(p)
        if bc is None:
            snapped += 1
            k = min(16, len(owners))
            _, cand = tree.query(p, k=k)
            cand = np.atleast_1d(cand)
            tri = forward_positions[source.boundary_faces[cand]]
            proj = _closest_point_on_triangles(p, tri)
            best = int(np.argmin(np.linalg.norm(proj - p, axis=1)))
            tet_id = int(owners[cand[best]])
            lam = barycentric_coordinates(forward_positions, source.tets,
                                          np.array([tet_id]), proj[best][None])[0]
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            out[i] = lam @ source.vertices[source.tets[tet_id]]
        else:
            out[i] = bc.lambdas @ source.vertices[source.tets[bc.tet_index]]
    return out, snapped
