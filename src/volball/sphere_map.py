"""Bijective spherical maps for the boundary surface of a solid.

The boundary, a closed genus-0 triangle mesh, goes to the unit sphere by a
centred radial projection smoothed with mean-value weights, keeping the
latest flip-free round, and in density mode then by the surface
density-equalizing flow, the volume flow's ``density.flow_step`` one
dimension down. Flipped spherical triangles left by a flow round, or by the
volume overlap correction, are repaired by truncating the per-triangle
Beltrami coefficient in a stereographic chart and re-solving its elliptic
system. One ``triangle_geometry`` pass per round serves the density, the
cotangent weights, the face gradient and the flip test.

Layout: per-triangle geometry is component-major as in ``tetmesh``, triangle
index last: a ``TriangleGeometry`` holds (3, 3, m) corners and edges and
(3, m) normals, gathered by one ``take`` of the transposed points, and the
kernels read its contiguous rows. ``face_normals_areas`` and
``surface_gradient`` hand out their (m, 3) results as views of (3, m)
arrays. Every kernel equals its row-major form bitwise.

Contract: the maps returned by ``spherical_embedding``,
``correct_spherical_flips``, ``surface_density_equalize`` (from a
flip-free start) and ``compute_boundary_sphere_map`` have unit-norm rows
and no flipped triangle; where none can be reached, they raise
``SphereMapError`` (a ``tetmesh.MeshError``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from . import density, linsolve
from .laplace import p1_blocks
from .tetmesh import Connectivity, MeshError, TetMesh, _cross_into, _dot, vertex_rings

# Mean-value smoothing rounds of the spherical embedding.
SMOOTH_ITERS = 20

logger = logging.getLogger("volball")


class SphereMapError(MeshError):
    pass


@dataclass(frozen=True)
class BoundaryMap:
    """Unit-sphere images of the boundary vertices of a solid mesh."""

    vertex_indices: np.ndarray  # (k,) indices into the volume mesh
    points: np.ndarray          # (k, 3) unit vectors

    @classmethod
    def checked(cls, vertex_indices: np.ndarray, faces: np.ndarray,
                points: np.ndarray) -> "BoundaryMap":
        """The map with rows normalised and frozen; raises SphereMapError if
        any triangle of ``faces`` is flipped."""
        flips = int(spherical_flips(points, faces).sum())
        if flips:
            raise SphereMapError(f"boundary map has {flips} flipped triangles")
        points = normalize_rows(points)
        points.setflags(write=False)
        return cls(vertex_indices, points)


# -- triangle geometry -------------------------------------------------------

# Corner k's successor (first three) and predecessor (last three) in a
# triangle, one index for a single ``take``.
NEXT_PREV = np.array([1, 2, 0, 2, 0, 1])


@dataclass(frozen=True)
class TriangleGeometry:
    """One pass over the triangles of a surface, component-major with the
    triangle index last.

    ``corners[r, k]`` is coordinate r of corner k. ``edges[:, k]`` is the
    edge opposite corner k, from corner k+1 to corner k+2 (mod 3);
    ``normals`` is the unnormalised normal edges[:, 1] x edges[:, 2], and
    ``area2`` its norm, twice the triangle's area.
    """

    corners: np.ndarray  # (3, 3, m) corner positions
    edges: np.ndarray    # (3, 3, m)
    normals: np.ndarray  # (3, m)
    area2: np.ndarray    # (m,)

    @property
    def flipped(self) -> np.ndarray:
        """Mask of triangles whose corner determinant det(x0, x1, x2) =
        x0 . normal is not positive: the orientation test of a triangle
        inscribed in the unit sphere."""
        return _dot(self.corners[:, 0], self.normals) <= 0.0


def triangle_geometry(points: np.ndarray, faces: np.ndarray) -> TriangleGeometry:
    """Corners, edges, normals and doubled areas of the triangles ``faces``,
    in component arithmetic; one ``take`` of the transposed points gathers
    all corners."""
    xt = np.ascontiguousarray(np.transpose(points), dtype=np.float64)  # (3, n)
    x = xt.take(np.ascontiguousarray(np.transpose(faces)), axis=1)  # (3, 3, m)
    turned = x.take(NEXT_PREV, axis=1)
    edges = turned[:, 3:] - turned[:, :3]
    normals = np.empty((3, x.shape[2]))
    _cross_into(normals, edges[:, 1], edges[:, 2])
    # summed in the order np.linalg.norm sums, so areas match it bitwise
    area2 = np.sqrt(_dot(normals, normals))
    return TriangleGeometry(x, edges, normals, area2)


def face_normals_areas(points: np.ndarray, faces: np.ndarray):
    """Unit normals (m, 3) (zero on degenerate triangles; a view of a (3, m)
    array) and areas (m,) of the faces."""
    g = triangle_geometry(points, faces)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(g.area2 > 0, g.normals / g.area2, 0.0)
    return unit.T, 0.5 * g.area2


# The entries i <= j of a triangle's local Laplacian, row-major, as rows of
# the (6, m) stack [-w0, -w1, -w2, w1 + w2, w2 + w0, w0 + w1] below.
_LOCAL_ENTRIES = np.array([3, 2, 1, 4, 0, 5])


def surface_laplacian(geometry: TriangleGeometry,
                      plan: linsolve.AssemblyPlan) -> linsolve.LinearSystem:
    """PSD cotangent Laplacian of a triangle mesh, the system of
    ``plan = AssemblyPlan.for_elements(faces, n_vertices)``.

    The edge opposite corner k weighs w_k = cot(angle k) / 2 = -e_{k+1} .
    e_{k+2} / (2 |n|), the edges and normal taken from ``geometry``; the
    entries i <= j of the local matrices go to ``linsolve.assemble``
    triangle by triangle, each row-major.
    """
    e = geometry.edges.take(NEXT_PREV, axis=1)
    w = -0.5 * _dot(e[:, :3], e[:, 3:]) / np.maximum(geometry.area2, 1e-300)
    stack = np.empty((6, w.shape[1]))
    np.negative(w, out=stack[:3])
    w = w.take(NEXT_PREV, axis=0)
    np.add(w[:3], w[3:], out=stack[3:])
    return linsolve.assemble(plan, stack.T.take(_LOCAL_ENTRIES, axis=1).reshape(-1))


def surface_gradient(geometry: TriangleGeometry, corner_values: np.ndarray) -> np.ndarray:
    """Per-face gradient of a vertexwise-linear field from its values (m, 3)
    at the face corners: n x (sum_k v_k e_k) / |n|^2, shape (m, 3), a view
    of a (3, m) array."""
    e, v = geometry.edges, corner_values.T
    s = e[:, 0] * v[0] + e[:, 1] * v[1] + e[:, 2] * v[2]
    grad = np.empty_like(s)
    _cross_into(grad, geometry.normals, s)
    grad /= geometry.area2 * geometry.area2
    return grad.T


def relax_patch(points: np.ndarray, adj: csr_matrix, seeds: np.ndarray,
                w: float) -> np.ndarray:
    """Move the ``seeds`` vertices and their one-ring three times a fraction
    ``w`` toward their ring mean, projecting back onto the unit sphere."""
    patch = seeds | ((adj @ seeds) > 0)
    degree = np.asarray(adj.sum(axis=1)).ravel()
    out = points.copy()
    for _ in range(3):
        mean = (adj @ out) / degree[:, None]
        target = normalize_rows((1.0 - w) * out + w * mean)
        out[patch] = target[patch]
    return out


def spherical_flips(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Mask of spherical triangles with non-outward orientation."""
    return triangle_geometry(points, faces).flipped


def normalize_rows(x: np.ndarray) -> np.ndarray:
    return x / density._row_norms(x)[:, None]


def center_sphere(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """One recentring step: translate by the area centroid and reproject.

    One step, not a loop: a translation barely moves the area centroid of an
    inscribed polyhedron, and exact centring raises 3dqc's mean_K (CHANGES.md,
    "One centring step per smoothing round").
    """
    g = triangle_geometry(points, faces)
    areas = 0.5 * g.area2
    x = g.corners
    # the area-weighted corner means in (m, 3) rows, summed down the rows as
    # the row-major form sums them, so the centroid is bitwise the same
    weighted = np.empty((len(areas), 3))
    np.multiply(areas, (x[:, 0] + x[:, 1] + x[:, 2]) / 3.0, out=weighted.T)
    centroid = weighted.sum(axis=0) / areas.sum()
    return normalize_rows(points - centroid)


# -- stereographic charts and Beltrami machinery -----------------------------


def stereographic(points: np.ndarray, pole: float) -> np.ndarray:
    """Complex chart projecting from (0, 0, pole); pole is +1 or -1."""
    denom = 1.0 - pole * points[:, 2]
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    return (points[:, 0] + 1j * points[:, 1]) / denom


def inverse_stereographic(w: np.ndarray, pole: float) -> np.ndarray:
    r2 = np.abs(w) ** 2
    d = 1.0 + r2
    return np.column_stack([2.0 * w.real / d, 2.0 * w.imag / d,
                            pole * (r2 - 1.0) / d])


def beltrami_coefficient(z_domain: np.ndarray, w_image: np.ndarray,
                         faces: np.ndarray) -> np.ndarray:
    """Per-triangle Beltrami coefficient of the planar map z -> w."""
    dz1 = z_domain[faces[:, 1]] - z_domain[faces[:, 0]]
    dz2 = z_domain[faces[:, 2]] - z_domain[faces[:, 0]]
    dw1 = w_image[faces[:, 1]] - w_image[faces[:, 0]]
    dw2 = w_image[faces[:, 2]] - w_image[faces[:, 0]]
    det = dz1 * np.conj(dz2) - dz2 * np.conj(dz1)
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    fz = (dw1 * np.conj(dz2) - dw2 * np.conj(dz1)) / det
    fzb = (dz1 * dw2 - dz2 * dw1) / det
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = np.where(np.abs(fz) > 1e-300, fzb / fz, 1e3 + 0j)
    return mu


def truncate_beltrami(mu: np.ndarray, cap: float = 0.99) -> np.ndarray:
    mag = np.abs(mu)
    over = mag >= cap
    out = mu.copy()
    out[over] = cap * mu[over] / np.maximum(mag[over], 1e-300)
    return out


def beltrami_stiffness(z_domain: np.ndarray, faces: np.ndarray,
                       mu: np.ndarray) -> linsolve.LinearSystem:
    """Anisotropic stiffness matrix of the Beltrami equation on the plane.

    Each triangle with coefficient mu = rho + i tau carries the SPD matrix
    [[(rho-1)^2 + tau^2, -2 tau], [-2 tau, (1+rho)^2 + tau^2]] / (1 - |mu|^2);
    triangles with astronomically large domain coordinates (close to the
    projection pole) are skipped since all their vertices are constrained.
    """
    pts = np.column_stack([z_domain.real, z_domain.imag])
    keep = np.all(np.abs(z_domain[faces]) < 1e8, axis=1)
    faces = faces[keep]
    mu = mu[keep]
    rho, tau = mu.real, mu.imag
    denom = np.maximum(1.0 - (rho**2 + tau**2), 1e-12)
    a11 = ((rho - 1.0) ** 2 + tau**2) / denom
    a12 = -2.0 * tau / denom
    a22 = ((1.0 + rho) ** 2 + tau**2) / denom

    p = pts[faces]  # (k, 3, 2)
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]  # edge opposite each vertex
    area2 = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]  # 2 * signed area
    # floor near-degenerate chart triangles so the assembly stays finite
    floor = 1e-10 * np.einsum("tij,tij->t", e, e)
    area2 = np.where(np.abs(area2) < floor,
                     np.where(area2 < 0, -floor, floor), area2)
    grads = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2) / area2[:, None, None]
    A = np.stack([np.stack([a11, a12], axis=1),
                  np.stack([a12, a22], axis=1)], axis=1)
    local = p1_blocks(area2 / 2.0, grads, A)
    # the kept faces change from call to call, so the plan is used once
    plan = linsolve.AssemblyPlan.for_elements(faces, len(z_domain))
    return linsolve.assemble(plan, local.reshape(-1))


def correct_spherical_flips(reference: np.ndarray, points: np.ndarray,
                            faces: np.ndarray) -> np.ndarray:
    """Remove flipped spherical triangles, keeping the rest of the map.

    ``reference`` must be a flip-free spherical configuration of the same
    triangulation; it provides the embedded chart in which the Beltrami
    coefficient of the current map is measured, truncated to |mu| <= 0.99, and
    re-solved with vertices outside the flipped neighborhoods (two rings wide)
    held fixed. Raises SphereMapError if flips survive ten rounds.
    """
    cur = normalize_rows(np.array(points, dtype=np.float64))
    ref = normalize_rows(np.asarray(reference, dtype=np.float64))
    adj = vertex_rings(faces, len(cur))
    prev_flips = None
    for round_no in range(10):
        flips_now = spherical_flips(cur, faces)
        if not flips_now.any():
            return cur
        if prev_flips is not None and np.array_equal(flips_now, prev_flips):
            # the elliptic re-solve stalled on sliver triangles; relax the
            # flipped patch tangentially toward the neighbor average
            seeds = np.zeros(len(cur), dtype=bool)
            seeds[faces[flips_now].reshape(-1)] = True
            cur = normalize_rows(relax_patch(cur, adj, seeds,
                                             min(0.2 + 0.1 * round_no, 0.8)))
        prev_flips = flips_now
        # a cap of 0.99 can leave sliver triangles that the spherical
        # orientation test still rejects; later rounds truncate harder and
        # free a wider neighborhood
        round_cap = max(0.99 - 0.12 * round_no, 0.35)
        round_rings = 2 + round_no
        for pole in (1.0, -1.0):
            flipped = spherical_flips(cur, faces)
            if not flipped.any():
                break
            z_dom = stereographic(ref, pole)
            radius = np.abs(z_dom)
            handled = flipped & (np.max(radius[faces], axis=1) < 4.0)
            if not handled.any():
                continue
            free = np.zeros(len(cur), dtype=bool)
            free[faces[handled].reshape(-1)] = True
            for _ in range(round_rings):
                free |= (adj @ free) > 0
            free &= radius < 8.0
            fixed = np.flatnonzero(~free)
            if len(fixed) < 3:
                order = np.argsort(radius)[::-1]
                fixed = order[:3]
                free = np.ones(len(cur), dtype=bool)
                free[fixed] = False
            w_cur = stereographic(cur, pole)
            mu = truncate_beltrami(beltrami_coefficient(z_dom, w_cur, faces),
                                   round_cap)
            system = beltrami_stiffness(z_dom, faces, mu)
            system.constrain(fixed, np.column_stack([w_cur[fixed].real,
                                                     w_cur[fixed].imag]))
            uv = linsolve.solve(system, np.zeros((len(cur), 2)))
            cur = normalize_rows(inverse_stereographic(uv[:, 0] + 1j * uv[:, 1], pole))
    remaining = int(spherical_flips(cur, faces).sum())
    if remaining:
        raise SphereMapError(
            f"spherical overlap correction failed: {remaining} flipped triangles")
    return cur


# -- embedding and surface density equalization ------------------------------


def mean_value_weights(points: np.ndarray, faces: np.ndarray,
                       n_vertices: int) -> csr_matrix:
    """Row-stochastic mean-value averaging operator (positive weights)."""
    rows, cols, vals = [], [], []
    for k in range(3):
        i = faces[:, k]
        j = faces[:, (k + 1) % 3]
        l = faces[:, (k + 2) % 3]
        u = points[j] - points[i]
        v = points[l] - points[i]
        lu = np.linalg.norm(u, axis=1)
        lv = np.linalg.norm(v, axis=1)
        cosang = np.clip(np.einsum("ij,ij->i", u, v) / (lu * lv), -1.0, 1.0)
        t = np.tan(0.5 * np.arccos(cosang))
        rows.extend([i, i])
        cols.extend([j, l])
        vals.extend([t / lu, t / lv])
    W = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n_vertices, n_vertices)).tocsr()
    rowsum = np.asarray(W.sum(axis=1)).ravel()
    inv = csr_matrix((1.0 / rowsum, (np.arange(n_vertices), np.arange(n_vertices))),
                     shape=(n_vertices, n_vertices))
    return inv @ W


def spherical_embedding(surface_points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Map a genus-0 surface onto the unit sphere without flipped triangles.

    Starts from the centroid-normalized radial projection, then runs
    ``SMOOTH_ITERS`` rounds of tangential mean-value smoothing, each with
    unit-norm projection and one recentring step (``center_sphere``), and
    returns the latest flip-free configuration among the start and the
    rounds. When all of them flip the call raises ``SphereMapError`` with the
    last round's flip count.
    """
    pts = np.asarray(surface_points, dtype=np.float64)
    u = center_sphere(pts, faces)
    flip_free = None if spherical_flips(u, faces).any() else u
    T = mean_value_weights(pts, faces, len(pts))
    for _ in range(SMOOTH_ITERS):
        target = T @ u
        delta = target - u
        delta -= np.einsum("ij,ij->i", delta, u)[:, None] * u
        u = center_sphere(normalize_rows(u + 0.5 * delta), faces)
        if not spherical_flips(u, faces).any():
            flip_free = u
    if flip_free is None:
        raise SphereMapError("could not reach a flip-free spherical embedding "
                             f"({int(spherical_flips(u, faces).sum())} flips)")
    return flip_free


def _sd_over_mean(x: np.ndarray) -> float:
    """np.std(x) / np.mean(x) of a 1-D array by the same reductions, without
    their wrappers."""
    mean = x.sum() / x.size
    dev = x - mean
    return sqrt((dev * dev).sum() / x.size) / mean


def surface_density_equalize(sphere: np.ndarray, faces: np.ndarray,
                             population: np.ndarray, dt: float = 0.1,
                             eps: float = 1e-2, max_iter: int = 100) -> np.ndarray:
    """Density-equalizing flow on the sphere with overlap correction.

    Face density is population over current area; iterations stop when its
    sd/mean ratio falls below ``eps`` or after ``max_iter`` rounds. Each
    round is one ``density.flow_step`` with the triangle supplies, and a
    flipped result is repaired against the last valid map. Raises
    SphereMapError naming the first face whose population is not finite and
    positive. Each call logs the rounds used, the reason and the final ratio
    at DEBUG level.
    """
    u = normalize_rows(np.array(sphere, dtype=np.float64))
    population = density.checked_population(population, len(faces), "face",
                                            SphereMapError)
    conn = Connectivity(faces, len(u))
    geo = triangle_geometry(u, faces)
    last_valid = u

    def face_gradient(rho):  # reads the round's ``geo`` when the step calls it
        return surface_gradient(geo, rho[faces])

    for rounds in range(max_iter + 1):
        areas = 0.5 * geo.area2
        rho_face = population / areas
        ratio = _sd_over_mean(rho_face)
        if ratio < eps or rounds == max_iter:
            break
        incident, weights = conn.corner_weights(areas)
        ops = density.DiffusionOperators(incident / 3.0, surface_laplacian(geo, conn.plan),
                                         weights)
        # every vertex is on the sphere: an index, so no all-true mask gathers
        u = density.flow_step(conn, u, conn.to_vertices(rho_face, weights), ops,
                              face_gradient, dt, slice(None))
        geo = triangle_geometry(u, faces)
        if geo.flipped.any():
            u = correct_spherical_flips(last_valid, u, faces)
            geo = triangle_geometry(u, faces)
        last_valid = u
    reason = "eps" if ratio < eps else "max_iter"
    logger.debug("surface flow stopped after %d of %d rounds (%s): sd/mean %.4g",
                 rounds, max_iter, reason, ratio,
                 extra={"rounds": rounds, "reason": reason, "sd_mean": float(ratio)})
    return u


def compute_boundary_sphere_map(mesh: TetMesh) -> BoundaryMap:
    """Conformal spherical map of the boundary of a solid mesh.

    The smoothed embedding, recentred by area-centroid translations; the
    result is flip-free with unit norms.
    """
    vertex_ids, faces = mesh.boundary_surface()
    return BoundaryMap.checked(vertex_ids, faces,
                               spherical_embedding(mesh.vertices[vertex_ids], faces))
