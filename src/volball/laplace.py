"""P1 stiffness |V| G A G^T on tets from ``tetmesh.tet_gradients`` (volumes V,
hat gradients G): the cotangent Laplacian has A = I / 2, the map
reconstruction an anisotropic A. Blocks are computed component-major (G as
(k, d, m), A as (d, d, m)) and returned as the (m, k, k) view that
``linsolve.assemble`` flattens in its plan's triplet order."""

from __future__ import annotations

import numpy as np

from . import linsolve
from .tetmesh import TetMesh, _dot, component_major, per_tet


def p1_blocks(volumes, gradients, coeff) -> np.ndarray:
    """Per-element P1 stiffness |V| G A G^T (m, k, k) of div(A grad u) from
    hat ``gradients`` G (m, k, d), symmetric by construction: the k (k + 1) / 2
    entries i <= j are computed and mirrored. A scalar ``coeff`` (A = coeff I)
    takes the dot products of the rows of G; an (m, d, d) one first forms
    H = G A by component sums, then the dot products of the rows of H and G.
    Tets have k = 4, d = 3; triangles of a planar chart k = 3, d = 2 (V their
    areas). The result is a view of a component-major (k, k, m) array."""
    w = np.abs(volumes)
    g = np.ascontiguousarray(component_major(gradients))  # (k, d, m)
    k, d = g.shape[:2]
    if np.ndim(coeff) == 0:
        w = coeff * w
        h = g
    else:
        A = component_major(coeff)  # (d, d, m)
        h = np.empty_like(g)
        for i in range(k):
            for c in range(d):
                h[i, c] = _dot(g[i], A[:, c])
    local = np.empty((k, k, len(w)))
    for i in range(k):
        for j in range(i, k):
            local[i, j] = local[j, i] = _dot(h[i], g[j]) * w
    return per_tet(local)


def laplacian_matrix(mesh: TetMesh, geometry=None) -> linsolve.LinearSystem:
    """Positive semidefinite cotangent Laplacian L with zero row sums, as the
    system of the mesh's assembly plan.

    Off-diagonal entries are -k_{u,v}; the quadratic form is
    sum_edges k_{u,v} (phi_u - phi_v)^2 (the discrete harmonic energy), where
    edge (i, j) of a tet picks up l * cot(theta)/12 from the opposite edge. The
    weights come from ``geometry``, a (volumes, hat gradients) pair of
    ``tetmesh.tet_gradients``, by default the mesh's own.
    """
    vols, grads = (mesh.volumes, mesh.hat_gradients) if geometry is None else geometry
    return linsolve.assemble(mesh.connectivity.plan,
                             p1_blocks(vols, grads, 0.5).reshape(-1))


def harmonic_fill(mesh: TetMesh, boundary_points: np.ndarray,
                  boundary_indices: np.ndarray) -> np.ndarray:
    """Discrete harmonic extension of a boundary map: the rest mesh's
    cotangent-Laplace system with the vertices ``boundary_indices`` (k,)
    fixed at the rows of ``boundary_points`` (k, 3), solved for all three
    coordinates. ValueError when the two lengths differ."""
    boundary_points = np.asarray(boundary_points, dtype=np.float64)
    if len(boundary_indices) != len(boundary_points):
        raise ValueError("boundary point count does not match boundary vertices")
    system = laplacian_matrix(mesh)
    system.constrain(boundary_indices, boundary_points)
    return linsolve.solve(system, np.zeros((system.dimension, 3)))
