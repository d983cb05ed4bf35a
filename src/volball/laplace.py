"""P1 stiffness |V| G A G^T on tets from ``tetmesh.tet_gradients`` (volumes V,
hat gradients G): the cotangent Laplacian is A = I / 2, the classical
S S^T / (18 V) of the face area vectors S = -3 V G; the map reconstruction's A
is anisotropic.

The blocks are computed component-major, element index last, as ``tetmesh``
stores the gradients: G as (k, d, m) and A as (d, d, m), each block entry a
sum of products of contiguous rows, returned as the (m, k, k) view that
``linsolve.assemble`` flattens in its plan's triplet order. ``laplacian_matrix``
returns the assembled ``linsolve.LinearSystem``, which ``harmonic_fill``
constrains and solves as it is."""

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
    """Fill the interior with the discrete harmonic extension of a boundary map.

    Solves the cotangent-Laplace system with Dirichlet rows at the boundary
    vertices, one scalar solve per coordinate.

    Parameters
    ----------
    mesh : TetMesh
        Rest mesh supplying both connectivity and the weights' geometry.
    boundary_points : (k, 3) array
        Target positions of the boundary vertices.
    boundary_indices : (k,) array
        Vertex indices the rows of ``boundary_points`` refer to.
    """
    boundary_points = np.asarray(boundary_points, dtype=np.float64)
    if len(boundary_indices) != len(boundary_points):
        raise ValueError("boundary point count does not match boundary vertices")
    system = laplacian_matrix(mesh)
    system.constrain(boundary_indices, boundary_points)
    return linsolve.solve(system, np.zeros((system.dimension, 3)))
