"""P1 stiffness |V| G A G^T on tets from ``tetmesh.tet_gradients`` (volumes V,
hat gradients G): the cotangent Laplacian is A = I / 2, the classical
S S^T / (18 V) of the face area vectors S = -3 V G; the map reconstruction's A
is anisotropic."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from . import linsolve
from .tetmesh import TetMesh


def p1_blocks(volumes, gradients, coeff) -> np.ndarray:
    """Per-tet P1 stiffness |V| G A G^T (m, 4, 4) of div(A grad u), symmetric:
    ten dot products of the rows of G for a scalar ``coeff`` (A = coeff I),
    a symmetrised batched matmul for an (m, 3, 3) one. The matmul serves
    triangles of a planar chart too: V their areas, G (m, 3, 2), A (m, 2, 2)."""
    w = np.abs(volumes)
    if np.ndim(coeff) == 0:
        w = coeff * w
        g = np.ascontiguousarray(np.transpose(gradients, (1, 2, 0)))  # (4, 3, m)
        local = np.empty((len(w), 4, 4))
        for i in range(4):
            for j in range(i, 4):
                local[:, i, j] = local[:, j, i] = (g[i, 0] * g[j, 0] + g[i, 1] * g[j, 1]
                                                   + g[i, 2] * g[j, 2]) * w
        return local
    local = gradients @ coeff @ np.swapaxes(gradients, 1, 2)
    local *= w[:, None, None]
    return 0.5 * (local + np.swapaxes(local, 1, 2))


def laplacian_matrix(mesh: TetMesh, geometry=None) -> csr_matrix:
    """Positive semidefinite cotangent Laplacian L with zero row sums.

    Off-diagonal entries are -k_{u,v}; the quadratic form is
    sum_edges k_{u,v} (phi_u - phi_v)^2 (the discrete harmonic energy), where
    edge (i, j) of a tet picks up l * cot(theta)/12 from the opposite edge. The
    weights come from ``geometry``, a (volumes, hat gradients) pair of
    ``tetmesh.tet_gradients``, by default the mesh's own.
    """
    vols, grads = (mesh.volumes, mesh.hat_gradients) if geometry is None else geometry
    return linsolve.assemble(mesh.connectivity.plan,
                             p1_blocks(vols, grads, 0.5).reshape(-1)).matrix


def harmonic_fill(mesh: TetMesh, boundary_points: np.ndarray,
                  boundary_indices: np.ndarray | None = None) -> np.ndarray:
    """Fill the interior with the discrete harmonic extension of a boundary map.

    Solves the cotangent-Laplace system with Dirichlet rows at the boundary
    vertices, one scalar solve per coordinate.

    Parameters
    ----------
    mesh : TetMesh
        Rest mesh supplying both connectivity and the weights' geometry.
    boundary_points : (k, 3) array
        Target positions of the boundary vertices.
    boundary_indices : (k,) array, optional
        Vertex indices the rows of ``boundary_points`` refer to; defaults to
        ``mesh.boundary_vertices``.
    """
    if boundary_indices is None:
        boundary_indices = mesh.boundary_vertices
    boundary_points = np.asarray(boundary_points, dtype=np.float64)
    if len(boundary_indices) != len(boundary_points):
        raise ValueError("boundary point count does not match boundary vertices")
    n = len(mesh.vertices)
    system = linsolve.LinearSystem(n, laplacian_matrix(mesh), plan=mesh.connectivity.plan)
    system.constrain(boundary_indices, boundary_points)
    return linsolve.solve(system, np.zeros((n, 3)))
