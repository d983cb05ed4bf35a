"""Cotangent finite-element Laplacian on tetrahedral meshes and harmonic maps."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from . import linsolve
from .tetmesh import TetMesh, face_area_vectors, signed_volumes


def laplacian_matrix(mesh: TetMesh, positions: np.ndarray | None = None) -> csr_matrix:
    """Positive semidefinite cotangent Laplacian L with zero row sums.

    Off-diagonal entries are -k_{u,v}; the quadratic form is
    sum_edges k_{u,v} (phi_u - phi_v)^2 (the discrete harmonic energy). Each
    tet contributes S S^T / (18 V) from its face area vectors S: the weight of
    edge (i, j) picks up l * cot(theta)/12 from the opposite edge through the
    identity -<S_i, S_j> / (18 V), which avoids explicit dihedral angles.
    ``positions`` replaces the mesh's own vertices in the weights.
    """
    x = mesh.vertices if positions is None else np.asarray(positions, dtype=np.float64)
    S = face_area_vectors(x, mesh.tets)
    vols = np.abs(signed_volumes(x, mesh.tets))
    local = S @ np.swapaxes(S, 1, 2) / (18.0 * vols[:, None, None])
    return linsolve.assemble(mesh.connectivity.plan, local.reshape(-1)).matrix


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
    system = linsolve.LinearSystem(n, laplacian_matrix(mesh))
    system.constrain(boundary_indices, boundary_points)
    return linsolve.solve(system, np.zeros((n, 3)))
