"""Cotangent finite-element Laplacian on tetrahedral meshes and harmonic maps."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from . import linsolve
from .tetmesh import EDGE_LOCAL, FACE_LOCAL, TetMesh


def face_area_vectors(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Outward area vector of the face opposite each tet vertex, shape (m, 4, 3)."""
    corners = vertices[tets]  # (m, 4, 3)
    tri = corners[:, FACE_LOCAL]  # (m, 4, 3, 3)
    return 0.5 * np.cross(tri[:, :, 1] - tri[:, :, 0], tri[:, :, 2] - tri[:, :, 0])


def _edge_weight_triplets(vertices, tets):
    """Edge pairs and weight contributions of every tet.

    The weight of edge (i, j) picks up l * cot(theta)/12 from the opposite edge
    of each incident tet, computed via the area-vector identity
    -<S_i, S_j> / (18 V) which avoids explicit dihedral angles.
    """
    vols = np.abs(np.linalg.det(vertices[tets[:, 1:]] - vertices[tets[:, :1]])) / 6.0
    S = face_area_vectors(vertices, tets)
    i_loc = EDGE_LOCAL[:, 0]
    j_loc = EDGE_LOCAL[:, 1]
    dots = np.einsum("tek,tek->te", S[:, i_loc], S[:, j_loc])  # (m, 6)
    w = -dots / (18.0 * vols[:, None])
    pairs = tets[:, EDGE_LOCAL]  # (m, 6, 2)
    return pairs.reshape(-1, 2), w.reshape(-1)


def laplacian_matrix(mesh_or_tets, positions: np.ndarray | None = None) -> csr_matrix:
    """Positive semidefinite cotangent Laplacian L with zero row sums.

    Off-diagonal entries are -k_{u,v}; the quadratic form is
    sum_edges k_{u,v} (phi_u - phi_v)^2 (the discrete harmonic energy).
    """
    if isinstance(mesh_or_tets, TetMesh):
        tets = mesh_or_tets.tets
        vertices = mesh_or_tets.vertices if positions is None else positions
        n = len(mesh_or_tets.vertices)
    else:
        tets = np.asarray(mesh_or_tets)
        vertices = positions
        n = int(tets.max()) + 1
    pairs, w = _edge_weight_triplets(np.asarray(vertices, dtype=np.float64), tets)
    i, j = pairs[:, 0], pairs[:, 1]
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-w, -w, w, w])
    return linsolve.assemble(n, rows, cols, vals).matrix


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
