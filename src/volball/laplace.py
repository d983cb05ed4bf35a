"""P1 stiffness V G A G^T on tets from ``tetmesh.tet_gradients`` (volumes V, hat
gradients G): the cotangent Laplacian is A = I / 2, the classical S S^T / (18 V)
of the face area vectors S = -3 V G; the map reconstruction's A is anisotropic."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from . import linsolve
from .tetmesh import TetMesh


def p1_stiffness(plan, volumes, gradients, coeff=None) -> linsolve.LinearSystem:
    """P1 stiffness of div(A grad u) assembled on ``plan``: |V| G A G^T per
    tet, symmetrised, with per-tet ``coeff`` A (m, 3, 3) or, when None, the
    Laplacian's A = I / 2."""
    gt = np.swapaxes(gradients, 1, 2)
    local = gradients @ gt * 0.5 if coeff is None else gradients @ coeff @ gt
    local *= np.abs(volumes)[:, None, None]
    local = 0.5 * (local + np.swapaxes(local, 1, 2))
    return linsolve.assemble(plan, local.reshape(-1))


def laplacian_matrix(mesh: TetMesh, geometry=None) -> csr_matrix:
    """Positive semidefinite cotangent Laplacian L with zero row sums.

    Off-diagonal entries are -k_{u,v}; the quadratic form is
    sum_edges k_{u,v} (phi_u - phi_v)^2 (the discrete harmonic energy), where
    edge (i, j) of a tet picks up l * cot(theta)/12 from the opposite edge. The
    weights come from ``geometry``, a (volumes, hat gradients) pair of
    ``tetmesh.tet_gradients``, by default the mesh's own.
    """
    vols, grads = (mesh.volumes, mesh.hat_gradients) if geometry is None else geometry
    return p1_stiffness(mesh.connectivity.plan, vols, grads).matrix


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
