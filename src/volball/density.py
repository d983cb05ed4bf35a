"""Density fields and the discrete diffusion machinery of the equalizing flow.

Densities live on tets (population / current volume) and are transferred to
vertices through a volume-weighted, row-stochastic averaging matrix. One flow
iteration diffuses the vertex density implicitly, differentiates it per tet,
converts the gradient into a velocity, projects the boundary velocity onto the
sphere's tangent planes, and advects the vertices. The surface flow of the
spherical boundary map takes the same diffusion and advection steps.

Populations are checked on entry (one finite positive value per element);
the diffusion system M + dt L is written into the Laplacian's own sparsity
pattern at its diagonal slots rather than built as a sparse sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from . import linsolve
from .laplace import laplacian_matrix
from .tetmesh import TetMesh, signed_volumes

# Per-vertex moves are capped at STEP_LIMIT times the shortest incident edge;
# sharp density jumps otherwise produce single-step moves that invert whole
# neighborhoods. The cap is inactive near convergence.
STEP_LIMIT = 0.4


class DensityError(ValueError):
    pass


@dataclass
class DensityField:
    rho_tet: np.ndarray     # (m,)
    rho_vertex: np.ndarray  # (n,)


@dataclass
class DiffusionOperators:
    lumped_volumes: np.ndarray  # (n,) diagonal mass
    laplacian: csr_matrix       # (n, n) PSD cotangent Laplacian
    diagonal: np.ndarray        # (n,) slot of each diagonal entry in laplacian.data


def checked_population(population, count: int, item: str,
                       error: type[ValueError] = DensityError) -> np.ndarray:
    """``population`` as a float64 array of ``count`` finite positive values.

    Raises ``error`` on a wrong shape, or naming the first ``item`` whose
    value is not finite and positive.
    """
    population = np.asarray(population, dtype=np.float64)
    if population.shape != (count,):
        raise error(f"population has shape {population.shape}; "
                    f"expected ({count},), one value per {item}")
    bad = np.flatnonzero(~(np.isfinite(population) & (population > 0)))
    if bad.size:
        raise error(f"{item} {bad[0]} has population {population[bad[0]]}; "
                    "populations must be finite and positive")
    return population


def tet_to_vertex_matrix(tets: np.ndarray, volumes: np.ndarray,
                         n_vertices: int) -> csr_matrix:
    """Row-stochastic matrix averaging tet quantities onto vertices.

    Row i weights each incident tet by its volume over the total incident
    volume, so every row sums to 1.
    """
    rows = tets.reshape(-1)
    cols = np.repeat(np.arange(len(tets)), 4)
    vals = np.repeat(volumes, 4)
    incident = np.bincount(rows, weights=vals, minlength=n_vertices)
    if np.any(incident <= 0):
        raise DensityError("vertex with nonpositive incident volume")
    mat = csr_matrix((vals / incident[rows], (rows, cols)),
                     shape=(n_vertices, len(tets)))
    return mat


def recouple_density(mesh: TetMesh, positions: np.ndarray,
                     population: np.ndarray) -> DensityField:
    """Recompute tet and vertex densities from the current volumes."""
    population = checked_population(population, len(mesh.tets), "tet")
    vols = signed_volumes(positions, mesh.tets)
    if np.any(vols <= 0):
        raise DensityError(
            f"{int(np.count_nonzero(vols <= 0))} tets have nonpositive volume")
    rho_tet = population / vols
    conv = tet_to_vertex_matrix(mesh.tets, vols, len(mesh.vertices))
    return DensityField(rho_tet, conv @ rho_tet)


def build_operators(mesh: TetMesh, positions: np.ndarray) -> DiffusionOperators:
    """Assemble lumped volumes and the cotangent Laplacian on current positions."""
    vols = signed_volumes(positions, mesh.tets)
    if np.any(vols <= 0):
        raise DensityError("deformed mesh has nonpositive volumes")
    lumped = np.bincount(mesh.tets.reshape(-1), weights=np.repeat(vols / 4.0, 4),
                         minlength=len(mesh.vertices))
    return DiffusionOperators(lumped, laplacian_matrix(mesh, positions),
                              mesh.assembly_plan.diagonal)


def diffusion_step(ops: DiffusionOperators, rho_vertex: np.ndarray,
                   dt: float) -> np.ndarray:
    """Backward-Euler diffusion: solve (A + dt L) rho_next = A rho.

    Conserves the lumped mass sum(A_ii rho_i) because the Laplacian has zero
    row sums. The system matrix shares the Laplacian's pattern: its data is
    dt * L with the lumped masses added at the diagonal slots, entry for
    entry equal to the sparse sum A + dt * L, which it replaces.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    L = ops.laplacian
    data = dt * L.data
    data[ops.diagonal] += ops.lumped_volumes
    n = len(rho_vertex)
    matrix = csr_matrix((data, L.indices, L.indptr), shape=(n, n))
    return linsolve.solve(linsolve.LinearSystem(n, matrix), ops.lumped_volumes * rho_vertex)


def density_gradient(mesh_or_tets, positions: np.ndarray,
                     rho_vertex: np.ndarray) -> np.ndarray:
    """Exact per-tet gradient of the vertexwise-linear density field.

    Solves e_i . g = d_i over the edges e_i from corner 0 in closed form:
    g = (d_0 e_1 x e_2 + d_1 e_2 x e_0 + d_2 e_0 x e_1) / det(e).
    """
    tets = mesh_or_tets.tets if isinstance(mesh_or_tets, TetMesh) else np.asarray(mesh_or_tets)
    positions = np.asarray(positions, dtype=np.float64)
    e = positions[tets[:, 1:]] - positions[tets[:, :1]]  # (m, 3, 3) rows = edges
    d = rho_vertex[tets[:, 1:]] - rho_vertex[tets[:, :1]]  # (m, 3)
    a, b, c = e[:, 0], e[:, 1], e[:, 2]
    bc = np.cross(b, c)
    num = d[:, :1] * bc + d[:, 1:2] * np.cross(c, a) + d[:, 2:] * np.cross(a, b)
    return num / np.einsum("ij,ij->i", a, bc)[:, None]


def velocity_field(rho_vertex: np.ndarray, grad_vertex: np.ndarray) -> np.ndarray:
    """Velocity -grad(rho)/rho per vertex."""
    if np.any(rho_vertex <= 0):
        raise DensityError("nonpositive vertex density (recoupling bug?)")
    return -grad_vertex / rho_vertex[:, None]


def project_boundary_velocity(positions: np.ndarray, velocity: np.ndarray,
                              boundary_mask: np.ndarray) -> np.ndarray:
    """Remove the radial component of the velocity at boundary vertices.

    The boundary lives on the unit sphere, so the outward normal at a boundary
    vertex is its own position (normalized here for exact tangency).
    """
    out = np.array(velocity, dtype=np.float64, copy=True)
    x = positions[boundary_mask]
    n = x / np.linalg.norm(x, axis=1, keepdims=True)
    vb = out[boundary_mask]
    out[boundary_mask] = vb - (np.einsum("ij,ij->i", vb, n))[:, None] * n
    return out


def advect_and_renormalize(positions: np.ndarray, velocity: np.ndarray,
                           dt: float, boundary_mask: np.ndarray) -> np.ndarray:
    """Move vertices by dt * velocity; boundary vertices are radially projected
    back to the unit sphere afterwards."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = positions + dt * velocity
    b = out[boundary_mask]
    out[boundary_mask] = b / np.linalg.norm(b, axis=1, keepdims=True)
    return out


def min_incident_edge(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of the shortest edge at each vertex; ``edges`` holds vertex
    index pairs (repeats allowed, though callers pass each edge once)."""
    lengths = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    out = np.full(len(positions), np.inf)
    np.minimum.at(out, edges[:, 0], lengths)
    np.minimum.at(out, edges[:, 1], lengths)
    return out


def capped_advect(positions: np.ndarray, velocity: np.ndarray, dt: float,
                  edges: np.ndarray, boundary_mask: np.ndarray) -> np.ndarray:
    """One flow step: tangent projection at the sphere vertices, the
    STEP_LIMIT cap, advection and renormalization onto the unit sphere."""
    vel = project_boundary_velocity(positions, velocity, boundary_mask)
    move = dt * np.linalg.norm(vel, axis=1)
    cap = STEP_LIMIT * min_incident_edge(positions, edges)
    vel = vel * np.minimum(1.0, cap / np.maximum(move, 1e-300))[:, None]
    return advect_and_renormalize(positions, vel, dt, boundary_mask)
