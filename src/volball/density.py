"""Density fields and the one step of the density-equalizing flow.

A ``DensityField`` holds a density on elements (population / current
measure), rho_tet (m,), its measure-weighted vertex mean, rho_vertex (n,),
and the ``Connectivity.corner_weights`` pair that mean used. ``flow_step``
is the step of both the surface flow on the sphere and the volume flow in
the ball: implicit diffusion of the vertex density, its gradient per
element, the vertex mean, the velocity -grad rho / rho and capped
advection. Each flow supplies its own ``DiffusionOperators`` (lumped
masses, cotangent Laplacian as a ``linsolve.LinearSystem`` and the corner
weights of its measures, areas or volumes, computed once per map: the
volume flow takes its iterate's density field's) and element gradient.

Errors: ``DensityError`` (a ValueError) on a population that is not one
finite positive value per element, naming the first bad one, and on
non-positive volumes or vertex densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .laplace import laplacian_matrix
from .tetmesh import Connectivity, TetMesh, _dot, component_major, per_tet, signed_volumes

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
    corner_weights: tuple[np.ndarray, np.ndarray]  # Connectivity.corner_weights of the volumes


@dataclass
class DiffusionOperators:
    lumped_volumes: np.ndarray         # (n,) diagonal mass
    laplacian: linsolve.LinearSystem   # PSD cotangent Laplacian on its plan
    corner_weights: np.ndarray         # (m k,) Connectivity.corner_weights of the measures


def checked_population(population, count: int, item: str,
                       error: type[ValueError] = DensityError) -> np.ndarray:
    """``population`` as a float64 array of ``count`` finite positive values.

    Raises ``error`` on a missing population or a wrong shape, or naming the
    first ``item`` whose value is not finite and positive.
    """
    if population is None:
        raise error(f"no population given; expected one value per {item}")
    population = np.asarray(population, dtype=np.float64)
    if population.shape != (count,):
        raise error(f"population has shape {population.shape}; "
                    f"expected ({count},), one value per {item}")
    bad = np.flatnonzero(~(np.isfinite(population) & (population > 0)))
    if bad.size:
        raise error(f"{item} {bad[0]} has population {population[bad[0]]}; "
                    "populations must be finite and positive")
    return population


def recouple_density(mesh: TetMesh, positions: np.ndarray,
                     population: np.ndarray) -> DensityField:
    """Recompute tet and vertex densities from the current volumes."""
    population = checked_population(population, len(mesh.tets), "tet")
    return field_from_volumes(mesh, signed_volumes(positions, mesh.tets), population)


def field_from_volumes(mesh: TetMesh, volumes: np.ndarray,
                       population: np.ndarray) -> DensityField:
    """Tet densities of a checked ``population`` over the current ``volumes``,
    and their volume-weighted vertex means."""
    if np.any(volumes <= 0):
        raise DensityError(f"{int(np.count_nonzero(volumes <= 0))} tets have nonpositive volume")
    rho_tet = population / volumes
    conn = mesh.connectivity
    corner_weights = conn.corner_weights(volumes)
    return DensityField(rho_tet, conn.to_vertices(rho_tet, corner_weights[1]), corner_weights)


def build_operators(mesh: TetMesh, geometry, corner_weights=None) -> DiffusionOperators:
    """Assemble lumped volumes, the cotangent Laplacian and the corner
    weights from the current (volumes, hat gradients) pair ``geometry`` of
    ``tetmesh.tet_gradients``. The lumped volumes are the incident volumes
    over 4. ``corner_weights`` is the ``Connectivity.corner_weights`` pair
    of exactly ``geometry[0]`` (the ``DensityField``'s of the same volumes),
    or None to compute it here; a pair of other volumes is not detected."""
    if np.any(geometry[0] <= 0):
        raise DensityError("deformed mesh has nonpositive volumes")
    if corner_weights is None:
        corner_weights = mesh.connectivity.corner_weights(geometry[0])
    incident, weights = corner_weights
    return DiffusionOperators(incident / 4.0, laplacian_matrix(mesh, geometry), weights)


def diffusion_step(ops: DiffusionOperators, rho_vertex: np.ndarray,
                   dt: float) -> np.ndarray:
    """Backward-Euler diffusion: solve (A + dt L) rho_next = A rho.

    Conserves the lumped mass sum(A_ii rho_i) because the Laplacian has zero
    row sums. The system lives on the Laplacian's plan: dt * L.data plus the
    lumped masses at the diagonal slots, entry for entry the sum A + dt * L,
    solved to ``linsolve.DEFAULT_TOL``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    L = ops.laplacian
    data = dt * L.data
    data[L.plan.diagonal] += ops.lumped_volumes
    return linsolve.solve(linsolve.LinearSystem(L.plan, data),
                          ops.lumped_volumes * rho_vertex)


def density_gradient(tets: np.ndarray, gradients: np.ndarray,
                     rho_vertex: np.ndarray) -> np.ndarray:
    """Per-tet gradient sum_k rho_k G_k (m, 3) of the vertexwise-linear field
    over the hat ``gradients`` G of ``tets``, as sum_k (rho_k - rho_0) G_k,
    by component sums over the rows of the component-major G; a view of a
    (3, m) array."""
    rho = np.asarray(rho_vertex, dtype=np.float64).take(np.ascontiguousarray(tets.T))
    d = rho[1:] - rho[0]  # (3, m)
    g = component_major(gradients)  # (4, 3, m)
    return per_tet(np.array([_dot(d, g[1:, c]) for c in range(3)]))


def velocity_field(rho_vertex: np.ndarray, grad_vertex: np.ndarray) -> np.ndarray:
    """Velocity -grad(rho)/rho per vertex."""
    if np.any(rho_vertex <= 0):
        raise DensityError("nonpositive vertex density (recoupling bug?)")
    return -grad_vertex / rho_vertex[:, None]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 3) array by component sums, in
    the order ``np.linalg.norm(x, axis=1)`` sums, so bitwise equal to it."""
    return np.sqrt(_dot(x.T, x.T))


def min_incident_edge(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of the shortest edge at each vertex; ``edges`` holds vertex
    index pairs (repeats allowed, though callers pass each edge once)."""
    xt = positions.T  # gathered as (3, e) coordinate rows, which the sums read in order
    d = xt.take(edges[:, 0], axis=1) - xt.take(edges[:, 1], axis=1)
    lengths = np.sqrt(_dot(d, d))  # bitwise _row_norms of the (e, 3) differences
    out = np.full(len(positions), np.inf)
    np.minimum.at(out, edges[:, 0], lengths)
    np.minimum.at(out, edges[:, 1], lengths)
    return out


def capped_advect(positions: np.ndarray, velocity: np.ndarray, dt: float,
                  edges: np.ndarray, on_sphere) -> np.ndarray:
    """Move the vertices by dt * velocity: the velocity loses its radial part
    at the ``on_sphere`` vertices (the outward normal there is the normalized
    position), each move is capped at STEP_LIMIT times the vertex's shortest
    ``edges`` edge, and the ``on_sphere`` vertices are projected back onto
    the unit sphere.
    ``on_sphere`` is a boolean mask or an index, such as ``slice(None)`` for
    a flow whose every vertex is on the sphere: an index gathers and
    scatters nothing it does not select, and gives the same result as its
    mask. The bytes of the result depend on the values of the inputs, not on
    their memory layout."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    # C-ordered float64, because the row sums below add in memory order
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    vel = np.array(velocity, dtype=np.float64, order="C")
    x = positions[on_sphere]
    n = x / _row_norms(x)[:, None]
    vb = vel[on_sphere]
    vel[on_sphere] = vb - (np.einsum("ij,ij->i", vb, n))[:, None] * n
    move = dt * _row_norms(vel)
    cap = STEP_LIMIT * min_incident_edge(positions, edges)
    vel = vel * np.minimum(1.0, cap / np.maximum(move, 1e-300))[:, None]
    out = positions + dt * vel
    b = out[on_sphere]
    out[on_sphere] = b / _row_norms(b)[:, None]
    return out


def flow_step(conn: Connectivity, positions: np.ndarray, rho_vertex: np.ndarray,
              ops: DiffusionOperators, element_gradient, dt: float,
              on_sphere) -> np.ndarray:
    """One flow step, on the sphere or in the ball: diffuse ``rho_vertex``
    under ``ops``, take the gradient per element (``element_gradient(rho)``,
    (m, 3)), average it onto the vertices with the ops' corner weights and
    advect ``positions`` along -grad rho / rho, keeping the ``on_sphere``
    vertices (a mask or an index, as ``capped_advect`` takes) on the unit
    sphere. Returns the moved positions."""
    rho_next = diffusion_step(ops, rho_vertex, dt)
    grad = conn.to_vertices(element_gradient(rho_next), ops.corner_weights)
    vel = velocity_field(rho_next, grad)
    return capped_advect(positions, vel, dt, conn.edges, on_sphere)
