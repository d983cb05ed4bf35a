"""Synthetic solids and population patterns used by the demos and tests."""

from __future__ import annotations

import numpy as np

from .remesh import uniform_ball_mesh
from .tetmesh import TetMesh, signed_volumes

#6-tet decomposition of a cube cell around the main diagonal 000-111.
_CUBE_TETS = np.array([
    [0b000, 0b100, 0b110, 0b111],
    [0b000, 0b110, 0b010, 0b111],
    [0b000, 0b010, 0b011, 0b111],
    [0b000, 0b011, 0b001, 0b111],
    [0b000, 0b001, 0b101, 0b111],
    [0b000, 0b101, 0b100, 0b111],
])


def _grid_cells(n: int):
    """The axis and vertices of the (n + 1)^3 grid on [-1, 1]^3, its cells'
    (i, j, k) indices, i slowest, and their 8 corner vertex ids."""
    axis = np.linspace(-1.0, 1.0, n + 1)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = np.arange(n)
    ci, cj, ck = (c.ravel() for c in np.meshgrid(cells, cells, cells, indexing="ij"))
    corner = np.stack([vid(ci + ((b >> 2) & 1), cj + ((b >> 1) & 1), ck + (b & 1))
                       for b in range(8)], axis=1)  # (cells, 8)
    return axis, vertices, (ci, cj, ck), corner


def cube_mesh(n: int = 8) -> TetMesh:
    """Regular tetrahedralization of the cube [-1, 1]^3 with 6 n^3 tets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, vertices, _, corner = _grid_cells(n)
    return TetMesh.from_arrays(vertices, corner[:, _CUBE_TETS].reshape(-1, 4))


def ellipsoid_mesh(resolution: int = 2, axes=(2.0, 1.0, 1.0)) -> TetMesh:
    ball = uniform_ball_mesh(resolution)
    return TetMesh.from_arrays(ball.vertices * np.asarray(axes), ball.tets)


def stretched_ball_mesh(resolution: int = 2, stretch=(2.0, 1.0, 0.7)) -> TetMesh:
    """Anisotropic affine image of the uniform ball."""
    return ellipsoid_mesh(resolution, axes=stretch)


def graded_ellipsoid_mesh(resolution: int = 2) -> TetMesh:
    """Ellipsoid with axes (2, 1, 1) whose tet sizes grow from the center
    outwards.

    The radial warp r -> r^1.5 thins the mesh near the center while keeping
    the boundary fixed, giving a strongly nonuniform but valid solid.
    """
    ball = uniform_ball_mesh(resolution)
    r = np.linalg.norm(ball.vertices, axis=1)
    scale = np.where(r > 0, r ** 0.5, 1.0)
    warped = ball.vertices * scale[:, None] * np.asarray((2.0, 1.0, 1.0))
    return TetMesh.from_arrays(warped, ball.tets)


def lcube_mesh(n: int = 8, stretch=(1.0, 1.0, 1.0)) -> TetMesh:
    """L-shaped solid: the cube with one octant removed, optionally stretched.

    Non-convex but still ball-topology; with a strong anisotropic stretch its
    harmonic ball map develops genuine folds, which exercises the correction
    machinery.
    """
    axis, vertices, (ci, cj, ck), corner = _grid_cells(n)
    mid = (axis[:-1] + axis[1:]) / 2.0
    kept = ~((mid[ci] > 0) & (mid[cj] > 0) & (mid[ck] > 0))  # drop the positive octant
    tets = corner[kept][:, _CUBE_TETS].reshape(-1, 4)
    used = np.unique(tets)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TetMesh.from_arrays(vertices[used] * np.asarray(stretch, dtype=float),
                               remap[tets])


def _tet_centroids(mesh: TetMesh) -> np.ndarray:
    return mesh.vertices[mesh.tets].mean(axis=1)


def hemispheric_population(mesh: TetMesh, ratio: float = 4.0) -> np.ndarray:
    """Volume-proportional population with a density jump across the plane x = 0."""
    vols = np.abs(signed_volumes(mesh.vertices, mesh.tets))
    weight = np.where(_tet_centroids(mesh)[:, 0] > 0.0, ratio, 1.0)
    return vols * weight


def smooth_population(mesh: TetMesh, ratio: float = 5.0) -> np.ndarray:
    """Volume-proportional population whose density grows linearly in x to
    a max/min ratio of ``ratio``."""
    vols = np.abs(signed_volumes(mesh.vertices, mesh.tets))
    x = _tet_centroids(mesh)[:, 0]
    t = (x - x.min()) / max(x.max() - x.min(), 1e-300)
    return vols * (1.0 + (ratio - 1.0) * t)


def octant_population(mesh: TetMesh, seed: int = 0,
                      low: float = 1.0, high: float = 4.0) -> np.ndarray:
    """Region-weighted population: half the octants dense, half sparse.

    Four octants get weight ``high`` and four get ``low``, arranged by the
    seed, so every draw carries a substantial density contrast.
    """
    rng = np.random.default_rng(seed)
    weights = rng.permutation([low] * 4 + [high] * 4)
    c = _tet_centroids(mesh)
    octant = ((c[:, 0] > 0).astype(int) * 4 + (c[:, 1] > 0).astype(int) * 2
              + (c[:, 2] > 0).astype(int))
    vols = np.abs(signed_volumes(mesh.vertices, mesh.tets))
    return vols * weights[octant]
