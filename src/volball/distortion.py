"""Per-tet Jacobian analysis and prescribed-dilation map reconstruction.

Each tet of a piecewise-linear map carries a Jacobian J whose dilation factor
P = sqrt(J^T J) has eigenvalues a >= b >= |c| with sign(c) = sign(det J); the
ratio a/c measures anisotropic distortion and is negative exactly on inverted
tets. The module provides the eigenvalue operators used by the solvers
(flip, residual descent, truncation) and the divergence-form solve that
rebuilds a map realizing a prescribed frame field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .laplace import face_area_vectors
from .tetmesh import TetMesh


class FrameError(ValueError):
    pass


def edge_matrices(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Per-tet matrix whose columns are the three edges from vertex 0."""
    e = vertices[tets[:, 1:]] - vertices[tets[:, :1]]  # (m, 3edges, 3coords)
    return np.swapaxes(e, 1, 2)


def jacobian_per_tet(mesh: TetMesh, positions: np.ndarray) -> np.ndarray:
    """Jacobians of the piecewise-linear map ``mesh.vertices -> positions``.

    Satisfies J @ E_rest = E_def exactly per tet.
    """
    rest = edge_matrices(mesh.vertices, mesh.tets)
    deformed = edge_matrices(np.asarray(positions, dtype=np.float64), mesh.tets)
    # J = D R^-1  <=>  R^T J^T = D^T
    return np.swapaxes(np.linalg.solve(np.swapaxes(rest, 1, 2),
                                       np.swapaxes(deformed, 1, 2)), 1, 2)


@dataclass
class TetFrameField:
    """Orthonormal eigenframes and signed dilation eigenvalues per tet.

    ``lambdas[:, 0] >= lambdas[:, 1] >= |lambdas[:, 2]|``; the last eigenvalue
    carries the sign of det J, so a negative entry flags an inverted tet.
    """

    frames: np.ndarray   # (m, 3, 3) orthonormal columns, det +1
    lambdas: np.ndarray  # (m, 3)

    @property
    def ratios(self) -> np.ndarray:
        """Signed anisotropy ratio a/c per tet (negative on inverted tets,
        infinite on collapsed ones)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.lambdas[:, 0] / self.lambdas[:, 2]


def _fix_column_signs(W: np.ndarray) -> np.ndarray:
    """Deterministic gauge: first two columns have positive leading entry,
    third column completes a right-handed (det +1) frame."""
    for col in range(2):
        c = W[:, :, col]
        lead = np.argmax(np.abs(c) > 1e-12, axis=1)
        sign = np.sign(c[np.arange(len(W)), lead])
        sign[sign == 0] = 1.0
        W[:, :, col] = c * sign[:, None]
    W[:, :, 2] = np.cross(W[:, :, 0], W[:, :, 1])
    return W


def frame_decompose(J: np.ndarray) -> TetFrameField:
    """Eigen-decompose the dilation part of one or many Jacobians.

    Accepts (3, 3) or (m, 3, 3); eigenvalues are sorted descending with the
    smallest one signed by det J.
    """
    J = np.asarray(J, dtype=np.float64)
    single = J.ndim == 2
    if single:
        J = J[None]
    det = np.linalg.det(J)
    if np.any(np.abs(det) <= 1e-14):
        bad = int(np.argmin(np.abs(det)))
        raise FrameError(f"singular Jacobian on tet {bad} (det={det[bad]:.3e})")
    C = np.einsum("tji,tjk->tik", J, J)  # J^T J
    eigvals, eigvecs = np.linalg.eigh(C)  # ascending
    eigvals = eigvals[:, ::-1]
    W = _fix_column_signs(np.ascontiguousarray(eigvecs[:, :, ::-1]))
    lam = np.sqrt(np.maximum(eigvals, 0.0))
    lam[:, 2] *= np.sign(det)
    field = TetFrameField(W, lam)
    return field


def flip_eigenvalues(lambdas: np.ndarray) -> np.ndarray:
    """Repair inverted triples: (a, b, -c) where the ratio is negative."""
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64)).copy()
    neg = np.sign(lam[:, 2]) != np.sign(lam[:, 0])
    lam[neg, 2] = -lam[neg, 2]
    return lam.reshape(np.shape(lambdas))


def residual_step(lambdas: np.ndarray, C: float) -> np.ndarray:
    """One residual-descent update of the eigenvalue triples.

    With residuals R = a - b and L = b - c and weight
    theta = (K - 1)/((K - 1) + C), returns (a - theta R, b, c + theta L);
    the ratio never increases and is unchanged only when a = b = c.
    """
    if C <= 0:
        raise ValueError("residual constant must be positive")
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
    a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
    K = a / c
    if np.any(K <= 0):
        raise FrameError("residual step requires positive ratios; flip first")
    theta = (K - 1.0) / ((K - 1.0) + C)
    out = np.column_stack([a - theta * (a - b), b, c + theta * (b - c)])
    return out.reshape(np.shape(lambdas))


def truncate_eigenvalues(lambdas: np.ndarray, K_T: float) -> np.ndarray:
    """Cap the per-tet ratio at K_T by an order-preserving affine rescale.

    Triples with a/c <= K_T pass through unchanged; the rest are mapped by
    x -> l (x - e) + e with e = (a + c)/2 and slope
    l = (K_T - 1) e / ((K_T + 1)(a - e)), which pins the output ratio to K_T
    exactly while keeping a' >= b' >= c' > 0.
    """
    if K_T <= 1:
        raise ValueError("truncation threshold must exceed 1")
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64)).copy()
    if np.any(lam <= 0):
        raise FrameError("truncation requires positive eigenvalues; flip first")
    a, c = lam[:, 0], lam[:, 2]
    over = a / c > K_T
    if np.any(over):
        e = 0.5 * (a[over] + c[over])
        slope = (K_T - 1.0) * e / ((K_T + 1.0) * (a[over] - e))
        lam[over] = slope[:, None] * (lam[over] - e[:, None]) + e[:, None]
    return lam.reshape(np.shape(lambdas))


def anisotropy_matrices(frames: TetFrameField) -> np.ndarray:
    """Per-tet SPD coefficient W diag(bc/a, ac/b, ab/c) W^T of the
    divergence-form reconstruction system."""
    lam = frames.lambdas
    if np.any(lam <= 0):
        raise FrameError("anisotropy matrices need positive eigenvalues")
    a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
    d = np.stack([b * c / a, a * c / b, a * b / c], axis=1)
    W = frames.frames
    return np.einsum("tik,tk,tjk->tij", W, d, W)


def anisotropic_stiffness(mesh: TetMesh, coeff: np.ndarray) -> linsolve.LinearSystem:
    """P1 stiffness matrix of div(A grad u) on the rest mesh with per-tet A."""
    vols = mesh.volumes
    S = face_area_vectors(mesh.vertices, mesh.tets)
    grads = -S / (3.0 * vols[:, None, None])  # hat-function gradients (m, 4, 3)
    local = grads @ coeff @ np.swapaxes(grads, 1, 2) * vols[:, None, None]
    local = 0.5 * (local + np.swapaxes(local, 1, 2))
    return linsolve.assemble(mesh.assembly_plan, local.reshape(-1))


def reconstruct_map(mesh: TetMesh, frames: TetFrameField,
                    fixed_indices: np.ndarray, fixed_points: np.ndarray) -> np.ndarray:
    """Rebuild vertex positions realizing a prescribed dilation field.

    Solves the three scalar equations div(A grad u) = 0 with the per-tet
    coefficient from ``anisotropy_matrices`` and Dirichlet values at
    ``fixed_indices``. With identity frames this reduces to the harmonic fill.
    """
    coeff = anisotropy_matrices(frames)
    system = anisotropic_stiffness(mesh, coeff)
    fixed_indices = np.asarray(fixed_indices, dtype=np.int64)
    if len(fixed_indices) == 0:
        raise ValueError("reconstruction needs at least one constrained vertex")
    system.constrain(fixed_indices, np.asarray(fixed_points, dtype=np.float64))
    return linsolve.solve(system, np.zeros((len(mesh.vertices), 3)), tol=1e-9)
