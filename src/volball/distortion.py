"""Per-tet Jacobian analysis and prescribed-dilation map reconstruction.

Each tet of a piecewise-linear map carries a Jacobian J whose dilation factor
P = sqrt(J^T J) has eigenvalues a >= b >= |c| with sign(c) = sign(det J); the
ratio a/c measures anisotropic distortion and is negative exactly on inverted
tets. The module provides the eigenvalue operators used by the solvers
(flip, residual descent, truncation) and the divergence-form solve that
rebuilds a map realizing a prescribed frame field (``laplace.p1_stiffness``).

All per-tet 3 x 3 work is closed-form and vectorised over the tets, with no
batched LAPACK call. J is a matmul against the rest mesh's cached hat
gradients, det J a cofactor expansion, and the eigenframe of J^T J comes from
a batched cyclic Jacobi solver: sweeps over the pairs (0,1), (0,2), (1,2)
until every tet's off-diagonal sum is at most 1e-15 times its diagonal sum
(4 sweeps on random and on mesh Jacobians, fewer on repeated spectra); the
8-sweep cap is a safety net that raises ``FrameError``. The smallest
eigenvalue is c = det J / (a b), exact since det J = a b c, so the ratio
a/c stays accurate to a few ulps where sqrt of the smallest eigenvalue of
J^T J would lose cond(J)^2 * eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .laplace import p1_stiffness
from .tetmesh import TetMesh, _det3


class FrameError(ValueError):
    pass


# Safety cap of the Jacobi eigensolver; 4 sweeps is the normal exit.
_MAX_SWEEPS = 8
# Each rotation (p, q) zeroes a_pq and mixes the two entries a_rp, a_rq of
# the third index r; keys are (row, col) with row < col.
_ROTATIONS = (((0, 1), (0, 2), (1, 2)),
              ((0, 2), (0, 1), (1, 2)),
              ((1, 2), (0, 1), (0, 2)))


def jacobian_per_tet(mesh: TetMesh, positions: np.ndarray) -> np.ndarray:
    """Jacobians of the piecewise-linear map ``mesh.vertices -> positions``.

    J = sum_k x_k grad(phi_k)^T over the four corners, a batched matmul of the
    deformed corners against the rest mesh's cached ``hat_gradients``; it
    satisfies J @ E_rest = E_def per tet.
    """
    corners = np.asarray(positions, dtype=np.float64)[mesh.tets]  # (m, 4, 3)
    return np.swapaxes(corners, 1, 2) @ mesh.hat_gradients


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


def _sym3_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of symmetric 3 x 3 matrices by cyclic Jacobi.

    Returns eigenvalues (m, 3) in descending order and the matching
    orthonormal eigenvectors as the columns of (m, 3, 3).
    """
    m = len(C)
    diag = [C[:, i, i].copy() for i in range(3)]
    off = {key: C[:, key[0], key[1]].copy() for key in ((0, 1), (0, 2), (1, 2))}
    V = np.zeros((3, 3, m))
    for i in range(3):
        V[i, i] = 1.0
    zero = np.zeros(m)
    sweeps = 0
    while True:
        excess = (np.abs(off[0, 1]) + np.abs(off[0, 2]) + np.abs(off[1, 2])
                  - 1e-15 * (np.abs(diag[0]) + np.abs(diag[1]) + np.abs(diag[2])))
        if np.all(excess <= 0.0):
            break
        if sweeps == _MAX_SWEEPS:
            bad = int(np.argmax(excess))
            raise FrameError(f"Jacobi eigensolver did not converge on tet {bad} "
                             f"in {_MAX_SWEEPS} sweeps")
        for (p, q), rp, rq in _ROTATIONS:
            apq = off[p, q]
            tau = diag[q] - diag[p]
            # tan of the rotation angle, the smaller root; 0 when a_pq = 0
            t = 2.0 * apq * np.copysign(1.0, tau) / np.maximum(
                np.abs(tau) + np.hypot(tau, 2.0 * apq), 1e-300)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            diag[p] = diag[p] - t * apq
            diag[q] = diag[q] + t * apq
            off[p, q] = zero
            arp, arq = off[rp], off[rq]
            off[rp] = c * arp - s * arq
            off[rq] = s * arp + c * arq
            vp, vq = V[:, p].copy(), V[:, q]
            V[:, p] = c * vp - s * vq
            V[:, q] = s * vp + c * vq
        sweeps += 1
    evals = np.stack(diag, axis=1)
    order = np.argsort(-evals, axis=1, kind="stable")
    return (np.take_along_axis(evals, order, axis=1),
            np.take_along_axis(np.moveaxis(V, 2, 0), order[:, None, :], axis=2))


def frame_decompose(J: np.ndarray) -> TetFrameField:
    """Eigen-decompose the dilation part of one or many Jacobians.

    Accepts (3, 3) or (m, 3, 3); eigenvalues are sorted descending with the
    smallest one signed by det J. The frames are the eigenvectors of J^T J
    from the batched Jacobi solver (converged when every tet's off-diagonal
    sum is at most 1e-15 times its diagonal sum; ``FrameError`` after 8
    sweeps). a and b are the square roots of the two largest eigenvalues and
    c = det J / (a b), which is exact algebra (det J = a b c) and keeps a/c
    accurate where sqrt of the smallest eigenvalue would not be.
    """
    J = np.asarray(J, dtype=np.float64)
    single = J.ndim == 2
    if single:
        J = J[None]
    det = _det3(J)
    if np.any(np.abs(det) <= 1e-14):
        bad = int(np.argmin(np.abs(det)))
        raise FrameError(f"singular Jacobian on tet {bad} (det={det[bad]:.3e})")
    eigvals, eigvecs = _sym3_eigh(np.swapaxes(J, 1, 2) @ J)
    W = _fix_column_signs(eigvecs)
    lam = np.sqrt(np.maximum(eigvals, 0.0))
    lam[:, 2] = det / (lam[:, 0] * lam[:, 1])
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
    return (W * d[:, None, :]) @ np.swapaxes(W, 1, 2)


def reconstruct_map(mesh: TetMesh, frames: TetFrameField,
                    fixed_indices: np.ndarray, fixed_points: np.ndarray) -> np.ndarray:
    """Rebuild vertex positions realizing a prescribed dilation field.

    Solves the three scalar equations div(A grad u) = 0 with the per-tet
    coefficient from ``anisotropy_matrices`` and Dirichlet values at
    ``fixed_indices``. With identity frames this reduces to the harmonic fill.
    """
    system = p1_stiffness(mesh.connectivity.plan, mesh.volumes, mesh.hat_gradients,
                          anisotropy_matrices(frames))
    fixed_indices = np.asarray(fixed_indices, dtype=np.int64)
    if len(fixed_indices) == 0:
        raise ValueError("reconstruction needs at least one constrained vertex")
    system.constrain(fixed_indices, np.asarray(fixed_points, dtype=np.float64))
    return linsolve.solve(system, np.zeros((len(mesh.vertices), 3)), tol=1e-9)
