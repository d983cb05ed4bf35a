"""Per-tet Jacobian analysis and prescribed-dilation map reconstruction.

Each tet of a piecewise-linear map carries a Jacobian J whose dilation factor
P = sqrt(J^T J) has eigenvalues a >= b >= |c| with sign(c) = sign(det J); the
ratio a/c measures anisotropic distortion and is negative exactly on inverted
tets. The module provides the eigenvalue operators used by the solvers
(flip, residual descent, truncation) and the divergence-form solve that
rebuilds a map realizing a prescribed frame field (``laplace.p1_blocks``).

All per-tet 3 x 3 work is closed-form and vectorised over the tets, with no
batched LAPACK call. J is a matmul against the rest mesh's cached hat
gradients, det J a cofactor expansion, and J^T J's six unique entries come
from the columns of J. Its eigenvalues come from a batched cyclic Jacobi
solver: sweeps over the pairs (0,1), (0,2), (1,2) until every tet's
off-diagonal sum is at most 1e-15 times its diagonal sum (4 sweeps on random
and on mesh Jacobians, fewer on repeated spectra); the 8-sweep cap is a
safety net that raises ``FrameError``. The smallest eigenvalue is
c = det J / (a b), exact since det J = a b c, so the ratio a/c stays accurate
to a few ulps where sqrt of the smallest eigenvalue of J^T J would lose
cond(J)^2 * eps. The closed trigonometric form of a 3 x 3 spectrum is not
used: on 20 000 random J with a/c = 1e3 and b within 1e-2 of c its middle
eigenvalue is off by up to 4e-3 relative against the SVD, where Jacobi's is
off by 1e-10.

Eigenvectors are accumulated only where a caller needs frames:
``frame_decompose`` gives frames and triples, ``dilations`` the bitwise
identical triples from the same sweeps without them. The overlap
correction's rebuild edits only inverted tets and those with a/c above a
near-fold ratio; ``fold_candidates`` screens them from det J and tr(J^T J),
so only screened tets are eigen-solved and only edited ones framed. An
unedited tet keeps its block |V_rest| G_rest det J (J^T J)^-1 G_rest^T, which
is the current map's own 2 |V| G G^T (G = G_rest J^-1, V = det J V_rest). On
200 random J with singular values (K, sqrt K, 1) its worst energy-norm error
against a long-double reference is 8e-11 at K = 1e3 and 8e-7 at K = 1e5; the
frame form's is 7e-11 and 6e-7, the cofactor form M M^T / det J's 1.2e-10
and 9e-7, and that of adj(J^T J) / det J, which squares the condition
number, 1e-8 and 1e-2.

The 3dqc step needs no eigenvectors. Its residual step moves every triple to
(1 - theta)(a, b, c) + theta b, so the stepped stretch tensor is
P' = (1 - theta) P + theta b I, affine in P = sqrt(J^T J). P itself has a
closed form (L. P. Franca, "An algorithm to compute the square root of a
3 x 3 positive definite matrix", Comput. Math. Appl. 18(5), 1989): by
Cayley-Hamilton on P with P^2 = J^T J and the triple's invariants
s1 = a + b + c, s2 = ab + bc + ca, s3 = abc (c = |det J| / (a b)),
P = (J^T J + s2 I)^-1 (s1 J^T J + s3 I) = s1 I - adj(J^T J + s2 I) / k, where
k = (a + b)(b + c)(c + a) = s1 s2 - s3 comes from the triple without
cancellation (det(J^T J + s2 I) = k^2) and cond(J^T J + s2 I) <= 1 + a/b.
The coefficient ``anisotropy_matrices`` would build on the stepped triple
is then det(P') P'^-2 = adj(P')^2 / (a'b'c'), six-entry component
arithmetic (``residual_coefficients``). Against a 40-digit mpmath reference
on 200 random J with singular values (K, sqrt K, 1) and residual constant
50, the worst relative Frobenius error of the coefficient is

    K       frame form   closed form
    10      2.3e-15      5.5e-15
    1e3     9.7e-14      9.7e-14
    1e5     2.6e-11      2.6e-11

and at most 6e-15 on the repeated spectra (2, 2, 1), (2, 1, 1) and
(1.5, 1.5, 1.5). The frame form stays for 3ddeq, whose increment is taken
index-wise in the advected frames and so is not affine in P, and for the
overlap correction's rebuild, which frames only the few tets it edits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .laplace import p1_blocks
from .tetmesh import TetMesh, _det3, tet_gradients


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
        return anisotropy_ratios(self.lambdas)


def anisotropy_ratios(lambdas: np.ndarray) -> np.ndarray:
    """Signed anisotropy ratio a/c per triple (negative on inverted tets,
    infinite on collapsed ones)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return lambdas[:, 0] / lambdas[:, 2]


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


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (m, 3) arrays by components."""
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _gram(J: np.ndarray) -> tuple[list, dict]:
    """J^T J's six unique entries from the columns j_k = J[:, :, k]: the
    diagonal [j0.j0, j1.j1, j2.j2] and the off-diagonal {(p, q): jp.jq}."""
    cols = np.moveaxis(J, 2, 0)  # cols[k][:, r] = J[:, r, k]
    return ([_dot(col, col) for col in cols],
            {(p, q): _dot(cols[p], cols[q]) for p, q in ((0, 1), (0, 2), (1, 2))})


def _sym3_eigh(diag: list, off: dict, vectors: bool):
    """Eigenpairs of a stack of symmetric 3 x 3 matrices by cyclic Jacobi.

    The matrices are given by their diagonal [C00, C11, C22] and off-diagonal
    {(p, q): Cpq} entries, as ``_gram`` makes them, and are rotated in place.
    Returns eigenvalues (m, 3) in descending order and, with ``vectors``, the
    matching orthonormal eigenvectors as the columns of (m, 3, 3), else None.
    The eigenvalues do not depend on ``vectors``: the same sweeps run either
    way, and only the accumulation of the rotations is skipped.
    """
    m = len(diag[0])
    V = None
    if vectors:
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
                np.abs(tau) + np.sqrt(tau * tau + 4.0 * apq * apq), 1e-300)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            diag[p] = diag[p] - t * apq
            diag[q] = diag[q] + t * apq
            off[p, q] = zero
            arp, arq = off[rp], off[rq]
            off[rp] = c * arp - s * arq
            off[rq] = s * arp + c * arq
            if V is not None:
                vp, vq = V[:, p].copy(), V[:, q]
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        sweeps += 1
    evals = np.stack(diag, axis=1)
    order = np.argsort(-evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    if V is None:
        return evals, None
    return evals, np.take_along_axis(np.moveaxis(V, 2, 0), order[:, None, :], axis=2)


def _checked_jacobians(J) -> tuple[np.ndarray, np.ndarray]:
    """J as an (m, 3, 3) stack and det J; ``FrameError`` on a singular J."""
    J = np.asarray(J, dtype=np.float64)
    if J.ndim == 2:
        J = J[None]
    det = _det3(J)
    if np.any(np.abs(det) <= 1e-14):
        bad = int(np.argmin(np.abs(det)))
        raise FrameError(f"singular Jacobian on tet {bad} (det={det[bad]:.3e})")
    return J, det


def _signed_triples(eigvals: np.ndarray, det: np.ndarray) -> np.ndarray:
    """(a, b, c) from the descending eigenvalues of J^T J: a and b their
    square roots, c = det J / (a b)."""
    lam = np.sqrt(np.maximum(eigvals, 0.0))
    lam[:, 2] = det / (lam[:, 0] * lam[:, 1])
    return lam


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
    J, det = _checked_jacobians(J)
    eigvals, eigvecs = _sym3_eigh(*_gram(J), vectors=True)
    return TetFrameField(_fix_column_signs(eigvecs), _signed_triples(eigvals, det))


def dilations(J: np.ndarray) -> np.ndarray:
    """Signed dilation eigenvalues (m, 3), a >= b >= |c|, of one or many
    Jacobians: bitwise ``frame_decompose(J).lambdas`` (the same Jacobi sweeps
    on the same Gram entries, without the eigenvectors), and the same
    ``FrameError`` on a singular J."""
    J, det = _checked_jacobians(J)
    eigvals, _ = _sym3_eigh(*_gram(J), vectors=False)
    return _signed_triples(eigvals, det)


def fold_candidates(J: np.ndarray, ratio: float | None = None) -> np.ndarray:
    """Indices of the Jacobians with det J <= 0 or, with ``ratio``, with
    tr(J^T J)^(3/2) > ratio det J: a superset of those with a/c > ratio, since
    a/c = a^2 b / det J and a^2 b <= tr(J^T J)^(3/2) / 2.6. ``FrameError`` on
    a singular J of any tet, as ``dilations``."""
    J, det = _checked_jacobians(J)
    passed = det <= 0
    if ratio is not None:
        flat = J.reshape(len(J), 9)
        passed |= np.einsum("ij,ij->i", flat, flat) ** 1.5 > ratio * det
    return np.flatnonzero(passed)


def flip_eigenvalues(lambdas: np.ndarray) -> np.ndarray:
    """Repair inverted triples: (a, b, -c) where the ratio is negative."""
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64)).copy()
    neg = np.sign(lam[:, 2]) != np.sign(lam[:, 0])
    lam[neg, 2] = -lam[neg, 2]
    return lam.reshape(np.shape(lambdas))


def _reject_rows(bad: np.ndarray, lam: np.ndarray, message: str) -> None:
    """``FrameError`` naming the first row flagged in ``bad`` and its triple."""
    if np.any(bad):
        i = int(np.argmax(bad))
        a, b, c = lam[i]
        raise FrameError(f"{message} (tet {i}: {a:.6g}, {b:.6g}, {c:.6g})")


def _residual(lam: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """theta = (K - 1)/((K - 1) + C) per (m, 3) triple and the stepped triples
    (a - theta R, b, c + theta L)."""
    if C <= 0:
        raise ValueError("residual constant must be positive")
    a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
    K = a / c
    _reject_rows(K <= 0, lam, "residual step requires positive ratios; flip first")
    theta = (K - 1.0) / ((K - 1.0) + C)
    return theta, np.column_stack([a - theta * (a - b), b, c + theta * (b - c)])


def residual_step(lambdas: np.ndarray, C: float) -> np.ndarray:
    """One residual-descent update of the eigenvalue triples.

    With residuals R = a - b and L = b - c and weight
    theta = (K - 1)/((K - 1) + C), returns (a - theta R, b, c + theta L);
    the ratio never increases and is unchanged only when a = b = c.
    """
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
    return _residual(lam, C)[1].reshape(np.shape(lambdas))


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
    _reject_rows(np.any(lam <= 0, axis=1), lam,
                 "truncation requires positive eigenvalues; flip first")
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
    _reject_rows(np.any(lam <= 0, axis=1), lam,
                 "anisotropy matrices need positive eigenvalues")
    a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
    d = np.stack([b * c / a, a * c / b, a * b / c], axis=1)
    W = frames.frames
    return (W * d[:, None, :]) @ np.swapaxes(W, 1, 2)


def _sym_adj(diag: list, off: dict) -> tuple[list, dict]:
    """The adjugate of a stack of symmetric 3 x 3 matrices, in and out as the
    diagonal and off-diagonal entries ``_gram`` gives."""
    d0, d1, d2 = diag
    o01, o02, o12 = off[0, 1], off[0, 2], off[1, 2]
    return ([d1 * d2 - o12 * o12, d0 * d2 - o02 * o02, d0 * d1 - o01 * o01],
            {(0, 1): o02 * o12 - o01 * d2, (0, 2): o01 * o12 - o02 * d1,
             (1, 2): o01 * o02 - d0 * o12})


def _sym_matrix(diag: list, off: dict) -> np.ndarray:
    """The (m, 3, 3) stack of the symmetric entries ``_gram`` gives."""
    out = np.empty((len(diag[0]), 3, 3))
    for i in range(3):
        out[:, i, i] = diag[i]
    for (p, q), x in off.items():
        out[:, p, q] = out[:, q, p] = x
    return out


def _stretch(J: np.ndarray, lam: np.ndarray) -> tuple[list, dict]:
    """The entries of P = sqrt(J^T J) of (m, 3, 3) Jacobians with positive
    triples ``lam`` (c = |det J| / (a b)): s1 I - adj(J^T J + s2 I) / k
    (module docstring)."""
    a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
    s1, s2 = a + b + c, a * b + b * c + c * a
    diag, off = _gram(J)
    adj_d, adj_o = _sym_adj([x + s2 for x in diag], off)
    k = (a + b) * (b + c) * (c + a)
    return [s1 - x / k for x in adj_d], {key: -x / k for key, x in adj_o.items()}


def residual_coefficients(J: np.ndarray, lambdas: np.ndarray, C: float) -> np.ndarray:
    """The reconstruction coefficient of the residual step, without frames.

    Equals ``anisotropy_matrices(TetFrameField(frame_decompose(J).frames,
    residual_step(lambdas, C)))`` for the positive (flipped) triples
    ``lambdas`` of (m, 3, 3) Jacobians ``J``: det(P') P'^-2 = adj(P')^2 /
    (a'b'c') with the stepped stretch tensor P' = (1 - theta) P + theta b I
    and P from ``_stretch``. ``FrameError`` names the first non-positive
    triple.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    _reject_rows(np.any(lam <= 0, axis=1), lam,
                 "residual coefficients need positive eigenvalues; flip first")
    theta, stepped = _residual(lam, C)
    diag, off = _stretch(np.asarray(J, dtype=np.float64), lam)
    keep, shift = 1.0 - theta, theta * lam[:, 1]
    (d0, d1, d2), o = _sym_adj([keep * x + shift for x in diag],
                               {key: keep * x for key, x in off.items()})
    o01, o02, o12 = o[0, 1], o[0, 2], o[1, 2]
    coeff = _sym_matrix([d0 * d0 + o01 * o01 + o02 * o02,
                         d1 * d1 + o01 * o01 + o12 * o12,
                         d2 * d2 + o02 * o02 + o12 * o12],
                        {(0, 1): (d0 + d1) * o01 + o02 * o12,
                         (0, 2): (d0 + d2) * o02 + o01 * o12,
                         (1, 2): (d1 + d2) * o12 + o01 * o02})
    coeff /= (stepped[:, 0] * stepped[:, 1] * stepped[:, 2])[:, None, None]
    return coeff


def reconstruct_map(mesh: TetMesh, prescribed: TetFrameField | np.ndarray,
                    fixed_indices: np.ndarray, fixed_points: np.ndarray,
                    start: np.ndarray | None = None, tets: np.ndarray | None = None,
                    geometry=None) -> np.ndarray:
    """Rebuild vertex positions realizing a prescribed dilation field.

    Solves the three scalar equations div(A grad u) = 0 with Dirichlet values
    at ``fixed_indices``; the per-tet A is ``prescribed`` itself, an (m, 3, 3)
    coefficient (as ``residual_coefficients`` builds it), or
    ``anisotropy_matrices(prescribed)`` for a frame field. With ``tets``,
    ``prescribed`` covers only those tets; every other tet must be uninverted
    under ``start`` and keeps its dilation there through the current
    stiffness 2 |V| G G^T from ``geometry``, the ``tetmesh.tet_gradients``
    pair of ``start`` (read when None). The solve starts from ``start`` when
    given, else from zero, and stops at the same relative residual either
    way. With identity frames this reduces to the harmonic fill.
    """
    fixed_indices = np.asarray(fixed_indices, dtype=np.int64)
    if len(fixed_indices) == 0:
        raise ValueError("reconstruction needs at least one constrained vertex")
    coeff = (anisotropy_matrices(prescribed) if isinstance(prescribed, TetFrameField)
             else prescribed)
    if tets is None:
        local = p1_blocks(mesh.volumes, mesh.hat_gradients, coeff)
    else:
        local = p1_blocks(*(tet_gradients(start, mesh.tets) if geometry is None
                            else geometry), 1.0)
        local[tets] = p1_blocks(mesh.volumes[tets], mesh.hat_gradients[tets], coeff)
    system = linsolve.assemble(mesh.connectivity.plan, local.reshape(-1))
    del coeff, local  # assembled; not held through the solve
    system.constrain(fixed_indices, np.asarray(fixed_points, dtype=np.float64))
    return linsolve.solve(system, np.zeros((len(mesh.vertices), 3)), tol=1e-9, start=start)
