"""Per-tet Jacobian analysis and prescribed-dilation map reconstruction.

Layout: per-tet stacks are component-major as in ``tetmesh``. A Jacobian
stack is (3, 3, m), tet index last, handed out as its (m, 3, 3) view, and so
are the coefficients of ``residual_coefficients``, which ``laplace.p1_blocks``
reads without a copy. A ``TetFrameField`` holds (m, 3, 3) orthonormal frames
(det +1) and (m, 3) signed triples.

Contract: the dilation triple of J = E E_rest^-1 is a >= b >= |c|, the
singular values of J with sign(c) = sign(det J), so the ratio a/c is
negative exactly on inverted tets. a and b come from a batched cyclic Jacobi
solver on J^T J (no LAPACK), run until every tet's off-diagonal sum is at
most 1e-15 of its diagonal sum; c = det J / (a b) keeps a/c accurate to a
few ulps. ``dilations`` returns the triples of ``frame_decompose`` bitwise,
without eigenvectors. The 3dqc coefficient (``residual_coefficients``)
needs no frames: it comes from the closed-form stretch tensor sqrt(J^T J)
and agrees with the frame form to 3e-11 relative up to K = 1e5 (CHANGES.md,
"3dqc runs without eigenvectors"). Frames are computed only for 3ddeq's
advected map, whose increment is taken index-wise in its frames and so is
not affine in sqrt(J^T J), and for the tets a rebuild screens
(``fold_candidates``); ``reconstruct_map`` gives every other tet the current
map's own stiffness.

Errors: ``FrameError`` (a ValueError) names the first offending tet: a
singular J (|det J| <= 1e-14), a Jacobi solve unconverged after
``_MAX_SWEEPS`` sweeps, or a triple an operator cannot take. ValueError on
a residual constant <= 0, a truncation threshold <= 1, or a reconstruction
with no fixed vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .laplace import p1_blocks
from .tetmesh import TetMesh, _dot, component_major, corner_edges, per_tet, tet_gradients


class FrameError(ValueError):
    pass


# Safety cap of the Jacobi eigensolver: random and mesh Jacobians converge in
# 4 sweeps, repeated spectra in fewer.
_MAX_SWEEPS = 8
# Each rotation (p, q) zeroes a_pq and mixes the two entries a_rp, a_rq of
# the third index r; keys are (row, col) with row < col.
_ROTATIONS = (((0, 1), (0, 2), (1, 2)),
              ((0, 2), (0, 1), (1, 2)),
              ((1, 2), (0, 1), (0, 2)))


def jacobian_per_tet(mesh: TetMesh, positions: np.ndarray) -> np.ndarray:
    """Jacobians (m, 3, 3) of the piecewise-linear map ``mesh.vertices ->
    positions``, a view of a component-major (3, 3, m) stack.

    J = E E_rest^-1 from the deformed edges E of one ``tetmesh.corner_edges``
    gather and the rest hat gradients of corners 1-3 (the rows of E_rest^-1),
    so J @ E_rest = E_def per tet.
    """
    e = corner_edges(positions, mesh.tets)
    g = component_major(mesh.hat_gradients)  # (4, 3, m)
    J = np.empty((3, 3, e.shape[2]))
    for r in range(3):
        for c in range(3):
            np.add(e[r, 0] * g[1, c] + e[r, 1] * g[2, c], e[r, 2] * g[3, c], out=J[r, c])
    return per_tet(J)


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

    def descending(self) -> "TetFrameField":
        """This field with each triple sorted descending and each value kept
        on its frame column: a reordered tet's columns take the same
        permutation and are re-gauged to det +1; a tet already in order
        (ties included) keeps its frame and triple bitwise."""
        order = np.argsort(-self.lambdas, axis=1, kind="stable")
        moved = np.flatnonzero(np.any(order != np.arange(3), axis=1))
        frames = self.frames.copy()
        frames[moved] = _fix_column_signs(
            np.take_along_axis(frames[moved], order[moved, None, :], axis=2))
        return TetFrameField(frames, np.take_along_axis(self.lambdas, order, axis=1))


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


def _det3(M) -> np.ndarray:
    """Determinants of component-major 3 x 3 matrices ``M[i][j]`` (rows of
    any shape), by cofactor expansion along the first row."""
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _gram(J: np.ndarray) -> tuple[list, dict]:
    """J^T J's six unique entries of an (m, 3, 3) stack from the columns
    j_k = J[:, :, k]: the diagonal [j0.j0, j1.j1, j2.j2] and the off-diagonal
    {(p, q): jp.jq}, each a sum over contiguous rows when J is a view of a
    component-major stack."""
    cols = np.transpose(J, (2, 1, 0))  # cols[k][r] = J[:, r, k]
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
    det = _det3(component_major(J))
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
    """Frames and signed dilation triples of (3, 3) or (m, 3, 3) Jacobians:
    the eigenvectors of J^T J from the Jacobi solver of the module
    docstring, gauged by ``_fix_column_signs``, and a >= b >= |c| with
    c = det J / (a b). ``FrameError`` on a singular J or an unconverged
    solve."""
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
        Jc = component_major(J)
        passed |= np.einsum("ijm,ijm->m", Jc, Jc) ** 1.5 > ratio * det
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
    """The (m, 3, 3) stack of the symmetric entries ``_gram`` gives, a view
    of a component-major (3, 3, m) array."""
    out = np.empty((3, 3, len(diag[0])))
    for i in range(3):
        out[i, i] = diag[i]
    for (p, q), x in off.items():
        out[p, q] = out[q, p] = x
    return per_tet(out)


def _stretch(J: np.ndarray, lam: np.ndarray) -> tuple[list, dict]:
    """The entries of P = sqrt(J^T J) of (m, 3, 3) Jacobians with positive
    triples ``lam`` (c = |det J| / (a b)), in closed form (L. P. Franca,
    Comput. Math. Appl. 18(5), 1989): Cayley-Hamilton with P^2 = J^T J and
    s1 = a + b + c, s2 = ab + bc + ca, s3 = abc gives
    P = s1 I - adj(J^T J + s2 I) / k, where k = (a + b)(b + c)(c + a)
    = s1 s2 - s3 comes from the triple without cancellation."""
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
    # an (m, 3) view of a component-major copy: each lam[:, k] is a row
    lam = per_tet(np.ascontiguousarray(component_major(np.asarray(lambdas, dtype=np.float64))))
    _reject_rows(np.any(lam <= 0, axis=1), lam,
                 "residual coefficients need positive eigenvalues; flip first")
    theta, stepped = _residual(lam, C)
    diag, off = _stretch(np.asarray(J, dtype=np.float64), lam)
    keep, shift = 1.0 - theta, theta * lam[:, 1]
    (d0, d1, d2), o = _sym_adj([keep * x + shift for x in diag],
                               {key: keep * x for key, x in off.items()})
    o01, o02, o12 = o[0, 1], o[0, 2], o[1, 2]
    det = stepped[:, 0] * stepped[:, 1] * stepped[:, 2]
    return _sym_matrix([(d0 * d0 + o01 * o01 + o02 * o02) / det,
                        (d1 * d1 + o01 * o01 + o12 * o12) / det,
                        (d2 * d2 + o02 * o02 + o12 * o12) / det],
                       {(0, 1): ((d0 + d1) * o01 + o02 * o12) / det,
                        (0, 2): ((d0 + d2) * o02 + o01 * o12) / det,
                        (1, 2): ((d1 + d2) * o12 + o01 * o02) / det})


def reconstruct_map(mesh: TetMesh, prescribed: TetFrameField | np.ndarray,
                    fixed_indices: np.ndarray, fixed_points: np.ndarray,
                    start: np.ndarray | None = None, tets: np.ndarray | None = None,
                    geometry=None, history=()) -> np.ndarray:
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
    way. ``history``, a bounded list of the caller's earlier maps of the
    same run, moves an iterative solve's start to the A-norm-best
    combination of ``start`` and them (``linsolve.solve``); the stopping
    test stays as it is. With identity frames this reduces to the harmonic
    fill.
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
    return linsolve.solve(system, np.zeros((len(mesh.vertices), 3)), tol=1e-9, start=start,
                          history=history)
