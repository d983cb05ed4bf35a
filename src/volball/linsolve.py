"""Sparse symmetric systems with Dirichlet constraints.

All finite-element solves in the package go through this module: assembly,
constraint handling by row/column elimination, and a diagonally
preconditioned conjugate gradient for the reduced SPD system.

Assembly is split in two. An ``AssemblyPlan`` holds what depends only on the
connectivity: the sorted CSR pattern of a triplet layout and the slot of each
triplet in it, built once per mesh (or per boundary triangulation). ``assemble``
takes a plan and one value per triplet and scatters them with ``np.bincount``,
which sums the duplicates of each entry in input order, so repeated runs are
bitwise identical. Every assembly still checks symmetry against the plan's
transpose slots, the precondition of the conjugate gradient solve. A plan
also knows the slot of each row's diagonal entry, where callers add a mass
matrix in place.

The conjugate gradient (``_pcg``) is preconditioned by the inverse diagonal
and updates its vectors in place; it raises SolverError as soon as a
curvature p . A p is not positive, NaN included, rather than running out its
iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt

import numpy as np
from scipy.sparse import csr_matrix

DEFAULT_TOL = 1e-10


class SolverError(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.iterations = iterations
        self.residual = residual


@dataclass
class LinearSystem:
    """Sparse symmetric operator plus optional Dirichlet constraints.

    ``fixed_indices`` (sorted, unique) lists the constrained rows and
    ``fixed_values`` their values, one row (a scalar or one value per
    right-hand side) each; a repeated index keeps its first value.
    Constrained rows and columns are eliminated before the iterative solve so
    the reduced operator stays symmetric.
    """

    dimension: int
    matrix: csr_matrix
    fixed_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    fixed_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def constrain(self, indices, values) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        self.fixed_indices, first = np.unique(indices, return_index=True)
        self.fixed_values = np.asarray(values, dtype=np.float64)[first]


class AssemblyPlan:
    """Sparsity pattern of a fixed triplet layout, built once per connectivity.

    Sorts the (row, col) triplets once and keeps the CSR ``indptr`` and
    ``indices`` of the unique entries, the CSR ``slot`` of every triplet and,
    for every entry, the slot of its transpose (-1 where the pattern lacks
    it). ``assemble`` then only scatters values.
    """

    def __init__(self, dimension: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= dimension
                          or cols.min() < 0 or cols.max() >= dimension):
            raise IndexError("triplet index out of range")
        self.dimension = dimension
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        new_entry = np.ones(r.size, dtype=bool)
        new_entry[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self.slot = np.empty(r.size, dtype=np.int64)
        self.slot[order] = np.cumsum(new_entry) - 1
        r, c = r[new_entry], c[new_entry]
        self.indices = c
        self.indptr = np.searchsorted(r, np.arange(dimension + 1))
        # entries are sorted by (row, col), so their keys are sorted too
        key = r * dimension + c
        mirror = c * dimension + r
        at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        self.transpose_slot = np.where(key[at] == mirror, at, -1)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """CSR slot of each row's diagonal entry, shape (dimension,)."""
        rows = np.repeat(np.arange(self.dimension), np.diff(self.indptr))
        slots = np.flatnonzero(self.indices == rows)
        if slots.size != self.dimension:
            raise ValueError("pattern lacks a diagonal entry in some row")
        return slots

    @classmethod
    def for_elements(cls, elements: np.ndarray, dimension: int) -> "AssemblyPlan":
        """Plan of the k x k local matrices of an (m, k) element array, each
        flattened row-major."""
        k = elements.shape[1]
        return cls(dimension, np.repeat(elements, k, axis=1).reshape(-1),
                   np.tile(elements, (1, k)).reshape(-1))


def assemble(plan: AssemblyPlan, values) -> LinearSystem:
    """Build a symmetric LinearSystem from the values of ``plan``'s triplets.

    Duplicates are summed by ``np.bincount`` in input order, so assembly is
    bitwise reproducible across runs. Raises ValueError when the result is not
    symmetric, the precondition of the conjugate gradient solve.
    """
    data = np.bincount(plan.slot, weights=np.asarray(values, dtype=np.float64),
                       minlength=plan.indices.size)
    mirrored = np.where(plan.transpose_slot >= 0, data[plan.transpose_slot], 0.0)
    scale = max(np.abs(data).max(initial=0.0), 1.0)
    if np.abs(data - mirrored).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("assembled matrix is not symmetric")
    n = plan.dimension
    return LinearSystem(n, csr_matrix((data, plan.indices, plan.indptr), shape=(n, n)))


def _pcg(A, b, rtol, maxiter, x0=None):
    """Jacobi-preconditioned CG from x0 (default 0): returns (x, iterations,
    residual).

    It stops once ``||b - A x|| <= rtol * ||b||``, measured against the
    right-hand side whatever the start. Norms are ``sqrt(r @ r)``, bitwise
    equal to ``np.linalg.norm`` on 1-D input, and the search direction is
    updated in place; a curvature ``p @ A p`` that is not positive (NaN
    included) raises at once.
    """
    n = len(b)
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag
    b = np.ascontiguousarray(b)  # as np.linalg.norm's ravel makes it
    bnorm = sqrt(b @ b)
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    if x0 is None:
        x, r = np.zeros(n), b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - A @ x
    res = sqrt(r @ r)
    if res <= rtol * bnorm:
        return x, 0, res
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            raise SolverError("matrix is not positive definite", k, res)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = sqrt(r @ r)
        if res <= rtol * bnorm:
            return x, k, res
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError("conjugate gradient did not converge", maxiter, res)


def solve(system: LinearSystem, rhs, tol: float = DEFAULT_TOL,
          start: np.ndarray | None = None) -> np.ndarray:
    """Solve the (constrained) system for one or several right-hand sides.

    Constrained entries of the result equal their fixed values exactly; the
    free part satisfies ``||A x - b|| <= tol * ||b||`` on the reduced system.
    ``start``, shaped like the result, is the initial guess of the free part
    (zero by default).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs.copy()
    if b.shape[0] != system.dimension:
        raise ValueError("rhs size does not match system dimension")
    n = system.dimension
    nrhs = b.shape[1]
    x = np.zeros((n, nrhs))

    A = system.matrix
    fixed_idx = system.fixed_indices
    if fixed_idx.size == 0:
        # nothing to eliminate: the reduced system is the system itself
        free_idx, A_ff, b_f = slice(None), A, b
    else:
        # (k,) values repeat across the right-hand sides, (k, nrhs) map one to one
        fixed_vals = np.broadcast_to(system.fixed_values.T, (nrhs, len(fixed_idx))).T
        free = np.ones(n, dtype=bool)
        free[fixed_idx] = False
        free_idx = np.flatnonzero(free)
        A_ff = A[free_idx][:, free_idx].tocsr()
        A_fc = A[free_idx][:, fixed_idx].tocsr()
        b_f = b[free_idx] - A_fc @ fixed_vals
        x[fixed_idx] = fixed_vals

    maxiter = max(10 * A_ff.shape[0], 50)
    guess = None if start is None else np.asarray(start, dtype=np.float64).reshape(n, nrhs)
    for j in range(nrhs):
        x[free_idx, j], _, _ = _pcg(A_ff, b_f[:, j], tol, maxiter,
                                    None if guess is None else guess[free_idx, j])
    return x[:, 0] if single else x
