"""Sparse symmetric systems with Dirichlet constraints: every finite-element
solve in the package goes through this module.

Layout: a ``LinearSystem(plan, data)`` is an ``AssemblyPlan``, built once per
connectivity (the sorted CSR pattern of a layout of symmetric pairs, where a
triplet (r, c) stands for both (r, c) and (c, r); the pair of each triplet
and of each entry; and, on first use, each row's diagonal slot and the
pattern's ``Band`` in reverse Cuthill-McKee order), plus ``data``, one value
per pattern entry. A ``Block`` (the whole pattern, or a Dirichlet ``Split``'s
free-free or free-fixed block) multiplies by its part of ``data`` without a
matrix: only a solve that iterates builds one.

Contract:
- ``assemble`` sums each pair's triplets with ``np.bincount`` in input order
  and writes the sum to the pair's entry and its mirror, so the result is
  symmetric by construction, and assembly, and every solve after it, is
  bitwise reproducible; CG's dots are summed in chunks of at most DOT_CHUNK
  values, so its results do not depend on the BLAS thread count either.
- ``solve`` returns the fixed entries exactly and a free part with
  ``||b - A x|| <= tol ||b||`` on the reduced system (fixed rows and columns
  eliminated, so it stays symmetric). It factors the system by banded
  Cholesky in the plan's order restricted to the free rows iff
  n_free (bw_free + 1)^2 <= nrhs * BAND_WORK_LIMIT, since one factorization
  serves all nrhs columns while PCG's cost grows with nrhs, and checks each
  factored column against the bound. Jacobi PCG runs where that check fails
  (from the factored column), or where the band is too wide or the
  factorization breaks down (from the caller's start). Each check is CG's
  own stopping test on one ``np.bincount`` residual per column.
- A system with no fixed row skips the split. When its band passes the
  rule, ``rhs`` goes to the band as given, with no padded or transposed
  copy and no start, and the factored array, with CG's columns written into
  it, is the result. A column that misses the bound still continues in CG
  from itself, a breakdown still hands every column to CG from the caller's
  start, and a NaN right-hand side stops at CG's first curvature test.
- With ``history``, a bounded list of earlier solutions of the caller's own
  run (never kept on a plan), each CG column starts from the A-norm-best
  combination of its start and them (P. F. Fischer, CMAME 163, 1998) and
  stops by the same test; factored columns ignore it. Each solve that
  iterates logs one DEBUG record: ``rows``, ``columns``, and per column
  ``history`` (directions the history added) and ``iterations``.

Errors: ``AssemblyPlan`` raises IndexError on a triplet out of range and
``assemble`` ValueError when the values and the plan's triplets differ in
number. ``solve`` raises ValueError on a right-hand side of the wrong
length, and ``SolverError`` when CG meets a curvature p.Ap that is not
positive (NaN included) or runs out of iterations; if the factorization
broke down first, the message names the vertex where it did.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpbsv
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

DEFAULT_TOL = 1e-10

# A system is factored directly when n_free (bw_free + 1)^2 is at most nrhs
# times this. The banded solve wins at the ball2 interior's 6.2e6-7.0e6 per
# column and loses at cube9's 1.0e7 (crossover table: CHANGES.md, "Contracts,
# not histories").
BAND_WORK_LIMIT = 8e6

# Dirichlet splits a plan keeps, keyed by their fixed sets, least recently used
# dropped first: the boundary set every reconstruction repeats stays cached
# while one-off fixed sets pass through (savings: CHANGES.md, "Contracts, not
# histories").
SPLIT_CACHE = 4

# A guess left with at most this share of its norm once the directions before
# it are projected out adds nothing to a Galerkin start: a repeat, or a
# combination of the others, up to rounding.
RANK_TOL = 1e-12

# OpenBLAS splits a dot product of more than 10 000 values across its threads,
# and the split changes the sum's last bits with the thread count. A longer
# dot is summed in chunks of at most this many values, one BLAS call each, the
# chunks added in order.
DOT_CHUNK = 8192

logger = logging.getLogger("volball.linsolve")


class SolverError(RuntimeError):
    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")
        self.message = message
        self.iterations = iterations
        self.residual = residual


@dataclass
class LinearSystem:
    """Sparse symmetric operator on an assembly plan plus optional Dirichlet
    constraints.

    ``data`` holds one value per entry of ``plan``'s CSR pattern;
    ``matrix`` is the CSR view of the two, built on first use and never by
    ``solve``.
    ``fixed_indices`` (sorted, unique) lists the constrained rows and
    ``fixed_values`` their values, one row (a scalar or one value per
    right-hand side) each; a repeated index keeps its first value.
    Constrained rows and columns are eliminated before the solve so the
    reduced operator stays symmetric.
    """

    plan: AssemblyPlan
    data: np.ndarray
    fixed_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    fixed_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def dimension(self) -> int:
        return self.plan.dimension

    @cached_property
    def matrix(self) -> csr_matrix:
        return self.plan.pattern.matrix(self.data)

    def constrain(self, indices, values) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        self.fixed_indices, first = np.unique(indices, return_index=True)
        self.fixed_values = np.asarray(values, dtype=np.float64)[first]


@dataclass(frozen=True)
class Band:
    """Rows of a plan's pattern in reverse Cuthill-McKee order as LAPACK lower
    band storage."""

    order: np.ndarray    # (n,) band row k is the plan's row order[k]
    bandwidth: int
    entries: np.ndarray  # CSR slots of the entries on or below the band's diagonal
    cells: np.ndarray    # their flat index in the Fortran-ordered (bandwidth + 1, n) band

    @property
    def work(self) -> int:
        """n (bw + 1)^2, the factorization's cost up to a constant."""
        return len(self.order) * (self.bandwidth + 1) ** 2

    def factors(self, nrhs: int) -> bool:
        """The size rule: whether ``solve`` factors this band for ``nrhs``
        right-hand sides (an empty band never is)."""
        return bool(self.order.size) and self.work <= nrhs * BAND_WORK_LIMIT

    def restrict(self, free: np.ndarray) -> "Band":
        """This band on the rows where the mask ``free`` holds, in this order:
        the entries with both ends free, packed at their own bandwidth."""
        kept = free[self.order]
        rank = np.cumsum(kept) - 1
        cols, offset = np.divmod(self.cells, self.bandwidth + 1)
        rows = cols + offset
        inside = kept[rows] & kept[cols]
        rows, cols = rank[rows[inside]], rank[cols[inside]]
        offset = rows - cols
        bandwidth = int(offset.max(initial=0))
        return Band(self.order[kept], bandwidth, self.entries[inside],
                    offset + (bandwidth + 1) * cols)


@dataclass(frozen=True)
class Block:
    """A CSR pattern whose values sit at ``slots`` of a larger data array: a
    whole plan's pattern (``slots`` then takes all of it) or one block of a
    Dirichlet split."""

    slots: np.ndarray | slice
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each entry, in CSR order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def matrix(self, data: np.ndarray) -> csr_matrix:
        return csr_matrix((data[self.slots], self.indices, self.indptr), shape=self.shape)

    def matvec(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``self.matrix(data) @ x`` for an (ncols, nrhs) ``x``, with no CSR
        built: each row's products summed from zero in CSR order, as scipy's
        ``csr_matvec`` sums them, so the result is bitwise scipy's. Columns
        go one at a time (a 2-D gather of ``x`` rows costs more than the sums)
        and the result is the transpose of a C-contiguous (nrhs, nrows)."""
        values = data[self.slots]
        return np.array([np.bincount(self.rows, values * column[self.indices],
                                     minlength=self.shape[0]) for column in x.T]).T


@dataclass(frozen=True)
class Split:
    """The Dirichlet split of a CSR pattern at a sorted fixed set: the free
    rows, the free-free and free-fixed blocks (entry for entry
    ``A[free][:, free]`` and ``A[free][:, fixed]``) and the pattern's band
    restricted to the free rows."""

    free: np.ndarray   # (n_free,) the free rows, ascending
    inner: Block       # free-free
    outer: Block       # free-fixed
    band: Band

    @classmethod
    def of(cls, indptr, indices, fixed: np.ndarray, band: Band) -> "Split":
        n = len(indptr) - 1
        free = np.ones(n, dtype=bool)
        free[fixed] = False
        free_idx = np.flatnonzero(free)
        rank = np.empty(n, dtype=np.int64)
        rank[free_idx] = np.arange(free_idx.size)
        rank[fixed] = np.arange(fixed.size)
        in_free_row = np.repeat(free, np.diff(indptr))
        free_col = free[indices]

        def block(mask, n_cols):
            # entries keep their CSR order: free rows ascending, columns sorted
            before = np.concatenate([[0], np.cumsum(mask)])
            slots = np.flatnonzero(mask)
            return Block(slots, rank[indices[slots]],
                         np.append(before[indptr[free_idx]], slots.size),
                         (free_idx.size, n_cols))

        return cls(free_idx, block(in_free_row & free_col, free_idx.size),
                   block(in_free_row & ~free_col, fixed.size), band.restrict(free))


class AssemblyPlan:
    """Sparsity pattern of a fixed layout of symmetric pairs, built once per
    connectivity.

    A triplet (r, c) stands for both entries (r, c) and (c, r), or for one
    diagonal entry when r == c; the CSR pattern is the union of the pairs
    and their mirrors. The plan sorts the distinct pairs once and keeps the
    CSR ``indptr`` and ``indices``, the ``slot`` of each triplet among the
    distinct pairs and the ``pair`` of each CSR entry, so ``assemble`` only
    sums and copies values. Built on first use: each row's ``diagonal`` slot
    and the ``band`` the direct solve runs in.
    """

    def __init__(self, dimension: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= dimension
                          or cols.min() < 0 or cols.max() >= dimension):
            raise IndexError("triplet index out of range")
        self.dimension = dimension
        keys, self.slot = np.unique(np.minimum(rows, cols) * dimension + np.maximum(rows, cols),
                                    return_inverse=True)
        lo, hi = np.divmod(keys, dimension)
        off = np.flatnonzero(lo != hi)  # the pairs that have a mirror entry
        r, c = np.concatenate([lo, hi[off]]), np.concatenate([hi, lo[off]])
        order = np.argsort(r * dimension + c)
        self.pair = np.concatenate([np.arange(keys.size), off])[order]
        self.indices = c[order]
        self.indptr = np.searchsorted(r[order], np.arange(dimension + 1))
        self._splits: dict[bytes, Split] = {}

    @cached_property
    def pattern(self) -> Block:
        """The whole pattern as a block of the data it is assembled into."""
        return Block(slice(None), self.indices, self.indptr, (self.dimension,) * 2)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """CSR slot of each row's diagonal entry, shape (dimension,)."""
        slots = np.flatnonzero(self.indices == self.pattern.rows)
        if slots.size != self.dimension:
            raise ValueError("pattern lacks a diagonal entry in some row")
        return slots

    @cached_property
    def band(self) -> Band:
        """The pattern in reverse Cuthill-McKee order (E. Cuthill and J. McKee,
        "Reducing the bandwidth of sparse symmetric matrices", ACM 1969) and
        its band storage; the rule's decision for one right-hand side is
        logged once at DEBUG."""
        n = self.dimension
        order = reverse_cuthill_mckee(self.pattern.matrix(np.ones(self.indices.size)),
                                      symmetric_mode=True).astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        rows = rank[self.pattern.rows]
        cols = rank[self.indices]
        entries = np.flatnonzero(rows >= cols)
        offset = rows[entries] - cols[entries]
        bandwidth = int(offset.max(initial=0))
        band = Band(order, bandwidth, entries, offset + (bandwidth + 1) * cols[entries])
        path = "direct" if band.factors(1) else "pcg"
        logger.debug("plan of %d rows: RCM bandwidth %d, n (bw + 1)^2 = %.3g, %s solves",
                     n, bandwidth, band.work, path,
                     extra={"n": n, "bandwidth": bandwidth, "work": band.work, "path": path})
        return band

    def split(self, fixed: np.ndarray) -> Split:
        """The Dirichlet split of this pattern at the sorted, unique ``fixed``
        rows. The splits of the SPLIT_CACHE most recently used fixed sets are
        kept, keyed by the set's bytes, so only an equal set is served one."""
        fixed = np.asarray(fixed, dtype=np.int64)
        key = fixed.tobytes()
        split = self._splits.pop(key, None)
        if split is None:
            split = Split.of(self.indptr, self.indices, fixed, self.band)
            if len(self._splits) >= SPLIT_CACHE:
                del self._splits[next(iter(self._splits))]
        self._splits[key] = split
        return split

    @classmethod
    def for_elements(cls, elements: np.ndarray, dimension: int) -> "AssemblyPlan":
        """Plan of the symmetric k x k local matrices of an (m, k) element
        array: the k (k + 1) / 2 pairs i <= j of each element, row-major,
        element after element. Each element must have distinct corners, so
        that a pair meets each entry of the pattern at most once."""
        i, j = np.triu_indices(elements.shape[1])
        return cls(dimension, elements[:, i].reshape(-1), elements[:, j].reshape(-1))


def assemble(plan: AssemblyPlan, values) -> LinearSystem:
    """The symmetric LinearSystem of ``plan`` with one value per triplet:
    each distinct pair takes the sum of its values in input order, and its
    entry and its mirror both read that sum."""
    sums = np.bincount(plan.slot, weights=np.asarray(values, dtype=np.float64))
    return LinearSystem(plan, sums[plan.pair])


def _chunked_dot(u: np.ndarray, v: np.ndarray):
    """``np.dot`` of two 1-D arrays summed in DOT_CHUNK pieces, in order."""
    total = np.dot(u[:DOT_CHUNK], v[:DOT_CHUNK])
    for start in range(DOT_CHUNK, len(u), DOT_CHUNK):
        total += np.dot(u[start:start + DOT_CHUNK], v[start:start + DOT_CHUNK])
    return total


def _dot_for(n: int):
    """The dot of 1-D arrays of ``n`` values, whose bits do not depend on the
    BLAS thread count: ``np.dot`` (bitwise ``@``) when they fit in one chunk,
    else ``_chunked_dot``."""
    return np.dot if n <= DOT_CHUNK else _chunked_dot


def _pcg(A, b, rtol, maxiter, x0=None):
    """Jacobi-preconditioned CG from x0 (default 0): returns (x, iterations,
    residual), stopping once ``||b - A x|| <= rtol * ||b||`` whatever the
    start. Norms are ``sqrt(r . r)``, bitwise ``np.linalg.norm`` on 1-D
    input up to DOT_CHUNK values; a curvature ``p . A p`` that is not
    positive (NaN included) raises SolverError at once. Every dot is
    ``_dot_for``'s."""
    n = len(b)
    dot = _dot_for(n)
    b = np.ascontiguousarray(b)  # as np.linalg.norm's ravel makes it
    bnorm = sqrt(dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), 0, 0.0
    if x0 is None:
        x, r = np.zeros(n), b.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = b - A @ x
    res = sqrt(dot(r, r))
    if res <= rtol * bnorm:
        return x, 0, res
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag
    z = inv_diag * r
    p = z.copy()
    rz = float(dot(r, z))
    for k in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(dot(p, Ap))
        if not pAp > 0.0:
            raise SolverError("matrix is not positive definite", k, res)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = sqrt(dot(r, r))
        if res <= rtol * bnorm:
            return x, k, res
        np.multiply(inv_diag, r, out=z)
        rz_new = float(dot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError("conjugate gradient did not converge", maxiter, res)


def _banded_solve(data: np.ndarray, band: Band, b: np.ndarray) -> np.ndarray:
    """Solve for the (n, nrhs) ``b`` on ``band``'s rows of the matrix with CSR
    ``data`` by banded Cholesky in its order, all columns from one
    factorization; rows outside the band come back 0.

    Calls LAPACK's ``dpbsv`` (the routine under ``scipy.linalg.solveh_banded``)
    directly, so a leading minor that is not positive definite comes back as
    its order; the SolverError raised on it names that row's vertex.
    """
    n = len(band.order)
    ab = np.zeros((band.bandwidth + 1) * n)
    ab[band.cells] = data[band.entries]
    _, y, info = dpbsv(ab.reshape((band.bandwidth + 1, n), order="F"), b[band.order],
                       lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise SolverError(f"matrix is not positive definite at vertex {band.order[info - 1]}",
                          0, float(np.linalg.norm(b)))
    x = np.zeros_like(b)
    x[band.order] = y
    return x


def _galerkin_start(A, b: np.ndarray, start: np.ndarray | None,
                    earlier: list[np.ndarray]):
    """The A-norm-best combination of ``start`` (None: left out) and the
    ``earlier`` solutions for A x = b, and the number of directions the
    earlier ones add to the start's.

    The vectors, the start first, get a thin QR by Gram-Schmidt run twice
    over the kept ones ("twice is enough"); a vector left with at most
    RANK_TOL of its norm is dropped, so repeated and dependent guesses cost
    nothing. Each kept direction takes one A-product, and the small Galerkin
    system Q^T A Q y = Q^T b is solved by Cholesky. The dense products are
    ``_dot_for``'s 1-D dots, as in ``_pcg``: LAPACK's QR makes many small
    BLAS calls, each a thread hand-off on a multithreaded BLAS. Returns
    ``start`` itself when no direction is kept or Q^T A Q is not positive
    definite (CG then meets the same curvature and raises).
    """
    basis, own = [], 0
    dot = _dot_for(len(b))
    for v in earlier if start is None else [start, *earlier]:
        w = np.array(v, dtype=np.float64)
        norm = sqrt(dot(w, w))
        for _ in range(2):
            for q in basis:
                w -= dot(q, w) * q
        left = sqrt(dot(w, w))
        if left > RANK_TOL * norm:
            basis.append(w / left)
        if v is start:
            own = len(basis)
    if not basis:
        return start, 0
    products = np.ascontiguousarray((A @ np.column_stack(basis)).T)
    gram = np.zeros((len(basis), len(basis)))
    for i, q in enumerate(basis):
        for j in range(i + 1):
            gram[i, j] = dot(q, products[j])
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except LinAlgError:
        return start, 0
    y = cho_solve(factor, np.array([dot(q, b) for q in basis]), check_finite=False)
    x = y[0] * basis[0]
    for coefficient, q in zip(y[1:], basis[1:]):
        x += coefficient * q
    return x, len(basis) - own


def _check_factored(block: Block, data: np.ndarray, b: np.ndarray, x: np.ndarray,
                    tol: float) -> None:
    """Check each factored column of ``x`` by CG's stopping test
    ``||b - A x|| <= tol ||b||``, A the matrix of ``block`` on ``data``, with
    CG's norms and dots, and continue the columns that miss it in CG from
    themselves. Each residual is one ``np.bincount`` over the block's rows,
    bitwise ``block.matvec``; a zero column of ``b`` sets its column of
    ``x`` to zeros and passes."""
    values, dot, missed = data[block.slots], _dot_for(len(b)), []
    for j in range(b.shape[1]):
        column = np.ascontiguousarray(b[:, j])
        bnorm = sqrt(dot(column, column))
        if bnorm == 0.0:
            x[:, j] = 0.0
            continue
        r = column - np.bincount(block.rows, values * x[:, j][block.indices],
                                 minlength=len(column))
        if not sqrt(dot(r, r)) <= tol * bnorm:
            missed.append(j)  # rounding missed the bound: CG goes on
    _pcg_columns(block, data, b, x, missed, tol, guess=x)


def _pcg_columns(block: Block, data: np.ndarray, b: np.ndarray, x: np.ndarray,
                 columns, tol: float, guess: np.ndarray | None = None, earlier=(),
                 breakdown: SolverError | None = None) -> None:
    """Jacobi PCG into the ``columns`` of ``x`` for the matrix of ``block``
    on ``data``, each from its column of ``guess`` (None: zero) moved to the
    Galerkin start of the ``earlier`` solutions, and one DEBUG record. A
    column is overwritten only after its start is read, so ``guess`` may be
    ``x``. A SolverError after the factorization broke down carries the
    ``breakdown``'s message, which names where the system stops being
    definite."""
    if not columns:
        return
    A = block.matrix(data)
    maxiter, nrhs = max(10 * A.shape[0], 50), x.shape[1]
    used, iterations = [0] * nrhs, [0] * nrhs
    try:
        for j in columns:
            x0 = None if guess is None else guess[:, j]
            if earlier:
                x0, used[j] = _galerkin_start(A, b[:, j], x0, [h[:, j] for h in earlier])
            x[:, j], iterations[j], _ = _pcg(A, b[:, j], tol, maxiter, x0)
    except SolverError as exc:
        if breakdown is None:
            raise
        raise SolverError(breakdown.message, exc.iterations, exc.residual) from exc
    logger.debug("pcg solve of %d rows x %d columns: history directions %s, iterations %s",
                 A.shape[0], nrhs, used, iterations,
                 extra={"rows": A.shape[0], "columns": nrhs, "history": used,
                        "iterations": iterations})


def solve(system: LinearSystem, rhs, tol: float = DEFAULT_TOL,
          start: np.ndarray | None = None, history=()) -> np.ndarray:
    """Solve the (constrained) system for ``rhs`` of shape (n,) or (n, nrhs),
    to the contract of the module docstring; the result has ``rhs``'s shape.

    ``start``, shaped like the result, is CG's guess of the free part (zero
    by default); a factored column that meets the bound needs none.
    ``history``, arrays shaped like the result (earlier solutions of nearby
    systems), moves a CG column's start from the caller's to the A-norm-best
    combination of it and their free parts; without history, or from a
    factored column, CG starts as given. Only CG builds a CSR matrix, and
    then only the free-free block, never ``system.matrix``.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    if b.shape[0] != system.dimension:
        raise ValueError("rhs size does not match system dimension")
    n, nrhs = b.shape
    plan, data, fixed_idx = system.plan, system.data, system.fixed_indices
    if not fixed_idx.size:
        # nothing to eliminate: the reduced system is the system itself, and
        # the band solves b as it stands
        free_idx, inner, band, b_f = slice(None), plan.pattern, plan.band, b
    else:
        # (k,) values repeat across the right-hand sides, (k, nrhs) map one to one
        fixed_vals = np.broadcast_to(system.fixed_values.T, (nrhs, len(fixed_idx))).T
        split = plan.split(fixed_idx)
        free_idx, inner, band = split.free, split.inner, split.band
        b_f = b[free_idx] - split.outer.matvec(data, fixed_vals)
    factored = breakdown = None
    if band.factors(nrhs):
        padded = b_f  # the band reads its rows of an (n, nrhs) right-hand side
        if fixed_idx.size:
            padded = np.zeros((n, nrhs))
            padded[free_idx] = b_f
        try:
            factored = _banded_solve(data, band, padded)[free_idx]
        except SolverError as exc:
            breakdown = exc  # CG runs from the caller's start and decides
    if factored is None:
        x_f = np.zeros((inner.shape[0], nrhs))
        guess = None if start is None else \
            np.asarray(start, dtype=np.float64).reshape(n, nrhs)[free_idx]
        _pcg_columns(inner, data, b_f, x_f, range(nrhs), tol, guess,
                     [np.asarray(h, dtype=np.float64).reshape(n, nrhs)[free_idx]
                      for h in history], breakdown)
    else:
        x_f = factored
        _check_factored(inner, data, b_f, x_f, tol)
    if not fixed_idx.size:
        return x_f[:, 0] if single else x_f
    x = np.zeros((n, nrhs))
    x[fixed_idx] = fixed_vals
    x[free_idx] = x_f
    return x[:, 0] if single else x
