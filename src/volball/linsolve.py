"""Sparse symmetric systems with Dirichlet constraints.

All finite-element solves in the package go through this module: assembly,
constraint handling by row/column elimination, and the solve of the reduced
SPD system, by banded Cholesky or by a diagonally preconditioned conjugate
gradient.

Every system is a ``LinearSystem(plan, data)``: an ``AssemblyPlan`` holds what
depends only on the connectivity, the sorted CSR pattern of a triplet layout
and the slot of each triplet in it, built once per mesh (or per boundary
triangulation), and ``data`` one value per entry of that pattern. ``assemble``
takes a plan and one value per triplet and scatters them with ``np.bincount``,
which sums the duplicates of each entry in input order, so repeated runs are
bitwise identical. Every assembly still checks symmetry against the plan's
transpose slots, the precondition of both solves. A plan also knows the slot
of each row's diagonal entry, where callers add a mass matrix to a copy of
the data. The solves read the data: a constrained solve gathers the CSR
blocks of its free rows from it, and only an unconstrained one builds the
full CSR matrix (``LinearSystem.matrix``, for PCG's products).

The Dirichlet elimination needs the free-free and free-fixed blocks of each
constrained system. A plan keeps the ``Split`` of its ``SPLIT_CACHE`` most
recently used fixed sets (keyed by the set's bytes): the free rows, the CSR
patterns of both blocks with the slots of their entries in the data, and the
band restricted to the free rows, so a repeated fixed set (the boundary, in
every reconstruction) only gathers data. The blocks are entry for entry the
scipy slices ``A[free][:, free]`` and ``A[free][:, fixed]``. Building them
and the restricted band by fancy indexing on every solve cost 49 + 7.6 ms
per ``dem_hemisphere`` operation (32 constrained solves) and 13 + 7.2 ms per
``qc_stretched_20k`` one.

``solve`` takes one of two paths: a system whose band is narrow enough is
factored directly, every other one runs PCG. The plan orders its rows once by
reverse Cuthill-McKee (E. Cuthill and J. McKee, "Reducing the bandwidth of
sparse symmetric matrices", ACM 1969), which leaves a surface mesh a band of
about sqrt(n), and its ``band`` keeps that order, the bandwidth bw and the
scatter of the CSR data into LAPACK lower band storage. A system with fixed rows uses
the same order restricted to its free rows (``Band.restrict``): no ordering
per solve, and a band within a few percent of the free rows' own RCM band
(160 against 166 on the ball2 interior, 380 against 376 on stretched3). One
factorization serves all nrhs right-hand sides, and it costs about
n_free (bw_free + 1)^2 flops, where PCG's cost grows with nrhs, so the rule
is one inequality:

    direct  iff  n_free (bw_free + 1)^2 <= nrhs * BAND_WORK_LIMIT = nrhs * 8e6.

Every other system runs the conjugate gradient. Per solve, best of repeated
runs on a 2-core x86_64 host with two BLAS threads (the results agree to the
PCG tolerance). One column: M + 0.1 L at the mesh's own (or the radially
projected boundary's) geometry, unconstrained, PCG to 1e-10 from zero. Three
columns: the workloads' reconstructions div(A grad u) = 0 with the boundary
fixed, PCG to 1e-9 from the current map:

    system                   n     bw   n (bw+1)^2  Jacobi PCG    banded
    1 column
    graded1 sphere           120   21   5.8e4       0.35-0.64 ms  0.07 ms
    graded1 volume           187   55   5.9e5       0.68-0.71 ms  0.18 ms
    ball2 / graded2 sphere   480   39   7.7e5       0.78-1.3 ms   0.20-0.37 ms
    lcube8 volume            665   66   3.0e6       0.56-1.1 ms   0.56-0.85 ms
    stretched3 sphere        1080  55   3.4e6       2.5-3.9 ms    0.65-1.1 ms
    cube8 volume             729   82   5.0e6       0.69-1.1 ms   0.59-1.1 ms
    cube9 volume             1000  101  1.0e7       0.65 ms       1.1 ms
    ball2 / graded2 volume   1213  219  5.9e7       1.4-2.9 ms    2.6-7.9 ms
    stretched3 volume        3799  457  8.0e8       10-14 ms      36-41 ms
    3 columns, n = n_free
    graded1 interior         67    27   5.3e4       1.7-2.5 ms    0.42-0.55 ms
    ball2 interior           733   160  1.9e7       3.6 ms        2.2-2.5 ms
    stretched3 interior      2719  380  3.9e8       13-14 ms      18 ms

One column breaks even between 5e6 and 1e7, three columns of the harder
anisotropic systems above 1.9e7; the limit sits between the ball2 interior's
6.2e6-7.0e6 per column (over 25 renumberings of the mesh) and cube9's 1.0e7.
A dense Cholesky loses to the banded one everywhere (0.11 ms at n = 120,
2.3-7.5 ms at n = 480). In production the direct path serves the
backward-Euler diffusion systems of ``density.diffusion_step`` on the sphere
and in small balls, the harmonic fills and reconstructions up to the ball2
interior, and the spherical Beltrami repairs; the 1 213-row ball's
diffusion and the stretched ball's reconstructions stay on PCG.

The direct solution is the start of the conjugate gradient, whose first
residual checks the solve contract ``||b - A x|| <= tol * ||b||`` with one
product per column and returns it with no iteration when it holds. Where
rounding keeps the factored solution above the bound (an ill-conditioned
system, whose floor eps ||A|| ||x|| exceeds tol ||b||) the iteration carries
on from it. A leading minor that is not positive definite hands the system to
PCG from the caller's start, as if the rule had said no (a singular but
consistent system can still meet the contract there); if PCG fails too, its
SolverError names the vertex where the factorization broke down. A NaN
right-hand side raises at the first curvature, as on the PCG path.

The conjugate gradient (``_pcg``) is preconditioned by the inverse diagonal
and updates its vectors in place; it raises SolverError as soon as a
curvature p . A p is not positive, NaN included, rather than running out its
iteration budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from math import sqrt

import numpy as np
from scipy.linalg.lapack import dpbsv
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

DEFAULT_TOL = 1e-10

# A system is factored directly when n_free (bw_free + 1)^2 is at most nrhs
# times this (the table in the module docstring).
BAND_WORK_LIMIT = 8e6

# Dirichlet splits a plan keeps, keyed by their fixed sets (least recently
# used dropped first).
SPLIT_CACHE = 4

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
    ``matrix`` is the CSR view of the two, built on first use.
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
        n = self.plan.dimension
        return csr_matrix((self.data, self.plan.indices, self.plan.indptr), shape=(n, n))

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

    @property
    def direct(self) -> bool:
        """The size rule for one right-hand side."""
        return self.work <= BAND_WORK_LIMIT

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
class Split:
    """The Dirichlet split of a CSR pattern at a sorted fixed set: the free
    rows, the CSR patterns of the free-free and free-fixed blocks with the
    slots of their entries in the full data, and the pattern's band
    restricted to the free rows. ``blocks`` only gathers data."""

    free: np.ndarray   # (n_free,) the free rows, ascending
    n_fixed: int
    inner: tuple       # (slots, indices, indptr) of the free-free block
    outer: tuple       # (slots, indices, indptr) of the free-fixed block
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

        def block(mask):
            # entries keep their CSR order: free rows ascending, columns sorted
            before = np.concatenate([[0], np.cumsum(mask)])
            slots = np.flatnonzero(mask)
            return slots, rank[indices[slots]], np.append(before[indptr[free_idx]], slots.size)

        return cls(free_idx, fixed.size, block(in_free_row & free_col),
                   block(in_free_row & ~free_col), band.restrict(free))

    def blocks(self, data: np.ndarray) -> tuple[csr_matrix, csr_matrix]:
        """The free-free and free-fixed blocks of a matrix with this pattern
        and ``data``: entry for entry ``A[free][:, free]`` and
        ``A[free][:, fixed]``."""
        n_free = self.free.size
        (ff, ff_cols, ff_ptr), (fc, fc_cols, fc_ptr) = self.inner, self.outer
        return (csr_matrix((data[ff], ff_cols, ff_ptr), shape=(n_free, n_free)),
                csr_matrix((data[fc], fc_cols, fc_ptr), shape=(n_free, self.n_fixed)))


class AssemblyPlan:
    """Sparsity pattern of a fixed triplet layout, built once per connectivity.

    Sorts the (row, col) triplets once and keeps the CSR ``indptr`` and
    ``indices`` of the unique entries, the CSR ``slot`` of every triplet and,
    for every entry, the slot of its transpose (-1 where the pattern lacks
    it). ``assemble`` then only scatters values. Built on first use: each
    row's ``diagonal`` slot and the ``band`` the direct solve runs in.
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
        self._splits: dict[bytes, Split] = {}

    @cached_property
    def diagonal(self) -> np.ndarray:
        """CSR slot of each row's diagonal entry, shape (dimension,)."""
        rows = np.repeat(np.arange(self.dimension), np.diff(self.indptr))
        slots = np.flatnonzero(self.indices == rows)
        if slots.size != self.dimension:
            raise ValueError("pattern lacks a diagonal entry in some row")
        return slots

    @cached_property
    def band(self) -> Band:
        """The pattern in reverse Cuthill-McKee order and its band storage;
        the rule's decision for one right-hand side is logged once at DEBUG."""
        n = self.dimension
        pattern = csr_matrix((np.ones(self.indices.size), self.indices, self.indptr),
                             shape=(n, n))
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        rows = rank[np.repeat(np.arange(n), np.diff(self.indptr))]
        cols = rank[self.indices]
        entries = np.flatnonzero(rows >= cols)
        offset = rows[entries] - cols[entries]
        bandwidth = int(offset.max(initial=0))
        band = Band(order, bandwidth, entries, offset + (bandwidth + 1) * cols[entries])
        path = "direct" if band.direct else "pcg"
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
        """Plan of the k x k local matrices of an (m, k) element array, each
        flattened row-major."""
        k = elements.shape[1]
        return cls(dimension, np.repeat(elements, k, axis=1).reshape(-1),
                   np.tile(elements, (1, k)).reshape(-1))


def assemble(plan: AssemblyPlan, values) -> LinearSystem:
    """The symmetric LinearSystem of ``plan`` with the values of its triplets.

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
    return LinearSystem(plan, data)


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
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag
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


def solve(system: LinearSystem, rhs, tol: float = DEFAULT_TOL,
          start: np.ndarray | None = None) -> np.ndarray:
    """Solve the (constrained) system for one or several right-hand sides.

    Constrained entries of the result equal their fixed values exactly; the
    free part satisfies ``||A x - b|| <= tol * ||b||`` on the reduced system.
    Jacobi PCG reaches it from ``start``, shaped like the result, as the
    initial guess of the free part (zero by default). When the plan's band,
    restricted to the free rows, passes the size rule
    (n_free (bw_free + 1)^2 <= nrhs BAND_WORK_LIMIT, see the module docstring)
    its banded Cholesky solution replaces that guess, and PCG's first
    residual checks it. A constrained solve builds only the CSR blocks of the
    free rows, never ``system.matrix``.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs.copy()
    if b.shape[0] != system.dimension:
        raise ValueError("rhs size does not match system dimension")
    n = system.dimension
    nrhs = b.shape[1]
    x = np.zeros((n, nrhs))

    fixed_idx = system.fixed_indices
    if fixed_idx.size == 0:
        # nothing to eliminate: the reduced system is the system itself
        free_idx, band, b_f = slice(None), system.plan.band, b
        A_ff = system.matrix
    else:
        # (k,) values repeat across the right-hand sides, (k, nrhs) map one to one
        fixed_vals = np.broadcast_to(system.fixed_values.T, (nrhs, len(fixed_idx))).T
        split = system.plan.split(fixed_idx)
        free_idx, band = split.free, split.band
        A_ff, A_fc = split.blocks(system.data)
        b_f = b[free_idx] - A_fc @ fixed_vals
        x[fixed_idx] = fixed_vals
    breakdown = None
    if band.order.size and band.work <= nrhs * BAND_WORK_LIMIT:
        # the factored solution starts PCG, whose first residual checks it
        full = np.zeros((n, nrhs))
        full[free_idx] = b_f
        try:
            start = _banded_solve(system.data, band, full)
        except SolverError as exc:
            breakdown = exc  # PCG runs from the caller's start and decides

    maxiter = max(10 * A_ff.shape[0], 50)
    guess = None if start is None else np.asarray(start, dtype=np.float64).reshape(n, nrhs)
    try:
        for j in range(nrhs):
            x[free_idx, j], _, _ = _pcg(A_ff, b_f[:, j], tol, maxiter,
                                        None if guess is None else guess[free_idx, j])
    except SolverError as exc:
        if breakdown is None:
            raise
        # the factorization names where the system stops being definite
        raise SolverError(breakdown.message, exc.iterations, exc.residual) from exc
    return x[:, 0] if single else x
