"""A fixed computation that measures how fast the host runs right now.

The benchmark host is shared with other tenants, and its speed drifts by up to
a third within a minute: a run that happens to land in a slow minute reads
slow. Timing this computation before and after each operation and scaling the
operation's time by it cancels most of that drift. It does the kinds of work
volball does (sparse assembly and conjugate-gradient iterations, batched 3x3
symmetric eigendecompositions, a Python loop over a dict) with none of
volball's code, so a change to volball leaves it unchanged. It always does the
same work, whatever the workload and seed.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About its time on the 2-core x86_64 host of bench/baseline.json; scales
# wall_norm_s to seconds on that host.
NOMINAL_S = 1.0

GRID = 20            # a GRID^3 grid graph Laplacian
ASSEMBLIES = 40      # assemble + CG rounds
CG_ITERS = 60
EIGH_ROUNDS = 6
EIGH_BATCH = 20000
LOOP_ITERS = 1_500_000


class Reference:
    """The reference computation with its inputs, built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        idx = np.arange(GRID ** 3).reshape(GRID, GRID, GRID)
        edges = np.concatenate([
            np.stack([a.ravel(), b.ravel()], axis=1)
            for a, b in ((idx[:-1], idx[1:]), (idx[:, :-1], idx[:, 1:]),
                         (idx[:, :, :-1], idx[:, :, 1:]))])
        i, j = edges.T
        w = rng.uniform(0.5, 2.0, len(edges))
        self.rows = np.concatenate([i, j, i, j])
        self.cols = np.concatenate([j, i, i, j])
        self.vals = np.concatenate([-w, -w, w, w])
        self.shift = sp.identity(GRID ** 3, format="csr") * 1e-3
        self.rhs = rng.standard_normal(GRID ** 3)
        m = rng.standard_normal((EIGH_BATCH, 3, 3))
        self.sym = m + m.transpose(0, 2, 1)

    def run(self) -> None:
        n = GRID ** 3
        for _ in range(ASSEMBLIES):
            a = sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=(n, n))
            spla.cg(a + self.shift, self.rhs, rtol=0.0, atol=0.0, maxiter=CG_ITERS)
        for _ in range(EIGH_ROUNDS):
            lam, vec = np.linalg.eigh(self.sym)
            np.einsum("nij,nj,nkj->nik", vec, lam, vec)
        counts: dict[int, int] = {}
        for k in range(LOOP_ITERS):
            counts[k % 1000] = counts.get(k % 1000, 0) + k

    def seconds(self) -> float:
        """Wall time of one run of the reference computation."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
