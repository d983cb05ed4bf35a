from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from volball import linsolve
from volball.drivers import HISTORY
from volball.sphere_map import surface_density_equalize


def _assemble(n, rows, cols, values):
    return linsolve.assemble(linsolve.AssemblyPlan(n, rows, cols), values)


def test_duplicate_triplets_summed():
    system = linsolve.assemble(linsolve.AssemblyPlan(1, [0, 0], [0, 0]), [1.0, 1.0])
    assert system.matrix[0, 0] == 2.0


def test_empty_triplets():
    system = linsolve.assemble(linsolve.AssemblyPlan(3, [], []), [])
    assert system.matrix.nnz == 0


def test_identity_solve():
    system = _assemble(2, [0, 1], [0, 1], [1.0, 1.0])
    x = linsolve.solve(system, np.array([3.0, 5.0]))
    np.testing.assert_allclose(x, [3.0, 5.0])


def test_diagonal_solve():
    system = _assemble(2, [0, 1], [0, 1], [2.0, 4.0])
    x = linsolve.solve(system, np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0])


def test_out_of_range_triplet():
    with pytest.raises(IndexError):
        linsolve.AssemblyPlan(2, [0, 2], [0, 0])


def test_path_graph_ramp():
    # 1D path Laplacian with endpoints pinned to 0 and 1 gives a linear ramp
    n = 11
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        rows += [i, i + 1, i]
        cols += [i, i + 1, i + 1]
        vals += [1.0, 1.0, -1.0]
    system = _assemble(n, rows, cols, vals)
    system.constrain([0, n - 1], [0.0, 1.0])
    x = linsolve.solve(system, np.zeros(n))
    np.testing.assert_allclose(x, np.linspace(0, 1, n), atol=1e-10)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _upper(A):
    """The triplets of a dense symmetric matrix: its entries i <= j."""
    rows, cols = np.triu_indices(len(A))
    return rows, cols, A[rows, cols]


def _packed(local):
    """The triplets of (m, k, k) symmetric element matrices, as
    ``AssemblyPlan.for_elements`` lays them out: each one's entries i <= j,
    row-major."""
    rows, cols = np.triu_indices(local.shape[1])
    return local[:, rows, cols]


def test_random_spd_vs_dense_oracle():
    rng = np.random.default_rng(42)
    A = _random_spd(rng, 10)
    b = rng.normal(size=10)
    expected = np.linalg.solve(A, b)  # dense elimination oracle
    system = _assemble(10, *_upper(A))
    x = linsolve.solve(system, b)
    np.testing.assert_allclose(x, expected, atol=1e-9 * np.abs(expected).max())


def test_recover_known_solution_many():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        A = _random_spd(rng, n)
        x_true = rng.normal(size=n)
        system = _assemble(n, *_upper(A))
        x = linsolve.solve(system, A @ x_true)
        assert np.linalg.norm(x - x_true) <= 1e-9 * max(np.linalg.norm(x_true), 1)


def test_energy_norm_monotone_descent():
    # each tolerance stops the same deterministic iteration at an earlier or
    # equal iterate than the next, tighter one
    rng = np.random.default_rng(11)
    A = _random_spd(rng, 12)
    b = rng.normal(size=12)
    x_true = np.linalg.solve(A, b)
    A_sparse = csr_matrix(A)
    runs = [linsolve._pcg(A_sparse, b, rtol, 10000)
            for rtol in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    iters = [k for _, k, _ in runs]
    assert all(k2 >= k1 for k1, k2 in zip(iters, iters[1:]))
    assert len(set(iters)) > 3
    energies = [float((x - x_true) @ A @ (x - x_true)) for x, _, _ in runs]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_warm_start_stops_against_the_rhs():
    # a start is only a guess: the stopping test stays ||b - A x|| <= rtol ||b||
    rng = np.random.default_rng(12)
    A = _random_spd(rng, 12)
    b = rng.normal(size=12)
    A_sparse = csr_matrix(A)
    rtol = 1e-8
    x_cold, k_cold, _ = linsolve._pcg(A_sparse, b, rtol, 10000)
    _, k_exact, _ = linsolve._pcg(A_sparse, b, rtol, 10000, x0=np.linalg.solve(A, b))
    assert k_exact == 0
    far = 1e3 * rng.normal(size=12)
    x_far, k_far, res = linsolve._pcg(A_sparse, b, rtol, 10000, x0=far)
    assert k_far >= 1 and res <= rtol * np.linalg.norm(b)
    assert np.linalg.norm(b - A @ x_far) <= 1e-6 * np.linalg.norm(b)
    near = x_cold + 1e-6 * rng.normal(size=12)
    assert linsolve._pcg(A_sparse, b, rtol, 10000, x0=near)[1] < k_cold
    # through solve: the constrained entries keep their values exactly
    system = _assemble(12, *_upper(A))
    system.constrain([2, 7], [0.5, -1.25])
    x = linsolve.solve(system, b, tol=rtol, start=far)
    assert x[2] == 0.5 and x[7] == -1.25
    np.testing.assert_allclose(x, linsolve.solve(system, b, tol=1e-12), atol=1e-6)


def test_constrained_values_exact():
    rng = np.random.default_rng(5)
    A = _random_spd(rng, 8)
    system = _assemble(8, *_upper(A))
    system.constrain([2, 5], [1.5, -0.5])
    x = linsolve.solve(system, np.zeros(8))
    assert x[2] == 1.5 and x[5] == -0.5


def test_multi_rhs():
    rng = np.random.default_rng(9)
    A = _random_spd(rng, 6)
    B = rng.normal(size=(6, 3))
    system = _assemble(6, *_upper(A))
    X = linsolve.solve(system, B)
    np.testing.assert_allclose(A @ X, B, atol=1e-8)


def test_off_diagonal_pair_fills_both_mirror_entries():
    # a triplet (r, c) stands for (r, c) and (c, r): either orientation fills
    # both, and the two orientations of one pair sum into one value
    for rows, cols in (([0], [1]), ([1], [0])):
        system = _assemble(2, rows, cols, [3.0])
        assert system.matrix.toarray().tolist() == [[0.0, 3.0], [3.0, 0.0]]
    system = _assemble(2, [0, 1], [1, 0], [1.0, 2.0])
    assert system.matrix.toarray().tolist() == [[0.0, 3.0], [3.0, 0.0]]
    assert system.matrix.nnz == 2


def test_singular_reports_iterations():
    system = _assemble(2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
    with pytest.raises(linsolve.SolverError) as exc:
        linsolve.solve(system, np.array([1.0, -1.0]))
    assert exc.value.iterations >= 1
    assert exc.value.residual > 0


def test_assembly_deterministic():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 30, size=500)
    cols = rng.integers(0, 30, size=500)
    vals = rng.normal(size=500)
    a = _assemble(30, rows, cols, vals)
    b = _assemble(30, rows, cols, vals)
    assert (a.matrix != b.matrix).nnz == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_property_spd_solve(n, seed):
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, n)
    x_true = rng.normal(size=n)
    system = _assemble(n, *_upper(A))
    x = linsolve.solve(system, A @ x_true)
    assert np.linalg.norm(A @ x - A @ x_true) <= 1e-8 * max(np.linalg.norm(A @ x_true), 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_plan_matches_dense_oracle(n, k, seed):
    # few rows and many triplets, so entries repeat in either orientation;
    # each off-diagonal triplet adds its value at its entry and its mirror
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, n, size=k)
    plan = linsolve.AssemblyPlan(n, rows, cols)
    off = rows != cols
    for _ in range(2):  # one plan, two value vectors
        vals = rng.normal(size=k)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        np.add.at(dense, (cols[off], rows[off]), vals[off])
        got = linsolve.assemble(plan, vals).matrix.toarray()
        assert np.abs(got - dense).max(initial=0.0) <= 1e-12 * max(np.abs(dense).max(initial=0.0), 1.0)


def _split_solve(system, rhs, tol=linsolve.DEFAULT_TOL):
    """Reference: the unconstrained solve with the Dirichlet-split bookkeeping
    it had before it skipped it: scipy-sliced blocks of the CSR matrix with
    no fixed index, zero-filled (n, nrhs) copies of b and x, factored
    columns (where the band rule factors) copied one at a time, and PCG
    from zero, or from a factored column that misses the bound."""
    b = rhs[:, None] if rhs.ndim == 1 else rhs
    n, nrhs = b.shape
    free_idx, fixed_idx = np.arange(n), np.empty(0, dtype=np.int64)
    A = system.matrix
    A_ff = A[free_idx][:, free_idx].tocsr()
    A_fc = A[free_idx][:, fixed_idx].tocsr()
    b_f = b[free_idx] - A_fc @ np.zeros((0, nrhs))
    x, starts, iterate = np.zeros((n, nrhs)), [None] * nrhs, range(nrhs)
    band = system.plan.band
    if band.work <= nrhs * linsolve.BAND_WORK_LIMIT:
        full = np.zeros((n, nrhs))
        full[free_idx] = b_f
        factored = linsolve._banded_solve(system.data, band, full)[free_idx]
        iterate = []
        for j in range(nrhs):
            column = np.ascontiguousarray(b_f[:, j])
            if sqrt(column @ column) == 0.0:
                continue
            x[:, j] = starts[j] = factored[:, j]
            r = column - A_ff @ factored[:, j]
            if not sqrt(r @ r) <= tol * sqrt(column @ column):
                iterate.append(j)
    for j in iterate:
        x[:, j] = linsolve._pcg(A_ff, b_f[:, j], tol, max(10 * n, 50), starts[j])[0]
    return x[:, 0] if rhs.ndim == 1 else x


@pytest.mark.parametrize("mesh_name, columns, tol", [
    pytest.param("ball_mesh_6k", 0, linsolve.DEFAULT_TOL, id="ball_mesh_6k"),
    pytest.param("cube9", 0, linsolve.DEFAULT_TOL, id="cube9"),
    pytest.param("ball_mesh", 0, linsolve.DEFAULT_TOL, id="ball_mesh-factored"),
    pytest.param("ball_mesh", 3, linsolve.DEFAULT_TOL, id="ball_mesh-factored-3"),
    pytest.param("ball_mesh", 3, 1e-15, id="ball_mesh-factored-3-cg")])
def test_unconstrained_solve_matches_split_path_bitwise(mesh_name, columns, tol, request,
                                                        caplog):
    # backward-Euler diffusion is the solver's unconstrained caller. The bands
    # of the two larger solids are too wide for the direct path, so they run
    # PCG; the 187-vertex ball's is factored, and at tol 1e-15 rounding
    # misses the bound, so CG goes on from the factored columns. columns 0
    # is one 1-D right-hand side; with 3, the middle one is zero
    from volball.density import build_operators, diffusion_step
    mesh = request.getfixturevalue(mesh_name)
    ops = build_operators(mesh, (mesh.volumes, mesh.hat_gradients))
    direct = mesh_name == "ball_mesh"
    assert ops.laplacian.plan.band.factors(1) == direct
    n, dt = len(mesh.vertices), 0.1
    rho = 1.0 + mesh.vertices[:, 0] ** 2
    data = dt * ops.laplacian.data
    data[ops.laplacian.plan.diagonal] += ops.lumped_volumes
    system = linsolve.LinearSystem(ops.laplacian.plan, data)
    caplog.set_level("DEBUG", logger="volball.linsolve")
    if columns == 0:
        got, rhs = diffusion_step(ops, rho, dt), ops.lumped_volumes * rho
    else:
        rhs = ops.lumped_volumes[:, None] * np.column_stack(
            [rho, np.zeros(n), 2.0 - mesh.vertices[:, 1]])
        got = linsolve.solve(system, rhs, tol)
    assert got.tobytes() == _split_solve(system, rhs, tol).tobytes()
    iterated = any(r.name == "volball.linsolve" and r.message.startswith("pcg solve")
                   for r in caplog.records)
    assert iterated == (not direct or tol < linsolve.DEFAULT_TOL)


def _textbook_pcg(A, b, rtol, maxiter):
    """Reference: Jacobi-preconditioned CG written plainly, with
    np.linalg.norm and a fresh search direction each iteration."""
    diag = A.diagonal().copy()
    diag[diag == 0.0] = 1.0
    inv_diag = 1.0 / diag
    x = np.zeros(len(b))
    r = b.copy()
    bnorm = float(np.linalg.norm(b))
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= rtol * bnorm:
            return x, k, res
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, res


@pytest.mark.parametrize("mesh_name", ["ball_mesh", "cube8"])
def test_pcg_matches_textbook_loop_bitwise(mesh_name, request):
    from volball.density import build_operators
    mesh = request.getfixturevalue(mesh_name)
    ops = build_operators(mesh, (mesh.volumes, mesh.hat_gradients))
    n = len(mesh.vertices)
    mass = csr_matrix((ops.lumped_volumes, (np.arange(n), np.arange(n))), shape=(n, n))
    rng = np.random.default_rng(8)
    b = ops.lumped_volumes * (1.0 + rng.uniform(size=n))
    # each tolerance stops at a different iterate, so together they compare
    # many iterates, not only the last
    L = ops.laplacian.matrix
    for A in (mass + 0.1 * L, L + 1e-3 * mass):
        stops = set()
        for rtol in 10.0 ** -np.arange(1, 13):
            x, k, res = linsolve._pcg(A, b, rtol, 10 * n)
            x_ref, k_ref, res_ref = _textbook_pcg(A, b, rtol, 10 * n)
            assert (k, res) == (k_ref, res_ref)
            np.testing.assert_array_equal(x, x_ref)
            stops.add(k)
        assert len(stops) > 6


def test_pcg_stops_at_once_on_nan_rhs(ball_mesh_6k):
    # the 1 213-vertex ball's diffusion runs PCG (its band is too wide)
    from volball.density import build_operators, diffusion_step
    ops = build_operators(ball_mesh_6k, (ball_mesh_6k.volumes, ball_mesh_6k.hat_gradients))
    rho = np.ones(len(ball_mesh_6k.vertices))
    rho[3] = np.nan
    with pytest.raises(linsolve.SolverError, match="not positive definite") as exc:
        diffusion_step(ops, rho, 0.1)
    assert exc.value.iterations == 1


# -- the direct path: banded Cholesky on a plan whose RCM band is narrow ----


def _element_diffusion(rng, n, k, extra):
    """Operators of M + dt L on random k-vertex elements over n vertices,
    renumbered by a random permutation: a chain of elements covers every
    vertex, ``extra`` random ones join far vertices, and each element adds
    the graph Laplacian of positive random edge weights."""
    from volball.density import DiffusionOperators
    chain = (np.arange(n)[:, None] + np.arange(k)) % n
    far = np.array([rng.choice(n, size=k, replace=False) for _ in range(extra)],
                   dtype=np.int64).reshape(-1, k)
    elements = rng.permutation(n)[np.vstack([chain, far])]
    plan = linsolve.AssemblyPlan.for_elements(elements, n)
    w = rng.uniform(0.1, 1.0, size=(len(elements), k, k))
    w = np.triu(w, 1) + np.swapaxes(np.triu(w, 1), 1, 2)
    local = -w
    local[:, np.arange(k), np.arange(k)] = w.sum(axis=2)
    laplacian = linsolve.assemble(plan, _packed(local).reshape(-1))
    # diffusion_step reads no corner weights
    return DiffusionOperators(rng.uniform(0.5, 1.5, size=n), laplacian, np.empty(0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=4, max_value=40), st.sampled_from([3, 4]),
       st.integers(min_value=0, max_value=30), st.floats(min_value=0.01, max_value=10.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_direct_diffusion_matches_dense_solve(n, k, extra, dt, seed):
    from volball.density import diffusion_step
    rng = np.random.default_rng(seed)
    ops = _element_diffusion(rng, n, k, extra)
    assert ops.laplacian.plan.band.factors(1)
    rho = rng.uniform(0.5, 2.0, size=n)
    dense = np.diag(ops.lumped_volumes) + dt * ops.laplacian.matrix.toarray()
    expected = np.linalg.solve(dense, ops.lumped_volumes * rho)
    got = diffusion_step(ops, rho, dt)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _spy_pcg_and_csr(monkeypatch):
    """Record every ``_pcg`` call and every CSR matrix ``linsolve`` builds."""
    pcg, calls = linsolve._pcg, {"pcg": 0, "csr": 0}
    csr = linsolve.csr_matrix

    def counted_pcg(*args):
        calls["pcg"] += 1
        return pcg(*args)

    def counted_csr(*args, **kwargs):
        calls["csr"] += 1
        return csr(*args, **kwargs)

    monkeypatch.setattr(linsolve, "_pcg", counted_pcg)
    monkeypatch.setattr(linsolve, "csr_matrix", counted_csr)
    return calls


def test_direct_solve_needs_no_iteration_and_repeats_bitwise(monkeypatch):
    ops = _element_diffusion(np.random.default_rng(4), 30, 3, 10)
    plan = ops.laplacian.plan
    plan.band  # its one RCM ordering reads a CSR pattern
    data = 0.1 * ops.laplacian.data
    data[plan.diagonal] += ops.lumped_volumes
    b = ops.lumped_volumes * (1.0 + np.arange(30.0) / 30)
    calls = _spy_pcg_and_csr(monkeypatch)
    systems = [linsolve.LinearSystem(plan, data) for _ in range(2)]
    first, second = (linsolve.solve(system, b) for system in systems)
    np.testing.assert_array_equal(first, second)
    # the factored solution meets the bound, so nothing iterates and no CSR
    # view or block is built
    assert calls == {"pcg": 0, "csr": 0}
    assert all("matrix" not in system.__dict__ for system in systems)
    np.testing.assert_array_equal(
        first, linsolve._banded_solve(data, plan.band, b[:, None])[:, 0])


def test_direct_branch_is_one_banded_solve_and_its_check():
    # an unconstrained one-column system that passes the band rule: one
    # factorization, no split, no block product and no PCG, and the result is
    # the factored column bit for bit
    ops = _element_diffusion(np.random.default_rng(7), 30, 3, 10)
    plan = ops.laplacian.plan
    assert plan.band.factors(1)
    data = 0.1 * ops.laplacian.data
    data[plan.diagonal] += ops.lumped_volumes
    b = ops.lumped_volumes * (1.0 + np.arange(30.0) / 30)
    expected = linsolve._banded_solve(data, plan.band, b[:, None])[:, 0]
    spies = {name: mock.patch.object(owner, name, autospec=True,
                                     side_effect=getattr(owner, name))
             for owner, name in [(linsolve, "_banded_solve"), (linsolve, "_pcg"),
                                 (linsolve.AssemblyPlan, "split"),
                                 (linsolve.Block, "matvec")]}
    calls = {name: spy.start() for name, spy in spies.items()}
    try:
        got = linsolve.solve(linsolve.LinearSystem(plan, data), b)
    finally:
        mock.patch.stopall()
    assert {name: call.call_count for name, call in calls.items()} == \
        {"_banded_solve": 1, "_pcg": 0, "split": 0, "matvec": 0}
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=6, max_value=40), st.sampled_from([3, 4]),
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_direct_solve_is_the_banded_solution_bitwise(n, k, extra, n_fixed, ncols, seed):
    # unconstrained (n_fixed = 0) and constrained plans, 1-3 columns: the
    # result is exactly what banded Cholesky returns for the reduced system,
    # and each block's matvec is exactly scipy's CSR product, zeros and
    # negative zeros included
    rng = np.random.default_rng(seed)
    if n_fixed:
        system, rhs, fixed, values, _ = _constrained(rng, n, k, extra, n_fixed, ncols)
    else:
        ops = _element_diffusion(rng, n, k, extra)
        data = 0.3 * ops.laplacian.data
        data[ops.laplacian.plan.diagonal] += ops.lumped_volumes
        system, fixed = linsolve.LinearSystem(ops.laplacian.plan, data), np.empty(0, int)
        rhs, values = rng.normal(size=(n, ncols)), np.zeros((0, ncols))
    rhs[rng.integers(0, n, size=3), rng.integers(0, ncols, size=3)] = -0.0
    plan, data = system.plan, system.data
    split = plan.split(fixed)
    free = split.free
    for block in (plan.pattern, split.inner, split.outer):
        x = rng.normal(size=(block.shape[1], ncols))
        x[rng.random(x.shape) < 0.2] = -0.0
        # scipy's csr_matvec for one column, csr_matvecs for more
        expected = block.matrix(data) @ (x[:, 0] if ncols == 1 else x)
        assert block.matvec(data, x).tobytes() == expected.tobytes()
    b_f = rhs[free] - split.outer.matrix(data) @ values
    full = np.zeros((n, ncols))
    full[free] = b_f
    expected = linsolve._banded_solve(data, split.band, full)
    expected[fixed] = values
    with mock.patch.object(linsolve, "_pcg", wraps=linsolve._pcg) as pcg:
        got = linsolve.solve(system, rhs[:, 0] if ncols == 1 else rhs)
    assert pcg.call_count == 0
    assert got.tobytes() == expected.tobytes()


def test_surface_flow_diffusion_builds_no_sparse_matrix(monkeypatch):
    # the remesh solid's surface flow: every diffusion solve is factored and
    # checked on the plan's data, with no CSR view and no PCG call
    import scipy.sparse._compressed as compressed

    from volball import density
    from volball.sphere_map import face_normals_areas, spherical_embedding
    from volball.synthetic import graded_ellipsoid_mesh
    mesh = graded_ellipsoid_mesh(1)
    vid, faces = mesh.boundary_surface()
    _, areas = face_normals_areas(mesh.vertices[vid], faces)
    sphere = spherical_embedding(mesh.vertices[vid], faces)
    init, step, built, per_solve = compressed._cs_matrix.__init__, density.diffusion_step, [], []

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_step(ops, rho, dt):
        ops.laplacian.plan.band  # the plan's one RCM ordering reads a CSR pattern
        before = len(built)
        out = step(ops, rho, dt)
        per_solve.append(len(built) - before)
        return out

    calls = _spy_pcg_and_csr(monkeypatch)
    monkeypatch.setattr(compressed._cs_matrix, "__init__", counted_init)
    monkeypatch.setattr(density, "diffusion_step", counted_step)
    surface_density_equalize(sphere, faces, areas, max_iter=20)
    assert per_solve == [0] * 20
    assert calls["pcg"] == 0


def test_direct_solve_iterates_on_where_rounding_misses_the_bound(monkeypatch):
    # path-graph weights over six decades: the factored solution's residual
    # sits near eps ||A|| ||x||, above 1e-10 ||b||, so PCG carries on from it
    n = 30
    rng = np.random.default_rng(0)
    w = np.exp(rng.uniform(0.0, np.log(1e6), n - 1))
    i, j = np.arange(n - 1), np.arange(1, n)
    plan = linsolve.AssemblyPlan(n, np.concatenate([i, j, i, np.arange(n)]),
                                 np.concatenate([i, j, j, np.arange(n)]))
    system = linsolve.assemble(plan, np.concatenate([w, w, -w, np.full(n, 0.05)]))
    A = system.matrix
    b = np.full(n, 0.05)
    factored = linsolve._banded_solve(system.data, plan.band, b[:, None])[:, 0]
    assert np.linalg.norm(b - A @ factored) > linsolve.DEFAULT_TOL * np.linalg.norm(b)
    pcg, runs = linsolve._pcg, []

    def counted(*args):
        out = pcg(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(linsolve, "_pcg", counted)
    x = linsolve.solve(system, b)
    [(_, iterations, res)] = runs
    assert iterations >= 1 and res <= linsolve.DEFAULT_TOL * np.linalg.norm(b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expected).max() <= 1e-6 * np.abs(expected).max()


def test_direct_solve_names_the_vertex_of_an_indefinite_system():
    from volball.density import diffusion_step
    ops = _element_diffusion(np.random.default_rng(5), 25, 4, 5)
    ops.lumped_volumes[17] = -100.0
    with pytest.raises(linsolve.SolverError, match="not positive definite at vertex 17 "):
        diffusion_step(ops, np.ones(25), 0.1)


def test_direct_solve_stops_at_once_on_nan_rhs():
    from volball.density import diffusion_step
    ops = _element_diffusion(np.random.default_rng(6), 25, 3, 5)
    rho = np.ones(25)
    rho[3] = np.nan
    with pytest.raises(linsolve.SolverError) as exc:
        diffusion_step(ops, rho, 0.1)
    assert exc.value.iterations == 1


def _volume_plan(mesh):
    return mesh.connectivity.plan


def _boundary_plan(mesh):
    from volball.tetmesh import Connectivity
    vid, faces = mesh.boundary_surface()
    return Connectivity(faces, len(vid)).plan


def test_rule_sides_of_the_benchmarked_systems(ball_mesh_6k):
    # the remesh solid's surface flow and volume diffusion take the direct
    # path; the 3ddem ball (1 213 vertices) and the 20k-tet stretched ball
    # stay on PCG, where banded Cholesky measured slower
    from volball.synthetic import graded_ellipsoid_mesh, stretched_ball_mesh
    graded = graded_ellipsoid_mesh(1)
    assert _boundary_plan(graded).band.factors(1)
    assert _volume_plan(graded).band.factors(1)
    assert not _volume_plan(ball_mesh_6k).band.factors(1)
    assert not _volume_plan(stretched_ball_mesh(3)).band.factors(1)


def test_plan_decision_logged_once(caplog):
    import logging
    n = 12
    i = np.arange(n - 1)
    plan = linsolve.AssemblyPlan(n, np.concatenate([i, i + 1, i]),
                                 np.concatenate([i, i + 1, i + 1]))
    with caplog.at_level(logging.DEBUG, logger="volball"):
        band = plan.band
        assert plan.band is band
    [record] = [r for r in caplog.records if r.name.startswith("volball")]
    assert record.levelno == logging.DEBUG
    assert (record.n, record.bandwidth, record.work, record.path) == (n, 1, n * 4, "direct")
    assert band.bandwidth == 1 and band.factors(1)


# -- the direct path on constrained systems: the plan's band restricted to the
# free rows, in the plan's own RCM order


def _constrained(rng, n, k, extra, n_fixed, ncols):
    """A random element diffusion system M + dt L with ``n_fixed`` random
    Dirichlet rows, fixed values one per column, and its dense reduced solve."""
    ops = _element_diffusion(rng, n, k, extra)
    plan = ops.laplacian.plan
    data = 0.3 * ops.laplacian.data
    data[plan.diagonal] += ops.lumped_volumes
    fixed = np.sort(rng.choice(n, size=n_fixed, replace=False))
    values = rng.normal(size=(n_fixed, ncols))
    rhs = rng.normal(size=(n, ncols))
    system = linsolve.LinearSystem(plan, data)
    system.constrain(fixed, values)
    free = np.setdiff1d(np.arange(n), fixed)
    dense = system.matrix.toarray()
    expected = np.zeros((n, ncols))
    expected[fixed] = values
    expected[free] = np.linalg.solve(dense[np.ix_(free, free)],
                                     rhs[free] - dense[np.ix_(free, fixed)] @ values)
    return system, rhs, fixed, values, expected


def _recording(monkeypatch):
    """Record the (rows, bandwidth) of every banded factorization."""
    banded, calls = linsolve._banded_solve, []

    def recorded(data, band, b):
        calls.append((len(band.order), band.bandwidth))
        return banded(data, band, b)

    monkeypatch.setattr(linsolve, "_banded_solve", recorded)
    return calls


@pytest.mark.parametrize("ncols", [1, 2, 3])
def test_constrained_direct_solve_matches_dense_solve(ncols, monkeypatch):
    calls = _recording(monkeypatch)
    rng = np.random.default_rng(20 + ncols)
    for _ in range(10):
        n = int(rng.integers(8, 40))
        system, rhs, fixed, values, expected = _constrained(
            rng, n, int(rng.choice([3, 4])), int(rng.integers(0, 10)),
            int(rng.integers(1, n // 2)), ncols)
        got = linsolve.solve(system, rhs[:, 0] if ncols == 1 else rhs)
        got = got.reshape(n, ncols)
        assert np.array_equal(got[fixed], values)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()
        # one factorization for all columns, of the free rows only
        [(rows, _)] = calls
        calls.clear()
        assert rows == n - len(fixed)


def test_restricted_band_packs_the_free_rows_of_the_plan_order():
    rng = np.random.default_rng(31)
    system, *_ = _constrained(rng, 30, 4, 8, 9, 3)
    band = system.plan.band
    free = np.ones(30, dtype=bool)
    free[system.fixed_indices] = False
    reduced = band.restrict(free)
    # the plan's order with the fixed rows dropped, and no wider than the plan
    assert np.array_equal(reduced.order, band.order[free[band.order]])
    assert reduced.bandwidth <= band.bandwidth
    # the packed band holds exactly the lower triangle of the reduced matrix
    A = system.matrix.toarray()[np.ix_(reduced.order, reduced.order)]
    packed = np.zeros((reduced.bandwidth + 1) * len(reduced.order))
    packed[reduced.cells] = system.data[reduced.entries]
    packed = packed.reshape((reduced.bandwidth + 1, len(reduced.order)), order="F")
    rebuilt = np.zeros_like(A)
    for d in range(reduced.bandwidth + 1):
        idx = np.arange(len(reduced.order) - d)
        rebuilt[idx + d, idx] = packed[d, idx]
    np.testing.assert_array_equal(rebuilt, np.tril(A))


def test_every_row_fixed_returns_the_values(monkeypatch):
    # every vertex of lcube_mesh(2) lies on the boundary, so a harmonic fill
    # has no free row at all
    from volball.laplace import harmonic_fill
    from volball.synthetic import lcube_mesh
    calls = _recording(monkeypatch)
    mesh = lcube_mesh(2)
    assert len(mesh.boundary_vertices) == len(mesh.vertices)
    points = mesh.vertices[mesh.boundary_vertices] * 2.0
    out = harmonic_fill(mesh, points, mesh.boundary_vertices)
    assert np.array_equal(out[mesh.boundary_vertices], points)
    assert calls == []


def test_constrained_direct_solve_names_the_vertex_of_an_indefinite_system():
    rng = np.random.default_rng(33)
    system, rhs, fixed, _, _ = _constrained(rng, 30, 4, 6, 8, 3)
    vertex = int(np.setdiff1d(np.arange(30), fixed)[5])
    system.data[system.plan.diagonal[vertex]] = -100.0
    with pytest.raises(linsolve.SolverError,
                       match=f"not positive definite at vertex {vertex} "):
        linsolve.solve(system, rhs)


def test_constrained_direct_solve_stops_at_once_on_nan_rhs(monkeypatch):
    calls = _recording(monkeypatch)
    rng = np.random.default_rng(34)
    system, rhs, fixed, _, _ = _constrained(rng, 30, 3, 6, 8, 3)
    rhs[np.setdiff1d(np.arange(30), fixed)[2], 1] = np.nan
    with pytest.raises(linsolve.SolverError) as exc:
        linsolve.solve(system, rhs)
    assert exc.value.iterations == 1
    assert len(calls) == 1


class _Decided(Exception):
    pass


def _decision(monkeypatch, system, rhs):
    """'direct' or 'pcg': the path ``solve`` takes, stopped before any work."""
    def direct(data, band, b):
        raise _Decided("direct")

    def pcg(*args):
        raise _Decided("pcg")

    monkeypatch.setattr(linsolve, "_banded_solve", direct)
    monkeypatch.setattr(linsolve, "_pcg", pcg)
    with pytest.raises(_Decided) as exc:
        linsolve.solve(system, rhs)
    return str(exc.value)


def test_rule_decides_the_benchmarked_constrained_systems(monkeypatch, ball_mesh_6k):
    # 3-column reconstructions with the boundary fixed: the 3ddem ball's 733
    # interior rows (bw 160) go direct, the stretched ball's 2 719 (bw 380)
    # stay on PCG; the ball's 1-column diffusion (1 213 rows, bw 219) too
    from volball.density import build_operators
    from volball.laplace import laplacian_matrix
    from volball.synthetic import stretched_ball_mesh

    def interior(mesh):
        system = laplacian_matrix(mesh)
        system.constrain(mesh.boundary_vertices, mesh.vertices[mesh.boundary_vertices])
        return system, np.zeros((system.dimension, 3))

    assert _decision(monkeypatch, *interior(ball_mesh_6k)) == "direct"
    assert _decision(monkeypatch, *interior(stretched_ball_mesh(3))) == "pcg"
    ops = build_operators(ball_mesh_6k, (ball_mesh_6k.volumes, ball_mesh_6k.hat_gradients))
    n = len(ball_mesh_6k.vertices)
    assert _decision(monkeypatch, ops.laplacian, np.ones(n)) == "pcg"


# -- the Dirichlet split, cached on the plan by fixed set


def _scipy_split(A, fixed):
    free = np.setdiff1d(np.arange(A.shape[0]), fixed)
    A_f = A[free]
    return free, A_f[:, free].tocsr(), A_f[:, fixed].tocsr()


def _same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.data, b.data)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr))


def test_split_cache_serves_only_an_equal_fixed_set():
    rng = np.random.default_rng(41)
    ops = _element_diffusion(rng, 40, 4, 12)
    A, plan = ops.laplacian.matrix, ops.laplacian.plan
    sets = [np.sort(rng.choice(40, size=k, replace=False)) for k in (5, 5, 9, 5, 13, 2, 7)]
    sets.append(sets[0].copy())  # an equal set in a new array
    for _ in range(3):
        for fixed in sets:
            split = plan.split(fixed)
            # served from the cache when the set repeats, never a stale one
            assert plan.split(fixed.copy()) is split
            fresh = linsolve.Split.of(A.indptr, A.indices, fixed, plan.band)
            free, A_ff, A_fc = _scipy_split(A, fixed)
            assert np.array_equal(split.free, free) and np.array_equal(fresh.free, free)
            for got in (split, fresh):
                assert _same_csr(got.inner.matrix(A.data), A_ff)
                assert _same_csr(got.outer.matrix(A.data), A_fc)
            mask = np.ones(40, dtype=bool)
            mask[fixed] = False
            band = plan.band.restrict(mask)
            for field in ("order", "entries", "cells"):
                assert np.array_equal(getattr(split.band, field), getattr(band, field))
            assert split.band.bandwidth == band.bandwidth
    assert len(plan._splits) <= linsolve.SPLIT_CACHE


def test_cached_split_solves_bitwise_as_a_fresh_one():
    # the second solve of a fixed set is served from the cache and gives
    # the first solve's bits, on the direct path and on PCG
    rng = np.random.default_rng(43)
    system, rhs, fixed, values, expected = _constrained(rng, 30, 4, 8, 9, 3)
    first = linsolve.solve(system, rhs)
    assert len(system.plan._splits) == 1
    assert np.array_equal(linsolve.solve(system, rhs), first)
    # PCG on scipy-sliced blocks reaches the same solution
    free, A_ff, A_fc = _scipy_split(system.matrix, fixed)
    b_f = rhs[free] - A_fc @ values
    got = np.zeros_like(expected)
    got[fixed] = values
    for j in range(3):
        got[free, j] = linsolve._pcg(A_ff, b_f[:, j], linsolve.DEFAULT_TOL,
                                       max(10 * len(free), 50))[0]
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()



@pytest.mark.parametrize("limit", [linsolve.BAND_WORK_LIMIT, 0.0])
def test_constrained_solve_builds_only_the_free_block_for_pcg(limit, monkeypatch, ball_mesh):
    # assembly, constraint and solve of a harmonic fill build no CSR matrix on
    # the direct path; with no band work allowed, PCG gets the free-free block
    # and nothing else: the free-fixed block only enters b_f through its matvec
    from scipy.sparse import csr_matrix

    from volball.laplace import harmonic_fill
    bidx = ball_mesh.boundary_vertices
    ball_mesh.connectivity.plan.band  # its one RCM ordering reads a CSR pattern
    monkeypatch.setattr(linsolve, "BAND_WORK_LIMIT", limit)
    factored = _recording(monkeypatch)
    shapes, init = [], csr_matrix.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append(self.shape)

    monkeypatch.setattr(csr_matrix, "__init__", counted)
    out = harmonic_fill(ball_mesh, ball_mesh.vertices[bidx], bidx)
    n_free = len(ball_mesh.vertices) - len(bidx)
    assert len(factored) == (limit > 0)
    assert shapes == ([] if limit > 0 else [(n_free, n_free)])
    np.testing.assert_allclose(out, ball_mesh.vertices, atol=1e-8)


# -- Galerkin starts from earlier solutions (the history of a run) -----------


def _recording_pcg(calls):
    """A ``_pcg`` that appends (b, x0, iterations, residual) to ``calls``."""
    pcg = linsolve._pcg

    def recorded(A, b, rtol, maxiter, x0=None):
        x, k, res = pcg(A, b, rtol, maxiter, x0)
        calls.append((b, None if x0 is None else np.array(x0), k, res))
        return x, k, res

    return recorded


GUESSES = ("near", "far", "repeat", "dependent", "exact")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=6, max_value=40), st.sampled_from([3, 4]),
       st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.lists(st.sampled_from(GUESSES), max_size=HISTORY), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_history_start_is_the_galerkin_projection(n, k, extra, n_fixed, ncols, kinds,
                                                  with_start, seed):
    rng = np.random.default_rng(seed)
    system, rhs, fixed, values, expected = _constrained(rng, n, k, extra, n_fixed, ncols)
    guesses = []
    for kind in kinds:
        if kind == "near":
            guesses.append(expected + 1e-3 * rng.normal(size=expected.shape))
        elif kind == "far":
            guesses.append(rng.normal(size=expected.shape))
        elif kind == "exact":
            guesses.append(expected.copy())
        elif kind == "repeat" and guesses:
            guesses.append(guesses[-1].copy())
        elif kind == "dependent" and len(guesses) >= 2:
            mix = 0.3 * guesses[-1] - 1.7 * guesses[-2]
            guesses.append(mix * (1.0 + 1e-14 * rng.normal(size=mix.shape)))
    start = expected + 1e-2 * rng.normal(size=expected.shape) if with_start else None
    free = np.setdiff1d(np.arange(n), fixed)
    A_ff = system.matrix.toarray()[np.ix_(free, free)]

    def energy_error(x0, j):
        d = (np.zeros(len(free)) if x0 is None else x0) - expected[free, j]
        return sqrt(d @ A_ff @ d)

    def solved(history, limit=0.0):
        calls = []
        with mock.patch.object(linsolve, "BAND_WORK_LIMIT", limit), \
                mock.patch.object(linsolve, "_pcg", _recording_pcg(calls)):
            return linsolve.solve(system, rhs, start=start, history=history), calls

    x, calls = solved(guesses)
    again, _ = solved(guesses)
    _, plain_calls = solved(())
    assert x.tobytes() == again.tobytes()
    np.testing.assert_array_equal(x[fixed], values)
    scale = sqrt(expected[free].ravel() @ expected[free].ravel())
    for j, ((b, x0, iters, res), (_, plain_x0, _, _)) in enumerate(zip(calls, plain_calls)):
        bnorm = sqrt(b @ b)
        assert res <= linsolve.DEFAULT_TOL * bnorm
        true_residual = b - A_ff @ x[free, j]
        assert sqrt(true_residual @ true_residual) <= 10 * linsolve.DEFAULT_TOL * bnorm
        assert energy_error(x0, j) <= energy_error(plain_x0, j) + 1e-10 * scale
        if "exact" in kinds:
            assert iters == 0
    # the direct path ignores the history
    direct = [linsolve.solve(system, rhs, start=start, history=h) for h in (guesses, ())]
    assert direct[0].tobytes() == direct[1].tobytes()


def test_iterative_solve_logged_once(caplog, monkeypatch):
    import logging
    rng = np.random.default_rng(3)
    system, rhs, _, _, expected = _constrained(rng, 30, 3, 10, 4, 2)
    system.plan.band  # the plan's own decision record comes first
    monkeypatch.setattr(linsolve, "BAND_WORK_LIMIT", 0.0)
    calls = []
    monkeypatch.setattr(linsolve, "_pcg", _recording_pcg(calls))
    history = [expected + 1e-3 * rng.normal(size=expected.shape), expected.copy(),
               expected.copy()]
    with caplog.at_level(logging.DEBUG, logger="volball"):
        linsolve.solve(system, rhs, start=np.zeros_like(rhs), history=history)
    [record] = [r for r in caplog.records if r.name.startswith("volball")]
    assert record.name == "volball.linsolve" and record.levelno == logging.DEBUG
    # the start is zero and the repeat adds nothing: two history directions
    assert (record.rows, record.columns, record.history) == (26, 2, [2, 2])
    assert record.iterations == [k for _, _, k, _ in calls] == [0, 0]
    caplog.clear()
    monkeypatch.setattr(linsolve, "BAND_WORK_LIMIT", 8e6)
    with caplog.at_level(logging.DEBUG, logger="volball"):
        linsolve.solve(system, rhs, history=history)
    assert not [r for r in caplog.records if r.name.startswith("volball")]


@pytest.mark.parametrize("n", [1, 100, linsolve.DOT_CHUNK, linsolve.DOT_CHUNK + 1,
                               3 * linsolve.DOT_CHUNK + 17])
def test_chunked_dot_adds_the_chunk_dots_in_order(n):
    rng = np.random.default_rng(n)
    u, v = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-8, 8, size=(2, n))
    chunk = linsolve.DOT_CHUNK
    expected = 0.0
    for start in range(0, n, chunk):
        expected += float(np.dot(u[start:start + chunk], v[start:start + chunk]))
    assert float(linsolve._chunked_dot(u, v)) == expected
    if n <= chunk:
        assert float(linsolve._chunked_dot(u, v)) == float(np.dot(u, v))
    assert linsolve._dot_for(n) is (np.dot if n <= chunk else linsolve._chunked_dot)


# -- pair plans against the k x k assembly they replaced: every element's full
# local matrix as k^2 triplets, lexsorted into CSR slots, summed by
# np.bincount in input order and checked for symmetry


def _reference_assemble(elements, n, local):
    """CSR (data, indices, indptr) of the (m, k, k) element matrices ``local``
    by the k x k path."""
    k = elements.shape[1]
    rows = np.repeat(elements, k, axis=1).reshape(-1)
    cols = np.tile(elements, (1, k)).reshape(-1)
    order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    new_entry = np.ones(r.size, dtype=bool)
    new_entry[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    slot = np.empty(r.size, dtype=np.int64)
    slot[order] = np.cumsum(new_entry) - 1
    r, c = r[new_entry], c[new_entry]
    data = np.bincount(slot, weights=np.asarray(local, dtype=np.float64).reshape(-1),
                       minlength=r.size)
    key, mirror = r * n + c, c * n + r
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    mirrored = np.where(key[at] == mirror, data[at], 0.0)
    assert np.abs(data - mirrored).max(initial=0.0) <= \
        1e-12 * max(np.abs(data).max(initial=0.0), 1.0)
    return data, c, np.searchsorted(r, np.arange(n + 1))


def _reference_blocks(volumes, gradients, coeff):
    """(m, k, k) P1 stiffness blocks as ``laplace.p1_blocks`` wrote them before
    it packed them: each entry i <= j computed and mirrored."""
    from volball.tetmesh import _dot, component_major, per_tet
    w = np.abs(volumes)
    g = np.ascontiguousarray(component_major(gradients))
    k, d = g.shape[:2]
    if np.ndim(coeff) == 0:
        w, h = coeff * w, g
    else:
        A = component_major(coeff)
        h = np.empty_like(g)
        for i in range(k):
            for c in range(d):
                h[i, c] = _dot(g[i], A[:, c])
    local = np.empty((k, k, len(w)))
    for i in range(k):
        for j in range(i, k):
            local[i, j] = local[j, i] = _dot(h[i], g[j]) * w
    return per_tet(local)


def _assert_bitwise(system, elements, n, local):
    data, indices, indptr = _reference_assemble(elements, n, local)
    assert system.data.tobytes() == data.tobytes()
    assert np.array_equal(system.plan.indices, indices)
    assert np.array_equal(system.plan.indptr, indptr)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(min_value=4, max_value=30),
       st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_plan_assembles_the_full_path_bitwise(k, n, m, seed):
    # distinct corners in random order, some elements repeated (in either
    # orientation), random symmetric locals over many decades
    rng = np.random.default_rng(seed)
    elements = np.array([rng.choice(n, size=k, replace=False) for _ in range(m)],
                        dtype=np.int64).reshape(-1, k)
    if m:
        again = rng.integers(0, m, size=m // 3)
        elements = np.vstack([elements, rng.permuted(elements[again], axis=1)])
        elements = elements[rng.permutation(len(elements))]
    local = rng.normal(size=(len(elements), k, k)) * 10.0 ** rng.integers(-6, 6, size=(1, k, k))
    local = np.triu(local) + np.swapaxes(np.triu(local, 1), 1, 2)
    plan = linsolve.AssemblyPlan.for_elements(elements, n)
    _assert_bitwise(linsolve.assemble(plan, _packed(local).reshape(-1)), elements, n, local)


def test_laplacian_assembles_the_full_path_bitwise(ball_mesh_6k):
    from volball.laplace import laplacian_matrix
    mesh = ball_mesh_6k
    local = _reference_blocks(mesh.volumes, mesh.hat_gradients, 0.5)
    _assert_bitwise(laplacian_matrix(mesh), mesh.tets, len(mesh.vertices), local)


@pytest.mark.parametrize("edited", [False, True])
def test_reconstruction_assembles_the_full_path_bitwise(edited, monkeypatch):
    # an anisotropic coefficient on every tet, or on every fifth tet with the
    # current map's stiffness on the rest
    from volball.distortion import reconstruct_map
    from volball.synthetic import stretched_ball_mesh
    from volball.tetmesh import tet_gradients
    mesh = stretched_ball_mesh(1)
    rng = np.random.default_rng(2)
    n = len(mesh.vertices)
    start = mesh.vertices @ np.diag([1.2, 0.9, 1.0])
    tets = np.arange(0, len(mesh.tets), 5) if edited else None
    M = rng.normal(size=(len(mesh.tets) if tets is None else len(tets), 3, 3))
    coeff = M @ np.swapaxes(M, 1, 2) + np.eye(3)
    if tets is None:
        local = _reference_blocks(mesh.volumes, mesh.hat_gradients, coeff)
    else:
        local = _reference_blocks(*tet_gradients(start, mesh.tets), 1.0).copy()
        local[tets] = _reference_blocks(mesh.volumes[tets], mesh.hat_gradients[tets], coeff)
    assembled, assemble = [], linsolve.assemble

    def kept(plan, values):
        assembled.append(assemble(plan, values))
        return assembled[-1]

    monkeypatch.setattr(linsolve, "assemble", kept)
    bidx = mesh.boundary_vertices
    reconstruct_map(mesh, coeff, bidx, start[bidx], start=start, tets=tets)
    [system] = assembled
    _assert_bitwise(system, mesh.tets, n, local)


def test_surface_laplacian_assembles_the_full_path_bitwise(ball_mesh_6k):
    from volball.sphere_map import NEXT_PREV, surface_laplacian, triangle_geometry
    from volball.tetmesh import _dot
    vid, faces = ball_mesh_6k.boundary_surface()
    geometry = triangle_geometry(ball_mesh_6k.vertices[vid], faces)
    # the k x k path's row-major 3 x 3 entries from the same six rows
    e = geometry.edges.take(NEXT_PREV, axis=1)
    w = -0.5 * _dot(e[:, :3], e[:, 3:]) / np.maximum(geometry.area2, 1e-300)
    stack = np.vstack([-w, w[[1, 2, 0]] + w[[2, 0, 1]]])
    local = stack.T.take([3, 2, 1, 2, 4, 0, 1, 0, 5], axis=1).reshape(-1, 3, 3)
    plan = linsolve.AssemblyPlan.for_elements(faces, len(vid))
    _assert_bitwise(surface_laplacian(geometry, plan), faces, len(vid), local)
