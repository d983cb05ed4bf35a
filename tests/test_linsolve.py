import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from volball import linsolve


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
        rows += [i, i + 1, i, i + 1]
        cols += [i, i + 1, i + 1, i]
        vals += [1.0, 1.0, -1.0, -1.0]
    system = _assemble(n, rows, cols, vals)
    system.constrain([0, n - 1], [0.0, 1.0])
    x = linsolve.solve(system, np.zeros(n))
    np.testing.assert_allclose(x, np.linspace(0, 1, n), atol=1e-10)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_random_spd_vs_dense_oracle():
    rng = np.random.default_rng(42)
    A = _random_spd(rng, 10)
    b = rng.normal(size=10)
    expected = np.linalg.solve(A, b)  # dense elimination oracle
    rows, cols = np.nonzero(A)
    system = _assemble(10, rows, cols, A[rows, cols])
    x = linsolve.solve(system, b)
    np.testing.assert_allclose(x, expected, atol=1e-9 * np.abs(expected).max())


def test_recover_known_solution_many():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        A = _random_spd(rng, n)
        x_true = rng.normal(size=n)
        rows, cols = np.nonzero(A)
        system = _assemble(n, rows, cols, A[rows, cols])
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


def test_constrained_values_exact():
    rng = np.random.default_rng(5)
    A = _random_spd(rng, 8)
    rows, cols = np.nonzero(A)
    system = _assemble(8, rows, cols, A[rows, cols])
    system.constrain([2, 5], [1.5, -0.5])
    x = linsolve.solve(system, np.zeros(8))
    assert x[2] == 1.5 and x[5] == -0.5


def test_multi_rhs():
    rng = np.random.default_rng(9)
    A = _random_spd(rng, 6)
    B = rng.normal(size=(6, 3))
    rows, cols = np.nonzero(A)
    system = _assemble(6, rows, cols, A[rows, cols])
    X = linsolve.solve(system, B)
    np.testing.assert_allclose(A @ X, B, atol=1e-8)


def test_asymmetric_flagged_symmetric_raises():
    with pytest.raises(ValueError):
        linsolve.assemble(linsolve.AssemblyPlan(2, [0, 1], [1, 0]), [1.0, 2.0])


def test_singular_reports_iterations():
    system = _assemble(2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(linsolve.SolverError) as exc:
        linsolve.solve(system, np.array([1.0, -1.0]))
    assert exc.value.iterations >= 1
    assert exc.value.residual > 0


def test_assembly_deterministic():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 30, size=500)
    cols = rng.integers(0, 30, size=500)
    vals = rng.normal(size=500)
    # mirror every triplet so the assembled matrix is symmetric
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    vals = np.concatenate([vals, vals])
    a = _assemble(30, rows, cols, vals)
    b = _assemble(30, rows, cols, vals)
    assert (a.matrix != b.matrix).nnz == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_property_spd_solve(n, seed):
    rng = np.random.default_rng(seed)
    A = _random_spd(rng, n)
    x_true = rng.normal(size=n)
    rows, cols = np.nonzero(A)
    system = _assemble(n, rows, cols, A[rows, cols])
    x = linsolve.solve(system, A @ x_true)
    assert np.linalg.norm(A @ x - A @ x_true) <= 1e-8 * max(np.linalg.norm(A @ x_true), 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_plan_matches_dense_oracle(n, k, seed):
    # few rows and many triplets, so entries repeat; each triplet is mirrored
    # so that every value vector assembles a symmetric matrix
    rng = np.random.default_rng(seed)
    r = rng.integers(0, n, size=k)
    c = rng.integers(0, n, size=k)
    rows, cols = np.concatenate([r, c]), np.concatenate([c, r])
    plan = linsolve.AssemblyPlan(n, rows, cols)
    for _ in range(2):  # one plan, two value vectors
        v = rng.normal(size=k)
        vals = np.concatenate([v, v])
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        got = linsolve.assemble(plan, vals).matrix.toarray()
        assert np.abs(got - dense).max(initial=0.0) <= 1e-12 * max(np.abs(dense).max(initial=0.0), 1.0)


def _split_solve(system, rhs, tol=linsolve.DEFAULT_TOL):
    """Reference: the Dirichlet split applied with no fixed index, as the solver
    did before unconstrained systems skipped it."""
    n = system.dimension
    free_idx = np.arange(n)
    fixed_idx = np.empty(0, dtype=np.int64)
    A = system.matrix
    A_ff = A[free_idx][:, free_idx].tocsr()
    A_fc = A[free_idx][:, fixed_idx].tocsr()
    b_f = rhs[:, None] - A_fc @ np.zeros((0, 1))
    return linsolve._pcg(A_ff, b_f[:, 0], tol, max(10 * n, 50))[0]


@pytest.mark.parametrize("mesh_name", ["ball_mesh", "cube8"])
def test_unconstrained_solve_matches_split_path_bitwise(mesh_name, request):
    # backward-Euler diffusion is the solver's unconstrained caller
    from volball.density import build_operators, diffusion_step
    mesh = request.getfixturevalue(mesh_name)
    ops = build_operators(mesh, (mesh.volumes, mesh.hat_gradients))
    n, dt = len(mesh.vertices), 0.1
    rho = 1.0 + mesh.vertices[:, 0] ** 2
    A = csr_matrix((ops.lumped_volumes, (np.arange(n), np.arange(n))), shape=(n, n))
    system = linsolve.LinearSystem(n, A + dt * ops.laplacian)
    np.testing.assert_array_equal(diffusion_step(ops, rho, dt),
                                  _split_solve(system, ops.lumped_volumes * rho))


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
    for A in (mass + 0.1 * ops.laplacian, ops.laplacian + 1e-3 * mass):
        stops = set()
        for rtol in 10.0 ** -np.arange(1, 13):
            x, k, res = linsolve._pcg(A, b, rtol, 10 * n)
            x_ref, k_ref, res_ref = _textbook_pcg(A, b, rtol, 10 * n)
            assert (k, res) == (k_ref, res_ref)
            np.testing.assert_array_equal(x, x_ref)
            stops.add(k)
        assert len(stops) > 6


def test_pcg_stops_at_once_on_nan_rhs(ball_mesh):
    from volball.density import build_operators, diffusion_step
    ops = build_operators(ball_mesh, (ball_mesh.volumes, ball_mesh.hat_gradients))
    rho = np.ones(len(ball_mesh.vertices))
    rho[3] = np.nan
    with pytest.raises(linsolve.SolverError, match="not positive definite") as exc:
        diffusion_step(ops, rho, 0.1)
    assert exc.value.iterations == 1
