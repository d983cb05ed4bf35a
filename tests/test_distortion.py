import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volball import distortion
from volball.distortion import (FrameError, TetFrameField, anisotropy_matrices,
                                dilations, flip_eigenvalues, fold_candidates,
                                frame_decompose, jacobian_per_tet, reconstruct_map,
                                residual_coefficients, residual_step,
                                truncate_eigenvalues)
from volball.laplace import harmonic_fill, p1_blocks
from volball.tetmesh import tet_gradients


def test_jacobian_identity(ball_mesh):
    J = jacobian_per_tet(ball_mesh, ball_mesh.vertices)
    np.testing.assert_allclose(J, np.broadcast_to(np.eye(3), J.shape), atol=1e-12)


def test_jacobian_uniform_scaling(ball_mesh):
    J = jacobian_per_tet(ball_mesh, 2.0 * ball_mesh.vertices)
    np.testing.assert_allclose(J, np.broadcast_to(2 * np.eye(3), J.shape), atol=1e-12)


def test_jacobian_affine(ball_mesh):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    t = rng.normal(size=3)
    J = jacobian_per_tet(ball_mesh, ball_mesh.vertices @ A.T + t)
    np.testing.assert_allclose(J, np.broadcast_to(A, J.shape), atol=1e-9)


def test_jacobian_matches_solve_form(ball_mesh):
    rng = np.random.default_rng(1)
    pos = ball_mesh.vertices + 0.02 * rng.normal(size=ball_mesh.vertices.shape)
    tets = ball_mesh.tets

    def edges(x):
        return np.swapaxes(x[tets[:, 1:]] - x[tets[:, :1]], 1, 2)

    # LAPACK oracle: J = D R^-1 through R^T J^T = D^T
    rest, deformed = edges(ball_mesh.vertices), edges(pos)
    solved = np.swapaxes(np.linalg.solve(np.swapaxes(rest, 1, 2),
                                         np.swapaxes(deformed, 1, 2)), 1, 2)
    J = jacobian_per_tet(ball_mesh, pos)
    err = np.linalg.norm(J - solved, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(solved, axis=(1, 2)))


def _entries(C):
    """The diagonal and off-diagonal entries of a symmetric stack, as
    ``distortion._gram`` gives them."""
    return ([C[:, i, i].copy() for i in range(3)],
            {key: C[:, key[0], key[1]].copy() for key in ((0, 1), (0, 2), (1, 2))})


def _check_sym3_eigh(C):
    """The Jacobi eigenpairs of C against np.linalg.eigh; the eigenvalues
    are the same without the eigenvectors."""
    evals, V = distortion._sym3_eigh(*_entries(C), vectors=True)
    alone, none = distortion._sym3_eigh(*_entries(C), vectors=False)
    assert none is None and np.array_equal(alone, evals)
    scale = np.linalg.norm(C, axis=(1, 2))[:, None]
    assert np.all(np.abs(evals - np.linalg.eigh(C)[0][:, ::-1]) <= 1e-14 * scale)
    recon = (V * evals[:, None, :]) @ np.swapaxes(V, 1, 2)
    assert np.all(np.linalg.norm(recon - C, axis=(1, 2)) <= 1e-14 * scale[:, 0])
    gram = np.swapaxes(V, 1, 2) @ V
    assert np.abs(gram - np.eye(3)).max() <= 1e-14
    assert np.all(evals[:, 0] >= evals[:, 1]) and np.all(evals[:, 1] >= evals[:, 2])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-16.0, 2.0), min_size=3, max_size=3))
def test_sym3_eigh_matches_lapack(seed, log_eigs):
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    C = (Q * 10.0 ** np.array(log_eigs)) @ Q.T
    _check_sym3_eigh(0.5 * (C + C.T)[None])


def test_sym3_eigh_explicit_cases():
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    cases = [np.eye(3), np.diag([1.0, 3.0, 2.0]),
             (Q * [2.0, 2.0, 1.0]) @ Q.T,           # two-fold repeated spectrum
             (Q * [1e16, 1.0, 1.0]) @ Q.T,          # 1e16 dynamic range
             np.diag([1e-8, 1e8, 1.0])]
    _check_sym3_eigh(np.stack([0.5 * (C + C.T) for C in cases]))


def test_sym3_eigh_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(distortion, "_MAX_SWEEPS", 1)
    J = np.random.default_rng(0).normal(size=(50, 3, 3))
    with pytest.raises(FrameError, match="did not converge on tet"):
        distortion._sym3_eigh(*distortion._gram(J), vectors=True)
    # row 6 always falls back: its Gram is a generic rotation of
    # diag(4, 1 + 1e-7, 1), two roots 1e-7 apart, so the bound's scale is
    # some 3e7 times the middle root; the diagonal rows are certified.
    # Jacobi needs two sweeps on it, so the cap of one raises, and the error
    # names the row by its index in the whole stack
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    J = np.array([np.diag([3.0, 2.0, 1.0]) * (k + 1) for k in range(10)])
    J[6] = (Q * [2.0, np.sqrt(1.0 + 1e-7), 1.0]) @ Q.T
    eigvals, scale = distortion._smith_roots(*distortion._gram(J))
    assert scale[6] >= 1e6 * eigvals[6, 1]
    assert np.flatnonzero(~(scale <= 64.0 * eigvals[:, 1])).tolist() == [6]
    with pytest.raises(FrameError, match="did not converge on tet 6 in 1 sweeps"):
        distortion.dilations(J)
    # a diagonal input needs no sweep at all
    distortion._sym3_eigh(*_entries(np.diag([3.0, 1.0, 2.0])[None]), vectors=True)


def test_frame_decompose_identity():
    f = frame_decompose(np.eye(3))
    np.testing.assert_allclose(f.lambdas, [[1, 1, 1]], atol=1e-12)
    np.testing.assert_allclose(f.ratios, [1.0])


def test_frame_decompose_diagonal():
    f = frame_decompose(np.diag([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(f.lambdas, [[2, 1, 1]], atol=1e-12)
    assert f.ratios[0] == pytest.approx(2.0)


def test_frame_decompose_reflection_flags_fold():
    f = frame_decompose(np.diag([-1.0, 1.0, 1.0]))
    np.testing.assert_allclose(f.lambdas, [[1, 1, -1]], atol=1e-12)
    assert f.ratios[0] == pytest.approx(-1.0)


def test_frame_decompose_reconstruction_and_gauge():
    rng = np.random.default_rng(1)
    J = rng.normal(size=(500, 3, 3))
    J += np.sign(np.linalg.det(J))[:, None, None] * 2 * np.eye(3)
    f = frame_decompose(J)
    C = np.einsum("tji,tjk->tik", J, J)
    recon = np.einsum("tik,tk,tjk->tij", f.frames, f.lambdas**2, f.frames)
    scale = np.linalg.norm(J, axis=(1, 2)) ** 2
    err = np.linalg.norm(C - recon, axis=(1, 2))
    assert np.all(err < 1e-9 * scale)
    np.testing.assert_allclose(np.linalg.det(f.frames), 1.0, atol=1e-9)
    ortho = np.einsum("tji,tjk->tik", f.frames, f.frames)
    np.testing.assert_allclose(ortho, np.broadcast_to(np.eye(3), ortho.shape),
                               atol=1e-10)
    assert np.all(f.lambdas[:, 0] >= f.lambdas[:, 1])
    assert np.all(f.lambdas[:, 1] >= np.abs(f.lambdas[:, 2]) - 1e-12)
    assert np.all(np.sign(f.lambdas[:, 2]) == np.sign(np.linalg.det(J)))


def test_frame_decompose_singular_raises():
    with pytest.raises(FrameError):
        frame_decompose(np.zeros((3, 3)))


def test_ratio_matches_singular_value_oracle():
    rng = np.random.default_rng(2)
    J = rng.normal(size=(1400, 3, 3))
    keep = np.abs(np.linalg.det(J)) > 1e-3
    J = J[keep][:1000]
    assert len(J) == 1000
    f = frame_decompose(J)
    sv = np.linalg.svd(J, compute_uv=False)  # independent oracle
    expected = sv[:, 0] / sv[:, 2] * np.sign(np.linalg.det(J))
    np.testing.assert_allclose(f.ratios, expected, rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_ratio_matches_singular_value_oracle_tightly(seed):
    # c = det J / (a b) keeps the ratio within a few hundred ulps of the SVD
    # on every seed; sqrt of the smallest eigenvalue of J^T J would carry a
    # cond(J)^2 eps error (2.4e-9 on seed 1)
    J = np.random.default_rng(seed).normal(size=(1400, 3, 3))
    J = J[np.abs(np.linalg.det(J)) > 1e-3][:1000]
    sv = np.linalg.svd(J, compute_uv=False)
    expected = sv[:, 0] / sv[:, 2] * np.sign(np.linalg.det(J))
    np.testing.assert_allclose(frame_decompose(J).ratios, expected, rtol=1e-12)


def _mesh_jacobians(mesh, seed=7):
    """Jacobians of a sheared ball map with jittered interior vertices."""
    shear = np.array([[1.4, 0.2, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 1.1]])
    pos = mesh.vertices @ shear.T
    interior = ~mesh.boundary_vertex_mask
    pos[interior] += 0.002 * np.random.default_rng(seed).normal(size=(int(interior.sum()), 3))
    return jacobian_per_tet(mesh, pos)


_EPS = np.finfo(np.float64).eps


def _assert_within(lam, expected, ulps, name=""):
    """Each entry of ``lam`` within ``ulps`` eps of ``expected``, relative."""
    err = np.abs(lam - expected)
    assert np.all(err <= ulps * _EPS * np.abs(expected)), (name, np.max(err / np.abs(expected)))


def test_dilations_agree_with_frame_lambdas(ball_mesh):
    rng = np.random.default_rng(11)
    cases = {"random": rng.normal(size=(1000, 3, 3)),
             "identity": np.eye(3),
             "diag(2, 1, 1)": np.diag([2.0, 1.0, 1.0]),
             "reflection": np.diag([-1.0, 1.0, 1.0]),
             "mesh": _mesh_jacobians(ball_mesh)}
    for name, J in cases.items():
        lam = dilations(J)
        assert lam.shape == (len(J) if J.ndim == 3 else 1, 3), name
        _assert_within(lam, frame_decompose(J).lambdas, 64, name)
    assert dilations(np.diag([-1.0, 1.0, 1.0]))[0, 2] == -1.0


def _mixed_jacobians(seed, n_random, n_near_identity, n_repeated, n_anisotropic, n_spread=0):
    """A shuffled stack of Jacobians with near-repeated and far-apart
    singular values, a fifth of them reflected: random ones; s I plus noise
    of 1e-15 to 1e-9; near-repeated singular value pairs; ratios K up to
    1e8; singular values spread over four decades."""
    rng = np.random.default_rng(seed)

    def rotation():
        return np.linalg.qr(rng.normal(size=(3, 3)))[0]

    s = 10.0 ** rng.uniform(-1.0, 1.0, (n_near_identity, 1, 1))
    noise = 10.0 ** rng.uniform(-15.0, -9.0, (n_near_identity, 1, 1))
    singular = []
    for _ in range(n_repeated):
        x = 10.0 ** rng.uniform(-1.0, 1.0)
        singular.append([x, x * (1.0 + 10.0 ** rng.uniform(-15.0, -6.0)),
                         10.0 ** rng.uniform(-1.0, 1.0)])
    for _ in range(n_anisotropic):
        K = 10.0 ** rng.uniform(0.0, 8.0)
        singular.append([K, 10.0 ** rng.uniform(0.0, np.log10(K)), 1.0])
    singular.extend(10.0 ** rng.uniform(-2.0, 2.0, (n_spread, 3)))
    J = np.concatenate([rng.normal(size=(n_random, 3, 3)),
                        s * np.eye(3) + noise * rng.normal(size=(n_near_identity, 3, 3)),
                        np.array([(rotation() * v) @ rotation().T
                                  for v in singular]).reshape(-1, 3, 3)])
    J[rng.random(len(J)) < 0.2, :, 0] *= -1.0
    return J[rng.permutation(len(J))]


_MIXED = (st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 80),
          st.integers(0, 20), st.integers(0, 20), st.integers(0, 40))


@settings(max_examples=100, deadline=None)
@given(*_MIXED, st.floats(-2.0, 3.0))
def test_dilations_agree_with_frame_lambdas_on_mixed_stacks(seed, n_random, n_near_identity,
                                                            n_repeated, n_anisotropic,
                                                            n_spread, log_scale):
    # closed-form rows and Jacobi rows alike, on any scale of the spectrum
    J = 10.0 ** log_scale * _mixed_jacobians(seed, n_random, n_near_identity, n_repeated,
                                             n_anisotropic, n_spread)
    _assert_within(dilations(J), frame_decompose(J).lambdas, 64)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended long double")
@settings(max_examples=100, deadline=None)
@given(*_MIXED)
def test_smith_roots_within_their_error_bound(seed, n_random, n_near_identity, n_repeated,
                                              n_anisotropic, n_spread):
    # the module docstring's first-order bound, a small multiple of
    # eps (q + p) / sqrt(1 - r^2), holds at 4 times it on every row the
    # closed form keeps; the reference is the Jacobi solve of the same
    # entries in long double
    diag, off = distortion._gram(_mixed_jacobians(seed, n_random, n_near_identity,
                                                  n_repeated, n_anisotropic, n_spread))
    roots, scale = distortion._smith_roots(diag, off)
    exact, _ = distortion._sym3_eigh([x.astype(np.longdouble) for x in diag],
                                     {key: x.astype(np.longdouble) for key, x in off.items()},
                                     vectors=False)
    kept = scale <= 64.0 * roots[:, 1]
    err = np.abs(roots - exact).astype(np.float64)
    assert np.all(err[kept] <= 4.0 * _EPS * scale[kept, None])
    # and a kept middle root is within 4 * 64 eps of its own size
    assert np.all(err[kept, 1] <= 256.0 * _EPS * roots[kept, 1])


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0, -2.0, 1e-3])
def test_dilations_of_a_multiple_of_the_identity_are_exact(s):
    # p = 0: the roots are q = s^2 itself, with no Jacobi fallback
    J = np.stack([s * np.eye(3)] * 4)
    assert np.array_equal(distortion._smith_roots(*distortion._gram(J))[0],
                          np.full((4, 3), s * s))
    assert np.array_equal(dilations(J), np.tile([abs(s), abs(s), s], (4, 1)))


def test_dilations_of_diag_2_1_1_are_exact():
    assert np.array_equal(dilations(np.diag([2.0, 1.0, 1.0])), [[2.0, 1.0, 1.0]])
    assert np.array_equal(dilations(np.diag([1.0, 2.0, 1.0])), [[2.0, 1.0, 1.0]])


def _rotated(singular, seed=4):
    """Jacobians U diag(singular) V^T with random rotations U and V."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(len(singular), 3, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(len(singular), 3, 3)))[0]
    return (U * np.asarray(singular, dtype=np.float64)[:, None, :]) @ np.swapaxes(V, 1, 2)


def test_dilations_fall_back_on_exact_double_roots(monkeypatch):
    # rows 2 and 5 have a double singular value; the Jacobi solver takes
    # them, and only them, and names them by their index in the whole stack
    singular = [[3.0, 2.0, 1.0]] * 8
    singular[2], singular[5] = [2.0, 2.0, 1.0], [3.0, 1.0, 1.0]
    J = _rotated(singular)
    sweep, calls = distortion._sym3_eigh, []

    def swept(diag, off, vectors, tets=None):
        calls.append((list(tets), vectors))
        return sweep(diag, off, vectors, tets)

    monkeypatch.setattr(distortion, "_sym3_eigh", swept)
    lam = dilations(J)
    assert calls == [([2, 5], False)]
    _assert_within(lam, np.asarray(singular), 64)


def test_dilations_fallback_names_tets_in_the_full_stack(monkeypatch):
    J = _rotated([[3.0, 2.0, 1.0]] * 5 + [[2.0, 2.0, 1.0]] + [[3.0, 2.0, 1.0]] * 3)
    monkeypatch.setattr(distortion, "_MAX_SWEEPS", 0)
    with pytest.raises(FrameError, match="did not converge on tet 5 in 0 sweeps"):
        dilations(J)


def test_sym3_eigh_leaves_the_callers_entries_as_they_are():
    diag, off = distortion._gram(np.random.default_rng(3).normal(size=(40, 3, 3)))
    kept = [x.copy() for x in diag], {key: x.copy() for key, x in off.items()}
    for vectors in (False, True):
        distortion._sym3_eigh(diag, off, vectors)
        assert all(np.array_equal(x, y) for x, y in zip(diag, kept[0]))
        assert all(np.array_equal(off[key], kept[1][key]) for key in kept[1])


def test_dilations_singular_raises():
    J = np.random.default_rng(12).normal(size=(20, 3, 3))
    J[13, :, 2] = J[13, :, 0]
    with pytest.raises(FrameError, match="singular Jacobian on tet 13"):
        dilations(J)
    with pytest.raises(FrameError, match="singular"):
        dilations(np.zeros((3, 3)))


def _jacobians_with_ratio(K, m=200, seed=13):
    """Random J = U diag(K, sqrt K, 1) V^T with det J > 0: ratio a/c = K."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(m, 3, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(m, 3, 3)))[0]
    J = (U * np.array([K, np.sqrt(K), 1.0])) @ np.swapaxes(V, 1, 2)
    return J * np.sign(np.linalg.det(J))[:, None, None]


def _stiffness_reference(x):
    """|V| G G^T of the tets with corners x (m, 4, 3), in long double."""
    x = x.astype(np.longdouble)
    a, b, c = (x[:, k] - x[:, 0] for k in (1, 2, 3))
    g = np.empty((len(x), 4, 3), dtype=np.longdouble)
    for k, (u, v) in enumerate(((b, c), (c, a), (a, b)), start=1):
        g[:, k] = np.stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                            u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                            u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]], axis=1)
    det = np.sum(a * g[:, 1], axis=1)
    g[:, 1:] /= det[:, None, None]
    g[:, 0] = -(g[:, 1] + g[:, 2] + g[:, 3])
    return np.abs(det / 6)[:, None, None] * (g @ np.swapaxes(g, 1, 2))


def _cofactor_coefficient(J):
    """det J (J^T J)^-1 as M M^T / det J, M the cofactor matrix of J with rows
    j1 x j2, j2 x j0, j0 x j1 (the columns jk of J)."""
    j0, j1, j2 = np.moveaxis(J, 2, 0)
    M = np.stack([np.cross(j1, j2), np.cross(j2, j0), np.cross(j0, j1)], axis=1)
    return M @ np.swapaxes(M, 1, 2) / np.sum(j0 * M[:, 0], axis=1)[:, None, None]


def _energy_errors(packed, reference):
    """Per-tet energy-norm relative error ||R^-1/2 (B - R) R^-1/2||_2 of the
    symmetric blocks B, packed as ``p1_blocks`` returns them, against the
    reference R, on the complement of the constants."""
    rows, cols = np.triu_indices(4)
    blocks = np.empty((len(packed), 4, 4))
    blocks[:, rows, cols] = blocks[:, cols, rows] = packed
    Q = np.linalg.qr(np.column_stack([np.ones(4), np.eye(4)[:, :3]]))[0][:, 1:]
    diff = (blocks - reference).astype(np.float64)
    w, V = np.linalg.eigh(Q.T @ reference.astype(np.float64) @ Q)
    root = (V / np.sqrt(w)[:, None, :]) @ np.swapaxes(V, 1, 2)
    return np.linalg.norm(root @ (Q.T @ diff @ Q) @ root, 2, axis=(1, 2))


@pytest.mark.parametrize("K, tol", [(1.0, 1e-14), (2.0, 1e-14), (10.0, 1e-13),
                                    (1e3, 1e-9), (1e5, 1e-5)])
def test_rebuild_blocks_match_current_stiffness(K, tol):
    # a tet the rebuild leaves unedited takes the current map's own
    # 2 |V| G G^T; it equals the cofactor form |V_rest| G_rest M M^T / det J
    # G_rest^T in exact arithmetic and must be no less accurate against the
    # stiffness of the current corners (below 1e-15 both are at rounding
    # level). An edited tet takes the frame form, exact on its own triple.
    J = _jacobians_with_ratio(K)
    m = len(J)
    rest = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [0.3, 0.3, 0.8]])
    tets = np.arange(4 * m).reshape(m, 4)
    rest_vols, rest_grads = tet_gradients((rest + 3.0 * np.arange(m)[:, None, None])
                                          .reshape(-1, 3), tets)
    shift = np.random.default_rng(5).normal(size=(m, 1, 3))
    corners = (rest - rest[0]) @ np.swapaxes(J, 1, 2) + shift
    reference = _stiffness_reference(corners)
    current = p1_blocks(*tet_gradients(corners.reshape(-1, 3), tets), 1.0)
    Jm = np.swapaxes(corners, 1, 2) @ rest_grads  # jacobian_per_tet's matmul
    cofactor = p1_blocks(rest_vols, rest_grads, _cofactor_coefficient(Jm))
    frame = p1_blocks(rest_vols, rest_grads, anisotropy_matrices(frame_decompose(Jm)))
    err = {name: _energy_errors(blocks, reference).max()
           for name, blocks in [("current", current), ("cofactor", cofactor),
                                ("frame", frame)]}
    assert err["current"] <= max(err["cofactor"], 1e-15)
    assert max(err.values()) <= tol


def test_reconstruct_keeps_dilation_of_unedited_tets(ball_mesh):
    # own frames on every 17th tet and the current map's stiffness on the
    # rest: the jittered map solves the system, reached from a zero start
    J = _mesh_jacobians(ball_mesh)
    shear = np.array([[1.4, 0.2, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 1.1]])
    pos = ball_mesh.vertices @ shear.T
    interior = ~ball_mesh.boundary_vertex_mask
    pos[interior] += 0.002 * np.random.default_rng(7).normal(size=(int(interior.sum()), 3))
    assert np.array_equal(jacobian_per_tet(ball_mesh, pos), J)
    rows = np.arange(0, len(J), 17)
    bidx = ball_mesh.boundary_vertices
    rec = reconstruct_map(ball_mesh, frame_decompose(J[rows]), bidx, pos[bidx], tets=rows,
                          geometry=tet_gradients(pos, ball_mesh.tets))
    np.testing.assert_allclose(rec, pos, atol=1e-7)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([10.0, 1e3]), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_fold_candidates_keep_every_tet_above_ratio(r, log_k, mid, inverted, seed):
    # a/c = a^2 b / det J <= tr(J^T J)^(3/2) / det J: every J with a/c > r
    # passes the screen, and so does every inverted J
    K = r * 10.0 ** log_k
    U, V = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 3, 3)))[0]
    J = (U * np.array([K, K ** mid, 1.0])) @ V.T
    J *= np.sign(np.linalg.det(J)) * (-1.0 if inverted else 1.0)
    lam = dilations(J)
    passed = fold_candidates(J[None], r).size == 1
    assert passed or (lam[0, 2] > 0 and lam[0, 0] / lam[0, 2] <= r)
    assert fold_candidates(J[None]).size == int(inverted)


def test_flip_eigenvalues_cases():
    np.testing.assert_allclose(flip_eigenvalues(np.array([1.0, 1.0, -1.0])),
                               [1, 1, 1])
    np.testing.assert_allclose(flip_eigenvalues(np.array([2.0, 1.5, 1.0])),
                               [2, 1.5, 1])
    out = flip_eigenvalues(np.array([3.0, 2.0, -0.5]))
    np.testing.assert_allclose(out, [3, 2, 0.5])
    assert out[0] / out[2] == pytest.approx(6.0)


def test_flip_idempotent():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.1, 4.0, size=(200, 3)), axis=1)[:, ::-1]
    lam[::3, 2] *= -1
    once = flip_eigenvalues(lam)
    np.testing.assert_array_equal(flip_eigenvalues(once), once)


def test_residual_step_fixed_point():
    np.testing.assert_allclose(residual_step(np.array([1.0, 1.0, 1.0]), 50.0),
                               [1, 1, 1])


def test_residual_step_theta_value():
    # K = 51, C = 50: theta = (51-1)/((51-1)+50) = 0.5
    lam = np.array([51.0, 26.0, 1.0])
    out = residual_step(lam, 50.0)
    theta = 0.5
    np.testing.assert_allclose(out, [51 - theta * 25, 26, 1 + theta * 25])


def test_residual_step_421():
    out = residual_step(np.array([4.0, 2.0, 1.0]), 50.0)
    np.testing.assert_allclose(out, [4 - 6 / 53, 2.0, 1 + 3 / 53], rtol=1e-12)
    assert out[0] / out[2] == pytest.approx(206.0 / 56.0, rel=1e-12)


def test_residual_step_decreases_ratio():
    rng = np.random.default_rng(4)
    c = rng.uniform(0.05, 2.0, size=1000)
    b = c + rng.uniform(0.0, 3.0, size=1000)
    a = b + rng.uniform(1e-6, 3.0, size=1000)
    lam = np.column_stack([a, b, c])
    out = residual_step(lam, 50.0)
    assert np.all(out[:, 0] / out[:, 2] < lam[:, 0] / lam[:, 2])


def test_residual_step_requires_positive():
    with pytest.raises(FrameError):
        residual_step(np.array([2.0, 1.0, -1.0]), 50.0)


def test_truncate_421():
    out = truncate_eigenvalues(np.array([4.0, 2.0, 1.0]), 2.0)
    np.testing.assert_allclose(out, [10 / 3, 20 / 9, 5 / 3], rtol=1e-12)
    assert out[0] / out[2] == pytest.approx(2.0, abs=1e-12)


def test_truncate_below_threshold_unchanged():
    lam = np.array([1.5, 1.2, 1.0])
    np.testing.assert_array_equal(truncate_eigenvalues(lam, 10.0), lam)
    iso = np.array([2.2, 2.2, 2.2])
    np.testing.assert_array_equal(truncate_eigenvalues(iso, 1.5), iso)


def test_truncate_ratio_is_min_K_KT():
    rng = np.random.default_rng(5)
    c = rng.uniform(0.05, 2.0, size=1000)
    b = c + rng.uniform(0, 5, size=1000)
    a = b + rng.uniform(0, 5, size=1000)
    lam = np.column_stack([a, b, c])
    K_T = 3.0
    out = truncate_eigenvalues(lam, K_T)
    expected = np.minimum(lam[:, 0] / lam[:, 2], K_T)
    np.testing.assert_allclose(out[:, 0] / out[:, 2], expected, atol=1e-12, rtol=1e-12)
    # ordering and positivity preserved
    assert np.all(out[:, 0] >= out[:, 1] - 1e-12)
    assert np.all(out[:, 1] >= out[:, 2] - 1e-12)
    assert np.all(out > 0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(0.0, 5.0), st.floats(1e-6, 5.0),
       st.floats(1.01, 20.0))
def test_truncate_property(c, db, da, K_T):
    lam = np.array([c + db + da, c + db, c])
    out = truncate_eigenvalues(lam, K_T)
    assert out[0] / out[2] == pytest.approx(min(lam[0] / lam[2], K_T), rel=1e-9)
    assert out[0] >= out[1] >= out[2] > 0


def _frame_coefficient(J, lam, C):
    """The residual step's coefficient in the frame form."""
    return anisotropy_matrices(TetFrameField(frame_decompose(J).frames,
                                             residual_step(lam, C)))


def _relative_errors(A, reference):
    return np.linalg.norm(A - reference, axis=(1, 2)) / np.linalg.norm(reference, axis=(1, 2))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(1.0, 100.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_residual_coefficients_match_frame_form(log_k, mid, log_scale, C, inverted, seed):
    # P from the closed form squares to J^T J and has the eigenvalues
    # (a, b, |c|); the coefficient is the frame form's. Where b is near c
    # both forms sit about K eps from a 40-digit reference (module
    # docstring), so they are compared at 2e-13 K.
    K = 10.0 ** log_k
    U, V = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 3, 3)))[0]
    J = 10.0 ** log_scale * (U * np.array([K, K ** mid, 1.0])) @ V.T
    J *= np.sign(np.linalg.det(J)) * (-1.0 if inverted else 1.0)
    lam = flip_eigenvalues(dilations(J))
    P = distortion._sym_matrix(*distortion._stretch(distortion._gram(J[None]), lam))[0]
    gram = J.T @ J
    assert np.array_equal(P, P.T)
    assert np.linalg.norm(P @ P - gram) <= 1e-12 * np.linalg.norm(gram)
    np.testing.assert_allclose(np.linalg.eigvalsh(P)[::-1], lam[0], rtol=0,
                               atol=1e-12 * lam[0, 0])
    err = _relative_errors(residual_coefficients(J[None], lam, C),
                           _frame_coefficient(J, lam, C))
    assert err[0] <= 2e-13 * K


@pytest.mark.parametrize("K", [10.0, 1e3])
def test_residual_coefficients_on_graded_spectra(K):
    # singular values (K, sqrt K, 1): the two forms agree to 1e-12
    J = _jacobians_with_ratio(K)
    lam = flip_eigenvalues(dilations(J))
    err = _relative_errors(residual_coefficients(J, lam, 50.0),
                           _frame_coefficient(J, lam, 50.0))
    assert err.max() <= 1e-12


def test_residual_coefficients_exact_cases():
    # a rotation has P = I and a unit coefficient; a uniform scaling s of it
    # has ratio 1, no step, and the coefficient det(s I) (s I)^-2 = s I
    R = np.linalg.qr(np.random.default_rng(21).normal(size=(3, 3)))[0]
    R *= np.sign(np.linalg.det(R))
    for s in (1.0, 0.25, 3.0):
        J = (s * R)[None]
        lam = flip_eigenvalues(dilations(J))
        P = distortion._sym_matrix(*distortion._stretch(distortion._gram(J), lam))[0]
        np.testing.assert_allclose(P, s * np.eye(3), rtol=0, atol=1e-14 * s)
        np.testing.assert_allclose(residual_coefficients(J, lam, 50.0)[0], s * np.eye(3),
                                   rtol=0, atol=1e-14 * s)


@pytest.mark.parametrize("spectrum", [(2.0, 2.0, 1.0), (2.0, 1.0, 1.0), (1.5, 1.5, 1.5)])
def test_residual_coefficients_repeated_spectra(spectrum):
    # frames are arbitrary in a repeated eigenspace, the coefficient is not:
    # J = U diag(s) V^T has P = V diag(s) V^T and the coefficient
    # V diag(det'/s'^2) V^T of the stepped triple s'
    rng = np.random.default_rng(22)
    U = np.linalg.qr(rng.normal(size=(50, 3, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(50, 3, 3)))[0]
    s = np.array(spectrum)
    J = (U * s) @ np.swapaxes(V, 1, 2)
    lam = flip_eigenvalues(dilations(J))
    np.testing.assert_allclose(lam, np.broadcast_to(s, lam.shape), rtol=1e-14)
    P = distortion._sym_matrix(*distortion._stretch(distortion._gram(J), lam))
    assert np.abs(P - (V * s) @ np.swapaxes(V, 1, 2)).max() <= 1e-14 * s[0]
    stepped = residual_step(s, 50.0)
    exact = (V * (np.prod(stepped) / stepped ** 2)) @ np.swapaxes(V, 1, 2)
    assert _relative_errors(residual_coefficients(J, lam, 50.0), exact).max() <= 1e-14
    assert _relative_errors(_frame_coefficient(J, lam, 50.0), exact).max() <= 1e-14


def _rebuild_frame_form(J, k_threshold):
    """The rebuild's coefficient in the frame form: Jacobi frames and
    triples, flipped, floored at 1e-12 a and truncated."""
    field = frame_decompose(J)
    lam = truncate_eigenvalues(distortion._flip_and_floor(field.lambdas), k_threshold)
    return anisotropy_matrices(TetFrameField(field.frames, lam))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["folded", "near-fold", "needle", "flat"]), st.floats(0.0, 5.0),
       st.floats(0.0, 1.0), st.floats(-14.0, -2.0), st.sampled_from([2.0, 10.0, 100.0]),
       st.floats(-1.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_rebuild_coefficients_match_frame_form(kind, log_k, mid, log_gap, k_threshold,
                                               log_scale, inverted, seed):
    # singular values (K, K^mid, 1), a needle's (K, 1 + gap, 1) or a flat
    # tet's (K, K (1 - gap), 1): every inverted row, and every row past the
    # near-fold ratio, is edited, and its closed-form coefficient is the
    # frame form's to 1e-8 relative (the split of a near-repeated pair,
    # which the truncation reads through a and c) plus 16 eps K min(K, K_T)
    # (the frame form's own conditioning). Rows with K > K_T are truncated,
    # the others only flipped.
    if kind == "near-fold":
        log_k, inverted = 3.01 + 0.4 * log_k, False
    elif kind == "folded":
        inverted = True
    # a ratio within rounding of the near-fold ratio may be edited or not
    assume(inverted or abs(log_k - 3.0) > 1e-9)
    K, gap = 10.0 ** log_k, 10.0 ** log_gap
    spectrum = {"folded": (K, K ** mid, 1.0), "near-fold": (K, K ** mid, 1.0),
                "needle": (K, 1.0 + gap, 1.0), "flat": (K, K * (1.0 - gap), 1.0)}[kind]
    U, V = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 3, 3)))[0]
    J = 10.0 ** log_scale * (U * np.array(spectrum)) @ V.T
    J *= np.sign(np.linalg.det(J)) * (-1.0 if inverted else 1.0)
    rows, coeff = distortion.rebuild_coefficients(J[None], k_threshold, 1e3)
    if not (inverted or K > 1e3):
        assert len(rows) == 0
        return
    assert rows.tolist() == [0]
    err = _relative_errors(coeff, _rebuild_frame_form(J[None], k_threshold))
    assert err[0] <= 1e-8 + 16.0 * np.finfo(float).eps * K * min(K, k_threshold)


def test_rebuild_coefficients_screen_and_name_tets():
    # only the screened rows are edited: inverted ones always, strained ones
    # past the near-fold ratio only when it is given; a singular Jacobian is
    # named by its index in the caller's tets
    J = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.diag([2e3, 1.0, 1.0]),
                  np.diag([3.0, 2.0, 1.0])])
    rows, coeff = distortion.rebuild_coefficients(J, 10.0)
    assert rows.tolist() == [1]
    np.testing.assert_allclose(coeff[0], np.eye(3), rtol=0, atol=1e-15)
    rows, coeff = distortion.rebuild_coefficients(J, 10.0, 1e3)
    assert rows.tolist() == [1, 2]
    np.testing.assert_allclose(coeff[1], _rebuild_frame_form(J[2:3], 10.0)[0], rtol=1e-13)
    J[3] = 0.0
    with pytest.raises(FrameError, match="singular Jacobian on tet 42"):
        distortion.rebuild_coefficients(J, 10.0, tets=np.array([7, 8, 9, 42]))


def test_triple_operators_name_the_first_bad_tet():
    lam = np.array([[2.0, 1.0, 1.0], [3.0, 2.0, 1.0], [2.0, 1.0, -0.5], [2.0, 1.0, -1.0]])
    with pytest.raises(FrameError, match=r"flip first \(tet 2: 2, 1, -0\.5\)"):
        residual_step(lam, 50.0)
    with pytest.raises(FrameError, match=r"flip first \(tet 2: 2, 1, -0\.5\)"):
        truncate_eigenvalues(lam, 10.0)
    with pytest.raises(FrameError, match=r"\(tet 2: 2, 1, -0\.5\)"):
        anisotropy_matrices(TetFrameField(np.broadcast_to(np.eye(3), (4, 3, 3)), lam))
    J = np.broadcast_to(np.eye(3), (4, 3, 3))
    with pytest.raises(FrameError, match=r"flip first \(tet 2: 2, 1, -0\.5\)"):
        residual_coefficients(J, lam, 50.0)
    # a single triple is row 0
    with pytest.raises(FrameError, match=r"tet 0: 2, 1, -1\)"):
        residual_step(np.array([2.0, 1.0, -1.0]), 50.0)


def test_anisotropy_identity():
    frames = TetFrameField(np.eye(3)[None], np.array([[1.0, 1.0, 1.0]]))
    np.testing.assert_allclose(anisotropy_matrices(frames), np.eye(3)[None],
                               atol=1e-14)


def test_reconstruct_identity_matches_harmonic(ball_mesh):
    from volball.sphere_map import compute_boundary_sphere_map
    bmap = compute_boundary_sphere_map(ball_mesh)
    harmonic = harmonic_fill(ball_mesh, bmap.points, bmap.vertex_indices)
    m = len(ball_mesh.tets)
    frames = TetFrameField(np.broadcast_to(np.eye(3), (m, 3, 3)).copy(),
                           np.ones((m, 3)))
    rec = reconstruct_map(ball_mesh, frames, bmap.vertex_indices, bmap.points)
    np.testing.assert_allclose(rec, harmonic, atol=1e-8)


def test_reconstruct_affine_recovery(ball_mesh):
    A = np.array([[1.4, 0.2, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 1.1]])
    target = ball_mesh.vertices @ A.T
    frames = frame_decompose(jacobian_per_tet(ball_mesh, target))
    bidx = ball_mesh.boundary_vertices
    rec = reconstruct_map(ball_mesh, frames, bidx, target[bidx])
    np.testing.assert_allclose(rec, target, atol=1e-7)


def test_reconstruct_unfolds_truncated_tet(ball_mesh):
    # reflect one interior vertex just past the opposite face plane of an
    # incident tet; the flip + truncate + rebuild passes remove the fold
    from volball.drivers import correct_overlaps
    interior = np.flatnonzero(~ball_mesh.boundary_vertex_mask)
    positions = None
    for v in interior:
        for t in np.flatnonzero(np.any(ball_mesh.tets == v, axis=1)):
            face = [i for i in ball_mesh.tets[t] if i != v]
            p0, p1, p2 = ball_mesh.vertices[face]
            n = np.cross(p1 - p0, p2 - p0)
            n /= np.linalg.norm(n)
            d = float((ball_mesh.vertices[v] - p0) @ n)
            cand = ball_mesh.vertices.copy()
            cand[v] = cand[v] - 2.02 * d * n
            if ball_mesh.count_folds(cand) == 1:
                positions = cand
                break
        if positions is not None:
            break
    assert positions is not None, "no single-fold construction found"
    rec = correct_overlaps(ball_mesh, positions, 10.0)
    assert ball_mesh.count_folds(rec) == 0
