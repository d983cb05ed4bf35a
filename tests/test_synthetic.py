import numpy as np
import pytest

from volball.synthetic import (_CUBE_TETS, cube_mesh, ellipsoid_mesh, graded_ellipsoid_mesh,
                               hemispheric_population, lcube_mesh,
                               octant_population, smooth_population,
                               stretched_ball_mesh)
from volball.tetmesh import TetMesh


def test_cube_mesh_counts():
    mesh = cube_mesh(4)
    assert len(mesh.tets) == 6 * 4**3
    assert len(mesh.vertices) == 5**3
    assert mesh.enclosed_volume() == pytest.approx(8.0, rel=1e-12)
    assert mesh.count_folds(mesh.vertices) == 0


def test_ellipsoid_volume_scales():
    ball = ellipsoid_mesh(1, axes=(1, 1, 1))
    ell = ellipsoid_mesh(1, axes=(2, 1, 1))
    assert ell.enclosed_volume() == pytest.approx(2 * ball.enclosed_volume(),
                                                  rel=1e-10)


def test_graded_ellipsoid_valid_and_graded():
    mesh = graded_ellipsoid_mesh(1)
    assert mesh.count_folds(mesh.vertices) == 0
    vols = mesh.volumes
    assert vols.max() / vols.min() > 5.0


def test_lcube_topology():
    mesh = lcube_mesh(4)
    assert mesh.count_folds(mesh.vertices) == 0
    # 7/8 of the full cube volume
    assert mesh.enclosed_volume() == pytest.approx(7.0, rel=1e-12)


def _lcube_loop(n, stretch):
    """lcube_mesh's vertices and tets as a triple loop over the cells builds
    them, the reference for its vectorised cells."""
    axis = np.linspace(-1.0, 1.0, n + 1)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    mid = (axis[:-1] + axis[1:]) / 2.0
    keep = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mid[i] > 0 and mid[j] > 0 and mid[k] > 0:
                    continue
                corner = np.array([((i + ((b >> 2) & 1)) * (n + 1) + j + ((b >> 1) & 1))
                                   * (n + 1) + k + (b & 1) for b in range(8)])
                keep.append(corner[_CUBE_TETS])
    tets = np.vstack(keep)
    used = np.unique(tets)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used] * np.asarray(stretch, dtype=float), remap[tets]


@pytest.mark.parametrize("stretch", [(1.0, 1.0, 1.0), (4.0, 1.0, 0.25)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
def test_lcube_mesh_matches_the_loop_form(n, stretch):
    expected = TetMesh.from_arrays(*_lcube_loop(n, stretch))
    mesh = lcube_mesh(n, stretch)
    assert np.array_equal(mesh.vertices, expected.vertices)
    assert np.array_equal(mesh.tets, expected.tets)


def test_populations_positive_and_patterned():
    mesh = cube_mesh(4)
    hemi = hemispheric_population(mesh, ratio=4.0)
    assert np.all(hemi > 0)
    rho = hemi / np.abs(mesh.volumes)
    assert set(np.round(np.unique(rho), 9)) == {1.0, 4.0}
    smooth = smooth_population(mesh, ratio=5.0)
    r = smooth / np.abs(mesh.volumes)
    assert r.max() / r.min() == pytest.approx(5.0, rel=0.2)
    oct0 = octant_population(mesh, seed=0)
    oct1 = octant_population(mesh, seed=1)
    assert np.all(oct0 > 0)
    assert not np.allclose(oct0, oct1)
    np.testing.assert_array_equal(oct0, octant_population(mesh, seed=0))


def test_stretched_ball_is_affine_ball():
    mesh = stretched_ball_mesh(1, stretch=(2.0, 1.0, 0.5))
    ball = ellipsoid_mesh(1, axes=(1, 1, 1))
    np.testing.assert_allclose(mesh.vertices, ball.vertices * [2.0, 1.0, 0.5])
