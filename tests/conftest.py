import numpy as np
import pytest

from volball.tetmesh import TetMesh


@pytest.fixture
def reference_tet():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3]]))


@pytest.fixture
def two_tet_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    return TetMesh.from_arrays(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))


@pytest.fixture(scope="session")
def ball_mesh():
    from volball.remesh import uniform_ball_mesh
    return uniform_ball_mesh(1)


@pytest.fixture(scope="session")
def ball_mesh_6k():
    from volball.remesh import uniform_ball_mesh
    return uniform_ball_mesh(2)


@pytest.fixture(scope="session")
def cube8():
    from volball.synthetic import cube_mesh
    return cube_mesh(8)


@pytest.fixture(scope="session")
def cube9():
    from volball.synthetic import cube_mesh
    return cube_mesh(9)
