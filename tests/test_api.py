"""The package's top-level names: the user API, plus the kernels the
acceptance suite reaches through ``volball``; every other kernel is imported
from its module."""

import volball

USER_API = [
    "run_3dqc", "run_3ddem", "run_3ddeq", "run_method", "SolverConfig", "RunResult",
    "TetMesh", "load_mesh", "save_mesh", "initial_ball", "compute_boundary_sphere_map",
    "pullback", "quality_metrics", "uniform_ball_mesh", "RunReport",
    "CorrectionError", "DegenerateTetError", "MeshError", "TopologyError",
]
ACCEPTANCE_KERNELS = [
    "truncate_eigenvalues", "residual_step", "frame_decompose", "harmonic_fill",
    "TetFrameField", "reconstruct_map",
]


def test_all_is_the_user_api_and_every_name_resolves():
    assert sorted(volball.__all__) == sorted(USER_API + ACCEPTANCE_KERNELS)
    namespace = {}
    exec("from volball import *", namespace)
    for name in volball.__all__:
        assert namespace[name] is getattr(volball, name)
        assert callable(namespace[name])


def test_every_exported_name_states_its_contract():
    # a dataclass without a docstring gets its signature as __doc__
    for name in volball.__all__:
        doc = (getattr(volball, name).__doc__ or "").strip()
        assert doc, f"{name} has no docstring"
        assert not doc.startswith(f"{name}("), f"{name} has only its signature"
