"""The benchmark's traced mode wraps volball functions by name; a renamed or
deleted target would make ``bench/run.py --trace 1`` fail to install."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_target_resolves():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        spans = importlib.import_module("spans")
    sys.modules.pop("spans")
    assert spans.TRACED
    for name, (module_name, path, _) in spans.TRACED.items():
        assert module_name == "volball" or module_name.startswith("volball."), name
        owner = importlib.import_module(module_name)
        if "." in path:
            # methods are wrapped through the class dict, so they must be
            # defined on the class itself
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{name}: {module_name}.{path} is not defined"
        else:
            assert callable(getattr(owner, path, None)), f"{name}: {module_name}.{path} is missing"
