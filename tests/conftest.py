import importlib.util
import sys
from pathlib import Path

import pytest

from greenroute import build_fat_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def tree2():
    return build_fat_tree(2)


@pytest.fixture(scope="session")
def tree4():
    return build_fat_tree(4)


@pytest.fixture(scope="session")
def tree8():
    return build_fat_tree(8)


@pytest.fixture(scope="session")
def perfbench():
    """``perfbench(name)``: the benchmark's module ``perfbench/<name>.py``, loaded by path once.

    Those modules use only the standard library and form no package.
    """
    loaded = {}

    def load(name):
        if name not in loaded:
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module  # dataclasses look their module up
            spec.loader.exec_module(module)
            loaded[name] = module
        return loaded[name]

    yield load
    for name in loaded:
        del sys.modules[f"perfbench_{name}"]


@pytest.fixture(scope="session")
def check_solution(perfbench):
    """``check_solution(topology, workload, solution, capacity=..., activated=None)``: the
    problems ``perfbench/validate.py`` finds in a batch solution, the one
    independent check of the solution contract; ``[]`` when there are none."""
    validate = perfbench("validate")

    def check(topology, workload, solution, *, capacity, activated=None):
        adj = validate.adjacency(topology)
        return validate.check_solution(topology, adj, workload, solution, capacity=capacity,
                                       activated=activated).errors

    return check
