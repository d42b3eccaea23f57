"""The benchmark's tracing hooks must find every name they wrap.

``perfbench/tracing.py`` wraps greenroute functions by name (see its
``TRACED`` table). Deleting or renaming one of them breaks the benchmark
run; this test makes it break the test suite first. The module uses only
the standard library, so it is loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import greenroute.baselines
import greenroute.cli
import greenroute.evaluation
import greenroute.hgr
import greenroute.mrg
import greenroute.topology
import greenroute.workload
from greenroute import Flow, Workload

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_traced_name(monkeypatch, tree4):
    tracing = _load_tracing(monkeypatch)
    originals = {(name, attr): getattr(getattr(greenroute, name), attr) for name, attr in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (name, attr), original in originals.items():
            assert getattr(getattr(greenroute, name), attr) is not original, f"{name}.{attr} not wrapped"
        greenroute.mrg.route_mrg(tree4, Workload((Flow(0, 0, 4, (0.1,)),), 1, z=4))
    finally:
        tracer.uninstall()
    for (name, attr), original in originals.items():
        assert getattr(getattr(greenroute, name), attr) is original
    assert tracer.spans["mrg.route_mrg"].calls == 1
