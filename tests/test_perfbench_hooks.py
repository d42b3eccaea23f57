"""The benchmark's tracing hooks and output checks must keep working.

``perfbench/tracing.py`` wraps greenroute functions by name (see its
``TRACED`` table) and reads HGR's ``(solution, counts)`` pair;
``perfbench/validate.py`` checks solutions and live online state. Deleting
or renaming a traced name, or changing what those modules read (the
routers' returns, ``ResidualState.fresh`` and ``residual``, the online
signatures), breaks the benchmark run; these tests make it break the test
suite first. Both are loaded by path, by the ``perfbench`` fixture.
"""

import random

import greenroute.baselines
import greenroute.cli
import greenroute.evaluation
import greenroute.hgr
import greenroute.mrg
import greenroute.topology
import greenroute.workload
from greenroute import Flow, Workload, generate_workload

from oracle_helpers import graph_with_leaves, with_hosts


def test_tracer_installs_and_uninstalls_on_every_traced_name(perfbench, tree4):
    tracing = perfbench("tracing")
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


# (module, router, its contract keeps every processor within capacity), as the benchmark runs them
ROUTERS = (
    ("mrg", "route_mrg", True),
    ("baselines", "route_srg", False),
    ("hgr", "route_hgr", True),
    ("baselines", "route_srsp", False),
    ("baselines", "route_mrsp", True),
)


def test_traced_routers_and_online_stream_pass_the_benchmark_checks(perfbench, check_solution, tree4):
    tracing = perfbench("tracing")
    validate = perfbench("validate")
    workload = generate_workload(tree4, 60, 3, 0.1, 0.1, seed=13)
    rng = random.Random(13)
    with tracing.Tracer() as tracer:
        for module, attr, capacity in ROUTERS:
            router = getattr(getattr(greenroute, module), attr)  # looked up late, so the span applies
            if attr == "route_hgr":
                solution, counts = router(tree4, workload)
                activated = counts.activated
            else:
                solution, activated = router(tree4, workload, 5), None
            assert check_solution(tree4, workload, solution, capacity=capacity, activated=activated) == [], attr
        state = greenroute.mrg.ResidualState.fresh(tree4, workload.dims)
        live = {}
        departures = rejected = 0
        for flow in workload.flows:
            if len(live) >= 20:
                greenroute.mrg.online_departure(state, tree4, *live.pop(rng.choice(sorted(live))))
                departures += 1
            path = greenroute.mrg.online_arrival(state, tree4, flow)
            if path is None:
                rejected += 1
            else:
                live[flow.id] = (flow, path)
        assert validate.check_online_state(tree4, state, live) == []
    for module, attr, _ in ROUTERS:
        assert tracer.spans[f"{module}.{attr}"].calls == 1
    metrics = tracer.layer_metrics()
    assert metrics["mrg.online_arrival.calls"] == len(workload.flows)
    assert metrics["mrg.online_arrival.rejected"] == rejected
    assert metrics["mrg.online_departure.calls"] == departures > 0
    assert metrics["hgr.woken_beyond_estimate"] >= 0


def test_batch_routers_pass_the_benchmark_checks_on_graphs_with_relaying_hosts(check_solution):
    # Hosts of degree >= 2, which no fat-tree has: the checks refuse any path
    # that passes through a host.
    rng = random.Random(83)
    routed = 0
    for trial in range(300):
        topology = with_hosts(graph_with_leaves(rng), rng)
        if len(topology.host_ids) < 2:
            continue
        dims = rng.randint(1, 3)
        flows = []
        for fid in range(rng.randint(1, 12)):
            src, dst = rng.sample(topology.host_ids, 2)
            flows.append(Flow(fid, src, dst, tuple(rng.uniform(0.05, 0.6) for _ in range(dims))))
        workload = Workload(tuple(flows), dims)
        for module, attr, capacity in ROUTERS:
            if attr != "route_hgr":  # HGR routes fat-trees only
                solution = getattr(getattr(greenroute, module), attr)(topology, workload, trial)
                assert check_solution(topology, workload, solution, capacity=capacity) == [], (trial, attr)
                routed += len(solution.paths)
    assert routed > 2000
