import random
from bisect import bisect
from itertools import accumulate
from math import floor

import pytest

from greenroute import (
    Flow,
    Node,
    NodeKind,
    ResidualState,
    Topology,
    Workload,
    build_fat_tree,
    compute_metrics,
    online_arrival,
    oracle_min_active,
    route_mrg,
    route_mrsp,
    route_srg,
    route_srsp,
    shortest_path,
)
from greenroute.evaluation import ROUTERS
from greenroute.workload import generate_workload


def _rack_fixture(dims=2):
    """Three flows through one rack that saturate dimension 2 while dimension 1 stays slack."""
    demand = (0.01, 0.5) if dims == 2 else (0.01,) + (0.5,) * (dims - 1)
    flows = tuple(Flow(i, 0, 1, demand) for i in range(3))
    return Workload(flows, dims, z=4)


def test_srsp_congests_on_unwatched_dimension(tree4):
    workload = _rack_fixture()
    sol = route_srsp(tree4, workload, seed=0)
    assert len(sol.paths) == 3
    m = compute_metrics(tree4, sol)
    assert m.congested >= 1
    d1 = workload.flows[0].demand[0]
    assert sol.load[16] == (d1 + d1 + d1, 0.5 + 0.5 + 0.5)  # every dimension summed, bit for bit


def test_srg_congests_on_unwatched_dimension(tree4):
    workload = _rack_fixture()
    sol = route_srg(tree4, workload, seed=0)
    m = compute_metrics(tree4, sol)
    assert m.congested >= 1
    d1 = workload.flows[0].demand[0]
    assert sol.load[16] == (d1 + d1 + d1, 0.5 + 0.5 + 0.5)


def test_mrsp_blocks_instead_of_congesting(tree4):
    sol = route_mrsp(tree4, _rack_fixture(), seed=0)
    assert len(sol.paths) == 2 and len(sol.unrouted) == 1
    assert compute_metrics(tree4, sol).congested == 0


def test_mrg_blocks_instead_of_congesting(tree4):
    sol = route_mrg(tree4, _rack_fixture(), seed=0)
    assert compute_metrics(tree4, sol).congested == 0


def test_single_resource_algorithms_coincide_on_one_dimension(tree4):
    for seed in range(5):
        w = generate_workload(tree4, 25, 1, 0.1, 0.1, seed=seed)
        assert route_srsp(tree4, w, seed=seed) == route_mrsp(tree4, w, seed=seed)
        assert route_srg(tree4, w, seed=seed) == route_mrg(tree4, w, seed=seed)


def test_empty_workload(tree4):
    empty = Workload((), 3, z=4)
    for router in (route_srsp, route_srg, route_mrsp, route_mrg):
        sol = router(tree4, empty, 0)
        assert sol.paths == {} and sol.unrouted == frozenset() and sol.active == frozenset()
        assert compute_metrics(tree4, sol).saving_ratio == 1.0


def test_single_flow_same_path_srsp_mrsp(tree4):
    for seed in range(10):
        w = generate_workload(tree4, 1, 4, seed=seed)
        assert route_srsp(tree4, w, seed=seed).paths == route_mrsp(tree4, w, seed=seed).paths


def test_all_four_agree_on_single_flow_one_dimension_metrics(tree4):
    # any hop-minimal path has the same processor count, so metrics coincide
    for seed in range(10):
        w = generate_workload(tree4, 1, 1, seed=seed)
        outcomes = [
            compute_metrics(tree4, router(tree4, w, seed))
            for router in (route_mrg, route_srg, route_srsp, route_mrsp)
        ]
        assert len(set(outcomes)) == 1


@pytest.mark.parametrize("z_fixture", ["tree2", "tree4"])
def test_shortest_path_baselines_are_hop_minimal(z_fixture, request):
    # light load: capability never binds, so paths must be globally hop-minimal
    topology = request.getfixturevalue(z_fixture)
    for seed in range(8):
        w = generate_workload(topology, 10, 2, 0.01, 0.0, seed=seed)
        for router in (route_srsp, route_mrsp):
            sol = router(topology, w, seed)
            for fid, path in sol.paths.items():
                flow = w.flows[fid]
                shortest = len(shortest_path(topology, topology.processor_ids, None, flow.src, flow.dst))
                assert len(path) == shortest


def test_paths_spread_across_parallel_routes(tree4):
    # ECMP-style sampling: many same-rack-pair inter-pod flows should not
    # all pick one core (probability (1/4)^19 under uniform draws)
    flows = tuple(Flow(i, 0, 4, (0.001,)) for i in range(20))
    sol = route_srsp(tree4, Workload(flows, 1, z=4), seed=2)
    cores = {p[3] for p in sol.paths.values()}
    assert len(cores) > 1


def test_random_choices_is_floor_and_bisect():
    # The fat-tree drawer spells out Random.choices' arithmetic (CPython 3.9
    # and later) instead of calling it, so that its draws stay the hop
    # search's. If a Python changes choices, this fails by name, not only
    # through the golden hashes.
    rng = random.Random(67)
    for n in range(1, 9):
        seq = [f"option {i}" for i in range(n)]
        for trial in range(25):
            weights = [n] * n if trial == 0 else [rng.randint(1, 9) for _ in range(n)]
            cum = list(accumulate(weights))
            called, spelled = random.Random(rng.random()), random.Random()
            spelled.setstate(called.getstate())
            assert called.choices(seq)[0] == seq[floor(spelled.random() * len(seq))]
            weighted = seq[bisect(cum, spelled.random() * float(cum[-1]), 0, n - 1)]
            assert called.choices(seq, weights)[0] == weighted
            assert called.getstate() == spelled.getstate()


def test_mrsp_blocks_more_than_srsp_under_heavy_load(tree8):
    # watching all dimensions trips the feasibility check earlier
    srsp_blocked = mrsp_blocked = 0
    for seed in range(20):
        w = generate_workload(tree8, 50, 3, 0.25, 0.15, seed=seed)
        srsp_blocked += len(route_srsp(tree8, w, seed).unrouted)
        mrsp_blocked += len(route_mrsp(tree8, w, seed).unrouted)
    assert mrsp_blocked > srsp_blocked


def _arrive_each(topology, workload, seed=0):
    state = ResidualState.fresh(topology, workload.dims)
    for flow in workload.flows:
        online_arrival(state, topology, flow)


def _oracle(topology, workload, seed=0):
    return oracle_min_active(topology, workload)


ENTRY_POINTS = {**{router.__name__: router for router in ROUTERS.values()},
                "online_arrival": _arrive_each, "oracle_min_active": _oracle}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_routers_reject_unknown_endpoints(entry):
    # One endpoint rule for every router, the online path and the oracle:
    # both endpoints are hosts. The first bad flow in list order is reported,
    # its src before its dst: KeyError for an id that is no node (-1 must not
    # wrap around to the last node), ValueError for a switch. A z=2 fat-tree
    # stays within the oracle's size limit.
    tree = build_fat_tree(2)
    edge, unknown = tree._host_edge[0], len(tree)
    cases = (((-1, 1), KeyError, "unknown node id -1"),
             ((0, unknown), KeyError, f"unknown node id {unknown}"),
             ((edge, 1), ValueError, f"node {edge} is not a host"),
             ((0, edge), ValueError, f"node {edge} is not a host"),
             ((edge, unknown), ValueError, f"node {edge} is not a host"),
             ((unknown, edge), KeyError, f"unknown node id {unknown}"))
    for (src, dst), error, message in cases:
        for before in (0, 2):
            ends = [(0, 1)] * before + [(src, dst), (1, -1), (edge, 0)]
            workload = Workload(tuple(Flow(i, s, t, (0.1,)) for i, (s, t) in enumerate(ends)), 1)
            with pytest.raises(error) as raised:
                entry(tree, workload, 0)
            assert type(raised.value) is error and raised.value.args == (message,)


def test_no_router_relays_through_a_host():
    # On the path 0-3-2-4-1 the only route from host 0 to host 1 crosses host 2.
    kinds = (NodeKind.HOST,) * 3 + (NodeKind.EDGE,) * 2
    topology = Topology([Node(v, kind, None, v) for v, kind in enumerate(kinds)],
                        [(0, 3), (3, 2), (2, 4), (4, 1)])
    workload = Workload((Flow(0, 0, 1, (0.1,)),), 1)
    for router in (route_mrg, route_srg, route_srsp, route_mrsp):
        solution = router(topology, workload, 0)
        assert (solution.paths, solution.unrouted, solution.active) == ({}, {0}, set())
    state = ResidualState.fresh(topology, 1)
    assert online_arrival(state, topology, workload.flows[0]) is None
    assert (state.committed, state.active) == ({}, set())
    assert oracle_min_active(topology, workload) is None
