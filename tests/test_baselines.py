
import pytest

from greenroute import (
    Flow,
    Workload,
    compute_metrics,
    route_mrg,
    route_mrsp,
    route_srg,
    route_srsp,
)
from greenroute.workload import generate_workload

from oracle_helpers import all_simple_paths

TOL = 1e-9


def _rack_fixture(dims=2):
    """Three flows through one rack that saturate dimension 2 while dimension 1 stays slack."""
    demand = (0.01, 0.5) if dims == 2 else (0.01,) + (0.5,) * (dims - 1)
    flows = tuple(Flow(i, 0, 1, demand) for i in range(3))
    return Workload(flows, dims, z=4)


def test_srsp_congests_on_unwatched_dimension(tree4):
    sol = route_srsp(tree4, _rack_fixture(), seed=0)
    assert len(sol.paths) == 3
    m = compute_metrics(tree4, sol)
    assert m.congested >= 1
    assert sol.load[16][1] == pytest.approx(1.5, abs=TOL)


def test_srg_congests_on_unwatched_dimension(tree4):
    sol = route_srg(tree4, _rack_fixture(), seed=0)
    m = compute_metrics(tree4, sol)
    assert m.congested >= 1


def test_mrsp_blocks_instead_of_congesting(tree4):
    sol = route_mrsp(tree4, _rack_fixture(), seed=0)
    assert len(sol.paths) == 2 and len(sol.unrouted) == 1
    assert compute_metrics(tree4, sol).congested == 0


def test_mrg_blocks_instead_of_congesting(tree4):
    sol = route_mrg(tree4, _rack_fixture(), seed=0)
    assert compute_metrics(tree4, sol).congested == 0


def test_mrsp_never_congests_fuzz(tree4):
    for seed in range(15):
        w = generate_workload(tree4, 40, 3, 0.15, 0.15, seed=seed)
        sol = route_mrsp(tree4, w, seed=seed)
        assert compute_metrics(tree4, sol).congested == 0
        for v in tree4.processor_ids:
            assert all(c <= 1 + TOL for c in sol.load[v])


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
                shortest = min(len(p) for p in all_simple_paths(topology, flow.src, flow.dst))
                assert len(path) == shortest


def test_paths_spread_across_parallel_routes(tree4):
    # ECMP-style sampling: many same-rack-pair inter-pod flows should not
    # all pick one core (probability (1/4)^19 under uniform draws)
    flows = tuple(Flow(i, 0, 4, (0.001,)) for i in range(20))
    sol = route_srsp(tree4, Workload(flows, 1, z=4), seed=2)
    cores = {p[3] for p in sol.paths.values()}
    assert len(cores) > 1


def test_mrsp_blocks_more_than_srsp_under_heavy_load(tree8):
    # watching all dimensions trips the feasibility check earlier
    srsp_blocked = mrsp_blocked = 0
    for seed in range(20):
        w = generate_workload(tree8, 50, 3, 0.25, 0.15, seed=seed)
        srsp_blocked += len(route_srsp(tree8, w, seed).unrouted)
        mrsp_blocked += len(route_mrsp(tree8, w, seed).unrouted)
    assert mrsp_blocked > srsp_blocked


def test_blocked_sets_deterministic_per_seed(tree4):
    w = generate_workload(tree4, 60, 2, 0.3, 0.2, seed=4)
    first = route_mrsp(tree4, w, seed=9)
    second = route_mrsp(tree4, w, seed=9)
    assert first.unrouted == second.unrouted
    assert first == second
    assert route_srsp(tree4, w, seed=9) == route_srsp(tree4, w, seed=9)


@pytest.mark.parametrize("router", (route_srsp, route_mrsp, route_mrg, route_srg))
def test_routers_reject_unknown_endpoints(tree4, router):
    # -1 must not wrap around to the last node as a negative index
    for bad in (-1, len(tree4)):
        for src, dst in ((bad, 0), (0, bad)):
            w = Workload((Flow(0, src, dst, (0.1,)),), 1, z=4)
            with pytest.raises(KeyError, match="unknown node id"):
                router(tree4, w, seed=0)
