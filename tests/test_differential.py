"""Differential tests: the fast routing paths against frozen slow references.

The greedy router (MRG and SRG), Dijkstra and the hop-minimal search must
reproduce the earlier implementations kept in ``oracle_helpers`` exactly:
same paths, same unrouted set, same loads, on light loads (most flows ride
active nodes) and near saturation (flows go unrouted). The vector bin
packer must return the frozen full-scan packer's result bit for bit, and
HGR's one-bin shortcut must give the layer count the packer would.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenroute import (
    Flow,
    Node,
    NodeKind,
    ResidualState,
    Topology,
    Workload,
    build_fat_tree,
    core_group_of_flow,
    dimension_weights,
    generate_workload,
    online_arrival,
    online_departure,
    route_hgr,
    route_mrg,
    route_srg,
    shortest_path,
    vbp_greedy,
)
from greenroute.baselines import _sample_shortest
from greenroute.hgr import _layer_count

from oracle_helpers import (
    reference_hop_shortest_lex,
    reference_online_arrival,
    reference_route_greedy,
    reference_sample_shortest,
    reference_shortest_path,
    reference_vbp_greedy,
)

# (flows, mean, std) per arity: light, then near saturation
LOADS = {
    4: ((30, 0.02, 0.02), (40, 0.25, 0.15)),
    6: ((60, 0.02, 0.02), (60, 0.25, 0.15)),
    8: ((100, 0.02, 0.02), (80, 0.3, 0.15)),
}


@pytest.mark.parametrize("z", sorted(LOADS))
@pytest.mark.parametrize("dims", (1, 2, 5))
@pytest.mark.parametrize("load", ("light", "saturated"))
def test_greedy_router_matches_reference(z, dims, load):
    topology = build_fat_tree(z)
    flows, mean, std = LOADS[z][load == "saturated"]
    unrouted = 0
    for trial in range(3):
        seed = 1000 * z + 100 * dims + trial
        workload = generate_workload(topology, flows, dims, mean, std, seed=seed)
        for router, view in ((route_mrg, tuple(range(dims))), (route_srg, (0,))):
            solution = router(topology, workload, seed + 1)
            paths, ref_unrouted, ref_load = reference_route_greedy(topology, workload, seed + 1, view)
            assert solution.paths == paths
            assert solution.unrouted == ref_unrouted
            assert solution.load == ref_load
            unrouted += len(ref_unrouted)
    if load == "saturated":
        assert unrouted > 0  # the instances really reach capacity


def test_greedy_router_matches_reference_on_arbitrary_graphs():
    # Hosts of degree >= 2 can be interior nodes here, and processors can be
    # endpoints: cases a fat-tree never produces.
    rng = random.Random(17)
    for trial in range(150):
        n = rng.randint(4, 12)
        kinds = [NodeKind.HOST if rng.random() < 0.4 else NodeKind.EDGE for _ in range(n)]
        nodes = [Node(i, kind, None, i) for i, kind in enumerate(kinds)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        topology = Topology(nodes, edges)
        dims = rng.randint(1, 3)
        flows = []
        for fid in range(rng.randint(1, 25)):
            src, dst = rng.sample(range(n), 2)
            flows.append(Flow(fid, src, dst, tuple(rng.uniform(0.05, 0.6) for _ in range(dims))))
        workload = Workload(tuple(flows), dims)
        for router, view in ((route_mrg, tuple(range(dims))), (route_srg, (0,))):
            solution = router(topology, workload, trial)
            paths, ref_unrouted, ref_load = reference_route_greedy(topology, workload, trial, view)
            assert (solution.paths, solution.unrouted, solution.load) == (paths, ref_unrouted, ref_load)


@pytest.mark.parametrize("z, dims", ((4, 1), (4, 3), (8, 2), (8, 5)))
def test_online_arrivals_match_reference(z, dims):
    topology = build_fat_tree(z)
    workload = generate_workload(topology, 300, dims, 0.08, 0.08, seed=z * 10 + dims)
    rng = random.Random(dims)
    state = ResidualState.fresh(topology, dims)
    ref_state = ResidualState.fresh(topology, dims)
    live = []
    rejected = 0
    for flow in workload.flows:
        if len(live) >= 60:
            gone, gone_path = live.pop(rng.randrange(len(live)))
            online_departure(state, topology, gone, gone_path)
            online_departure(ref_state, topology, gone, gone_path)
        path = online_arrival(state, topology, flow)
        assert path == reference_online_arrival(ref_state, topology, flow)
        assert state.residual == ref_state.residual and state.active == ref_state.active
        if path is None:
            rejected += 1
        else:
            live.append((flow, path))
    assert rejected > 0  # the stream reaches capacity, so the fallback branch runs too


def _graph_with_leaves(rng):
    """Random core graph plus pendant (degree-1) nodes hung off random core nodes."""
    core = rng.randint(3, 10)
    leaves = rng.randint(1, 5)
    n = core + leaves
    nodes = [Node(i, NodeKind.EDGE, None, i) for i in range(n)]
    edges = [(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.45]
    edges += [(core + k, rng.randrange(core)) for k in range(leaves)]
    return Topology(nodes, edges)


def test_shortest_path_matches_reference():
    rng = random.Random(31)
    found = 0
    for _ in range(1500):
        topology = _graph_with_leaves(rng)
        n = len(topology)
        # degree-1 nodes are allowed interior nodes as often as any other
        allowed = {v for v in range(n) if rng.random() < 0.75}
        if rng.random() < 0.2:
            weights = None
        elif rng.random() < 0.5:
            weights = {e: rng.randint(0, 6) / 2 for e in topology.edges}  # many ties
        else:
            weights = {e: rng.random() for e in topology.edges}
        s, t = rng.sample(range(n), 2)
        expected = reference_shortest_path(topology, allowed, weights, s, t)
        assert shortest_path(topology, allowed, weights, s, t) == expected
        found += expected is not None
    assert found > 500


def test_sample_shortest_matches_both_references():
    # One search serves the seeded ECMP draw and the lexicographic detour:
    # the same seed must give the same path and consume the same draws, and
    # no seed must give the old lexicographic path.
    rng = random.Random(43)
    found = 0
    for _ in range(1500):
        topology = _graph_with_leaves(rng)
        n = len(topology)
        allowed = {v for v in range(n) if rng.random() < 0.75}
        s, t = rng.sample(range(n), 2)
        draws, ref_draws = random.Random(rng.random()), random.Random()
        ref_draws.setstate(draws.getstate())
        expected = reference_sample_shortest(topology, allowed, s, t, ref_draws)
        assert _sample_shortest(topology, allowed.__contains__, s, t, draws) == expected
        assert draws.getstate() == ref_draws.getstate()
        lex = _sample_shortest(topology, allowed.__contains__, s, t)
        assert lex == reference_hop_shortest_lex(topology, allowed, s, t)
        found += expected is not None
    assert found > 500


def _asking(allowed, asked):
    """``allowed.__contains__`` that logs every node it is asked about."""
    def enterable(v):
        asked.append(v)
        return v in allowed
    return enterable


def _assert_asked_once_and_never_a_leaf(topology, asked, s, t):
    assert len(asked) == len(set(asked))
    assert all(len(topology._adj[v]) > 1 for v in asked if v not in (s, t))


def test_sample_shortest_asks_each_node_once_and_never_a_leaf():
    rng = random.Random(47)
    for _ in range(1500):
        topology = _graph_with_leaves(rng)
        n = len(topology)
        allowed = {v for v in range(n) if rng.random() < 0.75}
        s, t = rng.sample(range(n), 2)
        for draws in (random.Random(rng.random()), None):
            asked = []
            _sample_shortest(topology, _asking(allowed, asked), s, t, draws)
            _assert_asked_once_and_never_a_leaf(topology, asked, s, t)


def test_sample_shortest_meets_in_the_middle_on_an_idle_z16_tree():
    topology = build_fat_tree(16)
    asked = []
    s, t = topology.host_ids[0], topology.host_ids[-1]  # in different pods
    path = _sample_shortest(topology, _asking(set(topology.processor_ids), asked), s, t, random.Random(5))
    assert len(path) == 7
    # a search from t alone asks about all 320 switches; the two balls meet
    # at the core layer after 96
    assert len(asked) <= 100


@pytest.mark.parametrize("z", (4, 6, 8))
def test_sample_shortest_matches_references_on_blocked_fat_trees(z):
    # Switches refuse entry at random, so hop-minimal paths stretch past a
    # fat-tree's 6 hops or vanish, and the two frontiers are often the same size.
    topology = build_fat_tree(z)
    rng = random.Random(53 + z)
    hops = []
    for _ in range(400):
        refused = rng.choice((0.2, 0.35, 0.5))
        allowed = {v for v in topology.processor_ids if rng.random() >= refused}
        s, t = rng.sample(range(len(topology)), 2)
        draws, ref_draws = random.Random(rng.random()), random.Random()
        ref_draws.setstate(draws.getstate())
        expected = reference_sample_shortest(topology, allowed, s, t, ref_draws)
        asked = []
        assert _sample_shortest(topology, _asking(allowed, asked), s, t, draws) == expected
        assert draws.getstate() == ref_draws.getstate()
        _assert_asked_once_and_never_a_leaf(topology, asked, s, t)
        lex = _sample_shortest(topology, allowed.__contains__, s, t)
        assert lex == reference_hop_shortest_lex(topology, allowed, s, t)
        hops.append(-1 if expected is None else len(expected) - 1)
    assert hops.count(-1) > 20
    assert sum(h >= 8 for h in hops) > 3


QUANTA = (0.1, 0.2, 0.25, 0.3, 0.5)


def _uniform_items(rng, n, dims):
    return [tuple(rng.uniform(0.001, 1.0) for _ in range(dims)) for _ in range(n)]


def _tied_items(rng, n, dims):
    return [tuple(rng.choice(QUANTA) for _ in range(dims)) for _ in range(n)]


def _duplicated_items(rng, n, dims):
    base = _uniform_items(rng, rng.randint(1, 4), dims)
    return [rng.choice(base) for _ in range(n)]


def _exact_fill_items(rng, n, dims):
    # groups of eighths that sum to exactly 1.0 in every dimension, so a bin
    # residual can equal an item and score 0
    items = []
    while len(items) < n:
        size = rng.randint(1, 4)
        columns = []
        for _ in range(dims):
            cuts = sorted(rng.sample(range(1, 8), size - 1))
            columns.append([(b - a) / 8 for a, b in zip([0] + cuts, cuts + [8])])
        items.extend(zip(*columns))
    rng.shuffle(items)
    return items[:n]


def _assert_packs_like_reference(items):
    assert abs(sum(dimension_weights(items)) - 1.0) < 1e-12  # the pruning bound rests on it
    result = vbp_greedy(items)
    expected = reference_vbp_greedy(items)
    assert result.bin_count == expected.bin_count
    assert result.assignment == expected.assignment
    assert result.bin_residuals == expected.bin_residuals  # float equality: bit for bit


@pytest.mark.parametrize("family", (_uniform_items, _tied_items, _duplicated_items, _exact_fill_items))
def test_vbp_greedy_matches_reference(family):
    rng = random.Random(family.__name__)
    for _ in range(800):
        n = int(150 ** rng.random())  # log-uniform over 1..150: mostly small, some large
        _assert_packs_like_reference(family(rng, n, rng.randint(1, 6)))


def test_vbp_greedy_matches_reference_on_hgr_layers():
    topology = build_fat_tree(16)
    workload = generate_workload(topology, 1440, 5, seed=77)
    layers = [[] for _ in range(16 + 8)]
    for flow in workload.flows:
        src_pod, dst_pod = topology.pod_of_host(flow.src), topology.pod_of_host(flow.dst)
        if topology.edge_of_host(flow.src) == topology.edge_of_host(flow.dst):
            continue
        layers[src_pod].append(flow.demand)
        if dst_pod != src_pod:
            layers[dst_pod].append(flow.demand)
            layers[16 + core_group_of_flow(flow, topology)].append(flow.demand)
    for items in layers:
        assert len(items) > 30
        _assert_packs_like_reference(items)


@given(st.integers(1, 6).flatmap(lambda dims: st.lists(
    st.tuples(*[st.one_of(st.sampled_from(QUANTA), st.floats(0.0, 1.0, exclude_min=True))] * dims),
    min_size=1, max_size=40)))
def test_vbp_greedy_matches_reference_property(items):
    _assert_packs_like_reference(items)


def _packer_count(items, half):
    return min(vbp_greedy(items).bin_count, half) if items else 0


def test_layer_count_matches_packer_near_unit_sums():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 12)
        dims = rng.randint(1, 4)
        items = [[rng.uniform(0.001, 1.0) for _ in range(dims)] for _ in range(n)]
        # scale each dimension so its sum lands on 1.0 or within 1e-12 of it
        for k in range(dims):
            target = 1.0 + rng.choice((-1e-12, -1e-13, 0.0, 0.0, 1e-13, 1e-12, 0.5, -0.5))
            total = sum(item[k] for item in items)
            for item in items:
                item[k] = min(item[k] * target / total, 1.0)
        items = [tuple(item) for item in items]
        half = rng.choice((1, 2, 4))
        assert _layer_count(items, half) == _packer_count(items, half)


def test_layer_count_passes_bad_items_to_the_packer():
    assert _layer_count([], 2) == 0
    with pytest.raises(ValueError):
        _layer_count([(1.5,)], 2)


@pytest.mark.parametrize("z", (4, 8))
def test_hgr_layer_counts_match_packer(z):
    topology = build_fat_tree(z)
    half = z // 2
    for seed in range(6):
        mean = (0.02, 0.1, 0.3)[seed % 3]
        workload = generate_workload(topology, 20 * z, 3, mean, mean, seed=seed)
        pod_items = [[] for _ in range(z)]
        group_items = [[] for _ in range(half)]
        for flow in workload.flows:
            if topology.edge_of_host(flow.src) == topology.edge_of_host(flow.dst):
                continue
            src_pod, dst_pod = topology.pod_of_host(flow.src), topology.pod_of_host(flow.dst)
            pod_items[src_pod].append(flow.demand)
            if dst_pod != src_pod:
                pod_items[dst_pod].append(flow.demand)
                group_items[core_group_of_flow(flow, topology)].append(flow.demand)
        _, counts = route_hgr(topology, workload)
        assert counts.agg_per_pod == tuple(_packer_count(items, half) for items in pod_items)
        assert counts.core_per_group == tuple(_packer_count(items, half) for items in group_items)


def test_hgr_rejects_non_host_endpoints(tree4):
    processor = tree4.processor_ids[0]
    workload = Workload((Flow(0, 0, processor, (0.1,)),), 1)
    with pytest.raises(ValueError, match="not a host"):
        route_hgr(tree4, workload)
