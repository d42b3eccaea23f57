"""Differential tests: the fast routing paths against slow references.

The greedy router (MRG and SRG), the hop search's seeded draw, its
fat-tree draw and the shortest-path routers (SRSP and MRSP) must reproduce
the earlier implementations kept in ``oracle_helpers`` exactly: an equal
``RoutingSolution`` (paths, active set, unrouted set, loads), on light
loads (most flows ride active nodes) and near saturation (flows go
unrouted). The greedy step must equal ``shortest_path`` under
``assign_node_weights``, as its docstring says, and the unseeded hop
search ``shortest_path`` with unit weights. HGR's layer counts must be
the layers' L1 bounds, and HGR must route as its frozen copy does.
"""

import random

import pytest

from greenroute import (
    Flow,
    Node,
    NodeKind,
    ResidualState,
    Topology,
    Workload,
    build_fat_tree,
    generate_workload,
    is_connected,
    online_arrival,
    online_departure,
    route_hgr,
    route_mrg,
    route_mrsp,
    route_srg,
    route_srsp,
    shortest_path,
)
from greenroute.baselines import _tree_drawer
from greenroute.mrg import _greedy_path, _sample_shortest
from greenroute.workload import on_grid

from oracle_helpers import (
    float_room,
    graph_with_leaves,
    layer_items,
    reference_l1_count,
    reference_greedy_paths,
    reference_route_hgr,
    reference_route_shortest,
    reference_online_arrival,
    reference_online_departure,
    reference_route_greedy,
    reference_sample_shortest,
    set_loads,
    state_with,
    with_host_ends,
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
        for router, view in ((route_mrg, dims), (route_srg, 1)):
            solution = router(topology, workload, seed + 1)
            assert solution == reference_route_greedy(topology, workload, seed + 1, view)
            unrouted += len(solution.unrouted)
    if load == "saturated":
        assert unrouted > 0  # the instances really reach capacity


def test_greedy_router_matches_reference_on_arbitrary_graphs():
    # Hosts of degree >= 2, which must never relay a flow, adjacent hosts and
    # hosts no path joins: cases a fat-tree never produces.
    rng = random.Random(17)
    seen = dict.fromkeys(("host of degree >= 2", "adjacent", "unrouted"), 0)
    for trial in range(150):
        n = rng.randint(4, 12)
        two = rng.sample(range(n), 2)  # at least two hosts
        kinds = [NodeKind.HOST if i in two or rng.random() < 0.4 else NodeKind.EDGE for i in range(n)]
        nodes = [Node(i, kind, None, i) for i, kind in enumerate(kinds)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        topology = Topology(nodes, edges)
        dims = rng.randint(1, 3)
        flows = []
        for fid in range(rng.randint(1, 25)):
            src, dst = rng.sample(topology.host_ids, 2)
            flows.append(Flow(fid, src, dst, tuple(rng.uniform(0.05, 0.6) for _ in range(dims))))
        workload = Workload(tuple(flows), dims)
        for router, view in ((route_mrg, dims), (route_srg, 1)):
            solution = router(topology, workload, trial)
            assert solution == reference_route_greedy(topology, workload, trial, view)
            seen["unrouted"] += len(solution.unrouted)
        seen["host of degree >= 2"] += any(len(topology._adj[h]) > 1 for h in topology.host_ids)
        seen["adjacent"] += sum(flow.dst in topology._adj[flow.src] for flow in flows)
    assert min(seen.values()) > 50, seen


def test_greedy_router_matches_reference_with_unroutable_flows(tree4):
    # Flows with a demand component above 1 fit no processor, so a random pick
    # of one wakes nothing and the scan must resume, not restart. Seeds where
    # that pick comes first, on the idle network, are kept in.
    hosts = tree4.host_ids
    demands = [(0.3, 0.2), (1.5, 0.1), (0.2, 0.4), (0.1, 0.1), (0.4, 1.2), (0.25, 0.3),
               (0.2, 0.2), (0.1, 2.0), (0.35, 0.15), (0.3, 0.3)]
    flows = tuple(Flow(fid, hosts[fid], hosts[(5 * fid + 3) % len(hosts)], demand)
                  for fid, demand in enumerate(demands))
    workload = Workload(flows, 2, z=4)
    never = {fid for fid, demand in enumerate(demands) if max(demand) > 1}
    first_pick_unroutable = 0
    for seed in range(40):
        first_pick_unroutable += random.Random(seed).randrange(len(flows)) in never
        for router, view in ((route_mrg, 2), (route_srg, 1)):
            solution = router(tree4, workload, seed)
            assert solution == reference_route_greedy(tree4, workload, seed, view)
            assert solution.unrouted >= {fid for fid in never if max(demands[fid][:view]) > 1}
    assert first_pick_unroutable > 5


def _assert_shortest_routers_match_reference(topology, workload, seed):
    """SRSP and MRSP route as the frozen draw does; returns their unrouted counts."""
    unrouted = []
    for router, dims in ((route_srsp, 1), (route_mrsp, workload.dims)):
        solution = router(topology, workload, seed)
        assert solution == reference_route_shortest(topology, workload, seed, dims)
        unrouted.append(len(solution.unrouted))
    return unrouted


@pytest.mark.parametrize("z, flows, mean, trials", ((4, 40, 0.15, 6), (8, 120, 0.02, 2), (16, 1440, 0.02, 1)))
def test_shortest_path_routers_match_reference(z, flows, mean, trials):
    # On a fat-tree both draw through _tree_drawer: heavy z=4 loads leave flows
    # unrouted; z=16 at M=1440 is bulk-z16's size, near saturation.
    topology = build_fat_tree(z)
    unrouted = [0, 0]
    for trial in range(trials):
        seed = 100 * z + trial
        workload = generate_workload(topology, flows, 5, mean, mean, seed=seed)
        for i, n in enumerate(_assert_shortest_routers_match_reference(topology, workload, seed + 1)):
            unrouted[i] += n
    if z == 4:
        assert min(unrouted) > 0  # the instances really reach capacity


def test_shortest_path_routers_match_reference_on_arbitrary_graphs():
    # Graphs that are not fat-trees keep the hop search for every draw.
    rng = random.Random(61)
    unrouted = 0
    for trial in range(100):
        topology, _, _ = with_host_ends(graph_with_leaves(rng), rng, 0)
        dims = rng.randint(1, 3)
        flows = tuple(Flow(fid, *rng.sample(topology.host_ids, 2),
                           tuple(rng.uniform(0.05, 0.6) for _ in range(dims)))
                      for fid in range(rng.randint(1, 20)))
        unrouted += sum(_assert_shortest_routers_match_reference(topology, Workload(flows, dims), trial))
    assert unrouted > 50


def _distinct_pair_workload(topology, flows, dims, mean, std, seed):
    """A generated workload whose flows each get their own (src, dst) pair."""
    hosts = topology.host_ids
    pairs = random.Random(seed).sample([(s, t) for s in hosts for t in hosts if s != t], flows)
    base = generate_workload(topology, flows, dims, mean, std, seed=seed)
    return Workload(tuple(Flow(f.id, s, t, f.demand) for f, (s, t) in zip(base.flows, pairs)), dims)


@pytest.mark.parametrize("z", (4, 8))
def test_pick_scan_tests_a_flow_once_until_a_processor_wakes(monkeypatch, z):
    # Loads and the active set only grow in batch mode, so a flow that failed
    # the pick test fails it again until a processor wakes: the scan must not
    # search any flow (its endpoint pair) twice at the same active-set size.
    size = [0]  # len(active) of the state being routed
    searched: list[tuple[int, tuple[int, int]]] = []
    commit = ResidualState.commit

    def recording_search(topology, enterable, s, t):
        searched.append((size[0], (s, t)))
        return _sample_shortest(topology, enterable, s, t)

    def recording_commit(state, *args):
        result = commit(state, *args)
        size[0] = len(state.active)
        return result

    monkeypatch.setattr("greenroute.mrg._sample_shortest", recording_search)
    monkeypatch.setattr(ResidualState, "commit", recording_commit)
    topology = build_fat_tree(z)
    flows, mean, std = LOADS[z][1]
    retested = unrouted = 0
    for trial in range(3):
        seed = 7000 + 10 * z + trial
        workload = _distinct_pair_workload(topology, flows, 3, mean, std, seed)
        for router, view in ((route_mrg, 3), (route_srg, 1)):
            size[0] = 0
            searched.clear()
            solution = router(topology, workload, seed)
            assert solution == reference_route_greedy(topology, workload, seed, view)
            assert len(set(searched)) == len(searched)
            retested += len(searched) - len({pair for _, pair in searched})
            unrouted += len(solution.unrouted)
    assert retested > 0 and unrouted > 0  # flows are retested after wakes, and capacity is reached


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
            reference_online_departure(ref_state, gone, gone_path)
        path = online_arrival(state, topology, flow)
        assert path == reference_online_arrival(ref_state, topology, flow)
        assert state == ref_state
        if path is None:
            rejected += 1
        else:
            live.append((flow, path))
    assert rejected > 0  # the stream reaches capacity, so the fallback branch runs too


def _step_demand(rng, dims):
    """A demand with equal components half the time, drawn from few levels."""
    levels = (0.05, 0.1, 0.125, 0.25) if rng.random() < 0.5 else (0.1,)
    return on_grid(rng.choice(levels) if rng.random() < 0.8 else rng.uniform(0.01, 0.3) for _ in range(dims))


def _assert_step_matches_reference(state, topology, src, dst, demand):
    # the node sets the routers pass: the active capable nodes, then every capable node
    room = state.room(demand)
    paths = [_greedy_path(state, topology, room, src, dst, demand, within) for within in (state.active, None)]
    assert paths == reference_greedy_paths(state, topology, src, dst, demand, room)
    return paths


@pytest.mark.parametrize("z", (4, 6, 8))
@pytest.mark.parametrize("dims", (1, 2, 3, 5, 6))
def test_greedy_step_matches_reference_mid_run(z, dims):
    # Random commits build states in between a fresh network and a full one;
    # demands drawn from few levels commit equal loads, which tie the
    # inversion counts, and ties between paths of equal cost are the norm.
    topology = build_fat_tree(z)
    rng = random.Random(100 * z + dims)
    state = ResidualState.fresh(topology, dims)
    seen = dict.fromkeys(("active path", "full path only", "no path"), 0)
    for fid in range(60 * z):
        src, dst = rng.sample(topology.host_ids, 2)
        demand = _step_demand(rng, dims)
        on_active, on_full = _assert_step_matches_reference(state, topology, src, dst, demand)
        seen["active path" if on_active else "full path only" if on_full else "no path"] += 1
        if on_full is not None and rng.random() < 0.8:
            state.commit(fid, on_active or on_full, state.pack(demand))
    assert min(seen.values()) > 5, seen


def test_greedy_step_matches_reference_on_arbitrary_graphs():
    # Hosts of degree >= 2 besides the endpoints, which must never relay,
    # adjacent endpoints, a leaf whose only neighbour is the other end and
    # unreachable pairs.
    rng = random.Random(61)
    seen = dict.fromkeys(("host of degree >= 2", "adjacent", "only neighbour", "found", "none"), 0)
    for _ in range(2000):
        topology, s, t = with_host_ends(graph_with_leaves(rng), rng, 0.25)
        dims = rng.randint(1, 4)
        load = {v: [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(dims)]
                for v in topology.processor_ids}
        state = state_with(load, {v for v in load if rng.random() < 0.6}, dims)
        paths = _assert_step_matches_reference(state, topology, s, t, _step_demand(rng, dims))
        seen["host of degree >= 2"] += any(len(topology._adj[h]) > 1 for h in topology.host_set - {s, t})
        seen["adjacent"] += t in topology._adj[s]
        seen["only neighbour"] += topology._adj[t] == (s,) or topology._adj[s] == (t,)
        seen["found" if any(paths) else "none"] += 1
    assert min(seen.values()) > 150, seen


def test_sample_shortest_matches_both_references():
    # One search serves the seeded ECMP draw and the lexicographic detour:
    # the same seed must give the same path and consume the same draws, and
    # no seed must give the old lexicographic path.
    rng = random.Random(43)
    found = 0
    for _ in range(1500):
        topology, s, t = with_host_ends(graph_with_leaves(rng), rng, 0)
        allowed = {v for v in topology.processor_ids if rng.random() < 0.75}
        draws, ref_draws = random.Random(rng.random()), random.Random()
        ref_draws.setstate(draws.getstate())
        expected = reference_sample_shortest(topology, allowed, s, t, ref_draws)
        assert _sample_shortest(topology, allowed.__contains__, s, t, draws) == expected
        assert draws.getstate() == ref_draws.getstate()
        lex = _sample_shortest(topology, allowed.__contains__, s, t)
        assert lex == shortest_path(topology, allowed, None, s, t)
        found += expected is not None
    assert found > 500


def _asking(allowed, asked):
    """``allowed.__contains__`` that logs every node it is asked about."""
    def enterable(v):
        asked.append(v)
        return v in allowed
    return enterable


def _assert_asked_once_and_never_a_leaf(topology, asked):
    """No node was asked twice, and none was a leaf or a host."""
    assert len(asked) == len(set(asked))
    assert all(len(topology._adj[v]) > 1 for v in asked)
    assert topology.host_set.isdisjoint(asked)


def test_sample_shortest_asks_each_node_once_and_never_a_leaf():
    rng = random.Random(47)
    for _ in range(1500):
        topology, s, t = with_host_ends(graph_with_leaves(rng), rng, 0)
        allowed = {v for v in topology.processor_ids if rng.random() < 0.75}
        for draws in (random.Random(rng.random()), None):
            asked = []
            _sample_shortest(topology, _asking(allowed, asked), s, t, draws)
            _assert_asked_once_and_never_a_leaf(topology, asked)


def test_sample_shortest_meets_in_the_middle_on_an_idle_z16_tree():
    topology = build_fat_tree(16)
    asked = []
    s, t = topology.host_ids[0], topology.host_ids[-1]  # in different pods
    path = _sample_shortest(topology, _asking(set(topology.processor_ids), asked), s, t, random.Random(5))
    assert len(path) == 7
    # a search from t alone asks about all 320 switches; the two balls meet
    # at the core layer after 96
    assert len(asked) <= 100


def _tree_branch(topology, allowed, s, t, path):
    """Which case of the :func:`_tree_drawer` draw a path came from.

    An inter-pod path is drawn in closed form when both pods' aggregation
    switches and every core fit, and position by position otherwise.
    """
    if not {topology._host_edge[s], topology._host_edge[t]} <= allowed:
        return "edge switch refused"
    if path is None:
        return "no path"
    if len(path) > 7:
        return "detour"
    if len(path) == 7:
        agg = topology._agg_ids
        every = {*agg[topology._host_pod[s]], *agg[topology._host_pod[t]], *topology._core_ids}
        return "inter-pod, closed form" if every <= allowed else "inter-pod, position by position"
    return {3: "same edge switch", 5: "intra-pod"}[len(path)]


@pytest.mark.parametrize("z", (4, 6, 8))
def test_sample_shortest_matches_references_on_blocked_fat_trees(z):
    # Switches refuse entry at random, so hop-minimal paths stretch past a
    # fat-tree's 6 hops or vanish, and the two frontiers are often the same size.
    # The fat-tree draw, on a state whose refused switches are full, must
    # give the same path and leave its draws in the same state.
    topology = build_fat_tree(z)
    rng = random.Random(53 + z)
    hops = []
    branches = dict.fromkeys(("same edge switch", "intra-pod", "inter-pod, closed form",
                              "inter-pod, position by position", "edge switch refused", "detour",
                              "no path"), 0)
    for trial in range(410):
        # the last 10 refuse nothing, so an inter-pod draw takes the closed form even at z=8
        refused = rng.choice((0.2, 0.35, 0.5)) if trial < 400 else 0.0
        s, t = rng.sample(topology.host_ids, 2)
        allowed = {v for v in topology.processor_ids if rng.random() >= refused}
        if trial % 10:  # else an edge switch may be refused, as most pairs' would be
            allowed |= {topology._host_edge[s], topology._host_edge[t]}
        draws, ref_draws, tree_draws = random.Random(rng.random()), random.Random(), random.Random()
        ref_draws.setstate(draws.getstate())
        tree_draws.setstate(draws.getstate())
        expected = reference_sample_shortest(topology, allowed, s, t, ref_draws)
        asked = []
        assert _sample_shortest(topology, _asking(allowed, asked), s, t, draws) == expected
        assert draws.getstate() == ref_draws.getstate()
        _assert_asked_once_and_never_a_leaf(topology, asked)
        state = ResidualState.fresh(topology, 1)
        set_loads(state, {v: [1.0] for v in topology.processor_ids if v not in allowed})
        assert _tree_drawer(state, topology)(state.room((0.5,)), s, t, tree_draws) == expected
        assert tree_draws.getstate() == ref_draws.getstate()
        lex = _sample_shortest(topology, allowed.__contains__, s, t)
        assert lex == shortest_path(topology, allowed, None, s, t)
        hops.append(-1 if expected is None else len(expected) - 1)
        branches[_tree_branch(topology, allowed, s, t, expected)] += 1
    assert hops.count(-1) > 20
    assert sum(h >= 8 for h in hops) > 3
    assert min(branches.values()) > 0, branches


def _blocks_tested(topology, blocks, allowed, s, t):
    """The blocks the :func:`_tree_drawer` draw tests for an s-t flow; ``allowed`` holds the processors it fits."""
    e, f = topology._host_edge[s], topology._host_edge[t]
    if e == f or not {e, f} <= allowed:
        return []
    pod_s, pod_t = topology._host_pod[s], topology._host_pod[t]
    if pod_s == pod_t:
        return [blocks[pod_s]]
    z = topology.z
    groups = [blocks[z + g] for g, (a, b) in enumerate(zip(blocks[pod_s], blocks[pod_t]))
              if a in allowed and b in allowed]
    return [blocks[pod_s], blocks[pod_t], *groups]


@pytest.mark.parametrize("z, flows, mean", ((4, 60, 0.1), (8, 240, 0.1), (16, 160, 0.15)))
def test_tree_drawer_takes_blocks_whole_until_they_fill(z, flows, mean):
    # One drawer serves a whole run, as in SRSP and MRSP, and each path it
    # returns is committed. Every draw must be the frozen hop search's over
    # the capable switches, with the same random draws. A block (a pod's
    # aggregation switches, a core group) whose members all fit the flow is
    # taken whole; the drawer asks the capability rule about the members of
    # every other block it tests, and of no block taken whole. Early in a
    # run the whole core layer fits an inter-pod flow, later it does not.
    # When both pods' blocks and the core layer are whole, the draw is closed
    # form, counted apart.
    topology = build_fat_tree(z)
    cores = topology._core_ids
    blocks = [*topology._agg_ids, *topology._core_groups]
    seen = {"whole": 0, "switch by switch": 0, "core layer whole": 0, "core layer not whole": 0,
            "closed form": 0}
    turned = unrouted = 0
    for trial in range(3):
        workload = generate_workload(topology, flows, 3, mean, mean, seed=700 * z + trial)
        for dims in (1, 3):
            state = ResidualState.fresh(topology, workload.dims)
            capable = state.capable
            asked = []
            state.capable = lambda room, within: asked.append(tuple(within)) or capable(room, within)
            draw = _tree_drawer(state, topology)
            draws, ref_draws = random.Random(trial), random.Random(trial)
            last = {}  # each block's kind at its last test
            for flow in workload.flows:
                room = state.room(flow.demand[:dims])
                allowed = set(capable(room))
                expected = reference_sample_shortest(topology, allowed, flow.src, flow.dst, ref_draws)
                tested = _blocks_tested(topology, blocks, allowed, flow.src, flow.dst)
                limit = float_room(flow.demand[:dims])
                kinds = ["whole" if all(max(state.load[v][k] for v in b) <= r for k, r in enumerate(limit))
                         else "switch by switch" for b in tested]
                if len(tested) > 2:  # an inter-pod flow reaching the core layer
                    layer_whole = all(max(state.load[v][k] for v in cores) <= r for k, r in enumerate(limit))
                    seen["core layer whole" if layer_whole else "core layer not whole"] += 1
                    seen["closed form"] += layer_whole and kinds[:2] == ["whole", "whole"]
                asked.clear()
                assert draw(room, flow.src, flow.dst, draws) == expected
                assert draws.getstate() == ref_draws.getstate()
                assert sorted(asked) == sorted(b for b, kind in zip(tested, kinds) if kind != "whole")
                for b, kind in zip(tested, kinds):
                    seen[kind] += 1
                    turned += last.get(b) == "whole" and kind != "whole"
                    last[b] = kind
                if expected is None:
                    unrouted += 1
                else:
                    state.commit(flow.id, expected, state.pack(flow.demand))
    assert min(seen.values()) > 0, seen
    assert turned > 0  # blocks fill during a run
    assert unrouted > 0


def test_sample_shortest_answers_reachability():
    # The batch pick scan asks only whether a path exists; the answer must be
    # is_connected's (through the allowed processors; hosts never relay) on
    # the host endpoints it meets: hosts of degree >= 2, adjacent endpoints,
    # and a leaf whose only neighbour is the other end.
    rng = random.Random(59)
    seen = dict.fromkeys(("host of degree >= 2", "adjacent", "only neighbour", "found", "not found"), 0)
    for _ in range(1500):
        topology, s, t = with_host_ends(graph_with_leaves(rng), rng, 0.3)
        allowed = {v for v in range(len(topology)) if rng.random() < 0.6}
        asked = []
        found = _sample_shortest(topology, _asking(allowed, asked), s, t) is not None
        assert found == is_connected(topology, allowed, s, t)
        _assert_asked_once_and_never_a_leaf(topology, asked)
        seen["found" if found else "not found"] += 1
        seen["host of degree >= 2"] += any(len(topology._adj[v]) > 1 for v in (s, t))
        seen["adjacent"] += t in topology._adj[s]
        seen["only neighbour"] += topology._adj[t] == (s,) or topology._adj[s] == (t,)
    assert min(seen.values()) > 200, seen


def test_sample_shortest_asks_both_gates_first_on_an_idle_z16_tree():
    # The pick scan's usual failure: the destination's edge switch is full.
    # The search asks the source's edge switch, then the destination's, and
    # stops there.
    topology = build_fat_tree(16)
    s, t = topology.host_ids[0], topology.host_ids[-1]
    allowed = set(topology.processor_ids) - {topology._host_edge[t]}
    asked = []
    assert _sample_shortest(topology, _asking(allowed, asked), s, t) is None
    assert asked == [topology._host_edge[s], topology._host_edge[t]]


@pytest.mark.parametrize("z", (4, 8))
def test_hgr_layer_counts_are_l1_bounds(z):
    topology = build_fat_tree(z)
    half = z // 2
    for seed in range(6):
        mean = (0.02, 0.1, 0.3)[seed % 3]
        workload = generate_workload(topology, 20 * z, 3, mean, mean, seed=seed)
        _, pod_items, core_items = layer_items(topology, workload.flows)  # generated components fit a switch
        _, counts = route_hgr(topology, workload)
        # no layer is packed: each pod and the core layer are sized by their L1 bounds
        assert counts.agg_per_pod == tuple(reference_l1_count(items, half) for items in pod_items)
        assert counts.cores == reference_l1_count(core_items, half * half)


def _random_hgr_workload(rng, topology):
    dims = rng.randint(1, 3)
    flows = []
    for fid in range(rng.randint(4, 6 * topology.z)):
        src, dst = rng.sample(topology.host_ids, 2)
        flows.append(Flow(fid, src, dst, tuple(rng.uniform(0.05, 0.7) for _ in range(dims))))
    return Workload(tuple(flows), dims, z=topology.z)


def _assert_hgr_matches_reference(topology, workload):
    solution, counts = route_hgr(topology, workload)
    ref_solution, ref_counts = reference_route_hgr(topology, workload)
    assert solution == ref_solution
    assert counts == ref_counts


@pytest.mark.parametrize("z", (4, 6, 8))
def test_hgr_matches_reference(z):
    topology = build_fat_tree(z)
    for seed in range(8):
        mean = (0.02, 0.05, 0.1, 0.3)[seed % 4]
        flows = 120 if z == 8 else 20 * z
        _assert_hgr_matches_reference(topology, generate_workload(topology, flows, 3, mean, mean, seed=seed))
    rng = random.Random(z)
    for _ in range(60):
        _assert_hgr_matches_reference(topology, _random_hgr_workload(rng, topology))
