import copy
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenroute import (
    CAP_TOL,
    Flow,
    ResidualState,
    Workload,
    assign_node_weights,
    build_fat_tree,
    build_star_reduction,
    inv_count,
    is_connected,
    node_to_link_weights,
    online_arrival,
    online_departure,
    route_mrg,
    shortest_path,
)
from greenroute.state import _order_bits
from greenroute.topology import Node, NodeKind, Topology
from greenroute.workload import generate_workload, on_grid

from oracle_helpers import (
    all_simple_paths,
    best_path_by_enumeration,
    brute_inversions,
    float_room,
    graph_with_leaves,
    path_link_cost,
    random_topology,
    set_loads,
    state_with,
    with_host_ends,
)

TOL = 1e-9
TICK = 2.0**-40


# -- the capability rule: ResidualState.fits -----------------------------------

def _fits(load, demand):
    state = state_with({0: load})
    return state.fits(0, state.room(on_grid(demand)))


def test_is_capable_fresh_node():
    assert _fits((0, 0, 0), (0.1, 0.3, 0.4))


def test_is_capable_one_dimension_short():
    assert not _fits((0.6, 0.4, 0.1), (0.5, 0.1, 0.1))


def test_is_capable_boundary_admitted():
    assert _fits((0.7, 0.8), (0.3, 0.2))


def test_is_capable_rejects_beyond_tolerance():
    assert not _fits((0.7, 0.8), (0.3, 0.2 + 2e-9))


def _boundary_demands():
    rng = random.Random(13)
    return [tuple(rng.uniform(0.001, 1.0) for _ in range(dims)) for dims in (1, 2, 3, 5) for _ in range(200)]


def test_capability_boundary_full_room():
    # a load of exactly 1 - d in every dimension leaves room for d; 2*CAP_TOL
    # more in any one dimension does not
    for demand in _boundary_demands():
        full = [1 - d for d in demand]
        assert _fits(full, demand)
        for k in range(len(demand)):
            over = list(full)
            over[k] = 1 - demand[k] + 2 * CAP_TOL
            assert not _fits(over, demand)


def test_capability_boundary_one_entry_room():
    # SRSP and SRG pass a room for dimension 1 only: the other dimensions'
    # loads are never read, however high they are
    for demand in _boundary_demands():
        others = [5.0] * (len(demand) - 1)
        state = state_with({0: [1 - demand[0], *others]})
        room = state.room(on_grid(demand[:1]))
        assert state.fits(0, room)
        set_loads(state, {0: [1 - demand[0] + 2 * CAP_TOL, *others]})
        assert not state.fits(0, room)


def test_capable_is_the_batch_form_of_fits(tree4):
    # Loads exactly at the room and one grid step above it, full and one-entry
    # (SRG's) rooms, every processor, the active set and arbitrary subsets:
    # capable returns exactly the candidates that fits admits, each once,
    # and never a host.
    rng = random.Random(19)
    procs = tree4.processor_ids
    seen = dict.fromkeys(("at room", "step above", "admitted", "refused"), 0)
    for demand in _boundary_demands():
        demand = on_grid(demand)
        view = demand[:1] if rng.random() < 0.3 else demand
        top = [math.floor(r / TICK) * TICK for r in float_room(view)]  # the largest grid load that fits
        load = {}
        for v in procs:
            l = []
            for k, d in enumerate(demand):
                roll = rng.random() if k < len(view) else 1.0
                if roll < 0.35:
                    l.append(top[k])
                elif roll < 0.5:
                    l.append(top[k] + TICK)
                else:
                    l.append(rng.uniform(0.0, 1.2))
            load[v] = l
        state = state_with(load, {v for v in procs if rng.random() < 0.5})
        room = state.room(view)
        for within in (None, state.active, set(rng.sample(procs, rng.randrange(len(procs) + 1)))):
            candidates = procs if within is None else within
            got = state.capable(room, within)
            expected = {v for v in candidates if state.fits(v, room)}
            assert len(got) == len(set(got)) and set(got) == expected
            assert tree4.host_set.isdisjoint(got)
            seen["admitted"] += len(expected)
            seen["refused"] += len(candidates) - len(expected)
        seen["at room"] += sum(l[k] == top[k] for l in load.values() for k in range(len(view)))
        seen["step above"] += sum(l[k] == top[k] + TICK for l in load.values() for k in range(len(view)))
    assert min(seen.values()) > 1000, seen


# -- inv_count ----------------------------------------------------------------

def test_inv_count_aligned_profiles():
    assert inv_count((0.4, 0.6, 0.9), (0.1, 0.3, 0.4)) == 0


def test_inv_count_constant_vector():
    assert inv_count((0.9, 0.1, 0.5), (0.3, 0.3, 0.3)) == 0


def test_inv_count_reversed_orders_hit_maximum():
    assert inv_count((0.9, 0.6, 0.3), (0.1, 0.2, 0.3)) == 3


def test_inv_count_length_mismatch():
    with pytest.raises(ValueError):
        inv_count((1, 2), (1, 2, 3))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
    )))
def test_inv_count_matches_brute_force_and_bound(pair):
    x, y = pair
    n = len(x)
    count = inv_count(x, y)
    assert count == brute_inversions(x, y)
    assert count == inv_count(y, x)
    assert 0 <= count <= n * (n - 1) // 2
    assert inv_count(x, x) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_inv_count_exhaustive_permutations(n):
    most = n * (n - 1) // 2
    for x in itertools.permutations(range(1, n + 1)):
        for y in itertools.permutations(range(1, n + 1)):
            c = inv_count(x, y)
            assert 0 <= c <= most
            assert c == brute_inversions(x, y)
    increasing = tuple(range(1, n + 1))
    assert inv_count(increasing, increasing[::-1]) == most


@pytest.mark.parametrize("dims", range(1, 7))
def test_pair_sign_count_matches_inv_count(dims):
    # the greedy step weighs an active node as the popcount of its cached
    # load-order mask AND the demand's pairs: the pairs with demand[a] >
    # demand[b] that the load orders the same way, which the room left
    # (ordered as the negated load) orders the other way. A router that sees
    # a prefix of the dimensions (SRG's one) builds the pairs of that prefix
    # at the same bit positions.
    rng = random.Random(dims)
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so ties are common
    ties = 0
    for _ in range(400):
        demand = [rng.choice(levels) if rng.random() < 0.7 else rng.random() for _ in range(dims)]
        pairs = [_order_bits(demand[:view], dims) for view in range(dims + 1)]
        for _ in range(5):
            load = on_grid(rng.choice(levels) if rng.random() < 0.7 else rng.random() for _ in range(dims))
            mask = state_with({0: load}, {0}).order_of(0)
            room = [-c for c in load]
            for view in range(1, dims + 1):
                count = (mask & pairs[view]).bit_count()
                assert count == inv_count(room[:view], demand[:view]) == brute_inversions(room[:view], demand[:view])
            ties += len(set(load)) < dims or len(set(demand)) < dims
    assert pairs[1] == 0  # one dimension has no pairs
    assert dims == 1 or ties > 300


# -- weight assignment ----------------------------------------------------------

def _state_with(topology, dims, loads):
    state = ResidualState.fresh(topology, dims)
    set_loads(state, loads)
    state.active.update(loads)
    return state


def test_assign_weights_inactive_formula(tree4):
    state = ResidualState.fresh(tree4, 3)
    weights = assign_node_weights(state, (0.1, 0.2, 0.3), tree4)
    for v in tree4.processor_ids:
        assert weights[v] == 4  # 3*2/2 + 1
    for h in tree4.host_ids:
        assert weights[h] == 0


def test_assign_weights_one_dimension(tree4):
    state = _state_with(tree4, 1, {16: (0.3,)})
    weights = assign_node_weights(state, (0.2,), tree4)
    assert weights[16] == 0
    assert weights[17] == 1
    # SRG's view: a K=3 state weighed against the demand's first component only
    state = _state_with(tree4, 3, {16: (0.3, 0.9, 0.1)})
    weights = assign_node_weights(state, (0.2,), tree4)
    assert weights[16] == 0
    assert weights[17] == 1


def test_assign_weights_active_inversion(tree4):
    state = _state_with(tree4, 2, {16: (0.1, 0.8)})  # room (0.9, 0.2)
    weights = assign_node_weights(state, (0.1, 0.2), tree4)
    assert weights[16] == 1


def test_weight_separation_property(tree4):
    rng = random.Random(3)
    for _ in range(50):
        dims = rng.randint(1, 5)
        loads = {v: tuple(rng.uniform(0, 0.9) for _ in range(dims))
                 for v in rng.sample(tree4.processor_ids, 6)}
        state = _state_with(tree4, dims, loads)
        demand = tuple(rng.uniform(0, 0.3) for _ in range(dims))
        weights = assign_node_weights(state, demand, tree4)
        top_active = max(weights[v] for v in state.active)
        for v in tree4.processor_ids:
            if v not in state.active:
                assert weights[v] > top_active


# -- node-to-link transform ---------------------------------------------------------

def test_link_weight_is_half_sum(tree2):
    weights = {v: 0 for v in range(len(tree2))}
    u, v = tree2.edges[0]
    weights[u], weights[v] = 2, 3
    assert node_to_link_weights(tree2, weights)[(u, v)] == 2.5


def test_zero_node_weights_give_zero_links(tree2):
    weights = {v: 0 for v in range(len(tree2))}
    links = node_to_link_weights(tree2, weights)
    assert set(links.values()) == {0.0}


def test_transform_telescopes_on_every_path():
    # integer node weights make the identity exact in floating point
    rng = random.Random(17)
    for _ in range(40):
        topo = random_topology(rng, rng.randint(4, 9), 0.5)
        weights = {v: rng.randint(0, 7) for v in range(len(topo))}
        links = node_to_link_weights(topo, weights)
        s, t = rng.sample(range(len(topo)), 2)
        for path in all_simple_paths(topo, s, t):
            node_total = sum(weights[v] for v in path)
            assert path_link_cost(path, links) == node_total - (weights[s] + weights[t]) / 2


# -- connectivity ----------------------------------------------------------------

def test_is_connected_full_graph(tree4):
    everything = set(range(len(tree4)))
    assert is_connected(tree4, everything, 0, 15)


def test_is_connected_empty_allowed(tree4):
    assert not is_connected(tree4, set(), 0, 1)  # hosts are never adjacent
    assert is_connected(tree4, set(), 0, 0)


def test_is_connected_star_fixture():
    star = build_star_reduction(3)
    assert is_connected(star.topology, {star.middle_ids[1]}, star.src, star.dst)
    assert not is_connected(star.topology, set(), star.src, star.dst)


def test_is_connected_never_relays_through_a_host():
    # On the path 0-3-2-4-1 the only route from host 0 to host 1 crosses host 2.
    kinds = (NodeKind.HOST,) * 3 + (NodeKind.EDGE,) * 2
    topology = Topology([Node(v, kind, None, v) for v, kind in enumerate(kinds)],
                        [(0, 3), (3, 2), (2, 4), (4, 1)])
    assert not is_connected(topology, {2, 3, 4}, 0, 1)
    assert shortest_path(topology, {2, 3, 4}, None, 0, 1) is None
    assert is_connected(topology, {3}, 0, 2)
    assert not is_connected(topology, set(), 0, 2)


def test_references_refuse_a_processor_endpoint_outside_allowed(tree4):
    # The references take any endpoint (routers take hosts only): a processor
    # endpoint carries the flow like any processor on the path, so it must be
    # allowed; a host endpoint need not be.
    edge = tree4._host_edge[0]
    everything = set(range(len(tree4)))
    for s, t in ((edge, 15), (15, edge), (edge, edge)):
        assert not is_connected(tree4, everything - {edge}, s, t)
        assert shortest_path(tree4, everything - {edge}, None, s, t) is None
        assert is_connected(tree4, everything, s, t)
        assert shortest_path(tree4, everything, None, s, t) is not None
    assert shortest_path(tree4, {edge}, None, edge, 1) == [edge, 1]
    assert shortest_path(tree4, {edge}, None, 0, 1) == [0, edge, 1]


def test_bool_is_neither_a_flow_id_a_demand_nor_a_node_id(tree4):
    # True == 1, but it names no flow, no node and no demand: MRG once routed
    # this workload as {True: (1, 16, ..., 5)} with demand 1.0
    with pytest.raises(ValueError):
        Workload((Flow(0, 0, 4, (0.1,)), Flow(True, 1, 5, (True,))), 1, z=4)
    everything = set(range(len(tree4)))
    for s, t in ((True, 5), (5, True), (False, 5)):
        with pytest.raises(KeyError, match="unknown node id"):
            is_connected(tree4, everything, s, t)
        with pytest.raises(KeyError, match="unknown node id"):
            shortest_path(tree4, everything, None, s, t)


# -- shortest path ----------------------------------------------------------------

def _parallel_two_hop(weights_mid):
    n = 2 + len(weights_mid)
    nodes = [Node(0, NodeKind.HOST, None, 0), Node(1, NodeKind.HOST, None, 1)]
    nodes += [Node(2 + i, NodeKind.EDGE, None, i) for i in range(len(weights_mid))]
    edges = [(0, 2 + i) for i in range(len(weights_mid))] + [(2 + i, 1) for i in range(len(weights_mid))]
    topo = Topology(nodes, edges)
    node_w = {0: 0, 1: 0}
    node_w.update({2 + i: w for i, w in enumerate(weights_mid)})
    return topo, node_to_link_weights(topo, node_w)


def test_shortest_path_prefers_light_middle():
    topo, links = _parallel_two_hop([4, 1])
    assert shortest_path(topo, {2, 3}, links, 0, 1) == [0, 3, 1]


def test_shortest_path_tie_breaks_to_lowest_ids():
    topo, links = _parallel_two_hop([2, 2, 2])
    assert shortest_path(topo, {2, 3, 4}, links, 0, 1) == [0, 2, 1]


def test_shortest_path_rejects_negative_weights():
    topo, links = _parallel_two_hop([1, 1])
    links[(0, 2)] = -0.5
    with pytest.raises(ValueError):
        shortest_path(topo, {2, 3}, links, 0, 1)


def test_shortest_path_disconnected_returns_none():
    topo, links = _parallel_two_hop([1, 1])
    assert shortest_path(topo, set(), links, 0, 1) is None


def test_shortest_path_matches_enumeration_oracle():
    # Processor endpoints on random graphs, priced by half-sum node weights;
    # then host endpoints on graphs with leaves and hosts of degree >= 2,
    # interior nodes from a partial processor set, and link weights that sum
    # exactly: unit (None), half-integers with many ties, or sixteenths.
    rng = random.Random(99)
    found = 0
    for trial in range(1560):
        if trial < 60:
            topo = random_topology(rng, rng.randint(5, 12), 0.35)
            weights = node_to_link_weights(topo, {v: rng.randint(0, 6) for v in range(len(topo))})
            s, t = rng.sample(range(len(topo)), 2)
            allowed = set(range(len(topo)))
        else:
            topo, s, t = with_host_ends(graph_with_leaves(rng), rng, 0.3)
            allowed = {v for v in topo.processor_ids if rng.random() < 0.75}
            scale = (None, 2, 16)[trial % 3]
            weights = None if scale is None else {e: rng.randint(0, 4 * scale) / scale for e in topo.edges}
        links = dict.fromkeys(topo.edges, 1.0) if weights is None else weights
        _, best = best_path_by_enumeration(topo, links, s, t, allowed)
        assert shortest_path(topo, allowed, weights, s, t) == best
        found += best is not None
    assert found > 500


# -- route_mrg -----------------------------------------------------------------------

def test_single_flow_takes_lexicographic_shortest_path(tree4):
    # intra-pod, different racks: host 0 (edge 16) to host 2 (edge 17)
    w = Workload((Flow(0, 0, 2, (0.2, 0.2)),), 2, z=4)
    sol = route_mrg(tree4, w, seed=0)
    assert sol.paths[0] == (0, 16, 24, 17, 2)
    assert sol.active == {16, 24, 17}

    # inter-pod: host 0 to host 4 crosses the lowest core
    w = Workload((Flow(0, 0, 4, (0.2, 0.2)),), 2, z=4)
    sol = route_mrg(tree4, w, seed=0)
    assert sol.paths[0] == (0, 16, 24, 32, 26, 18, 4)
    assert sol.active == {16, 24, 32, 26, 18}


def test_two_intra_rack_flows_share_the_edge_switch(tree4):
    flows = (Flow(0, 0, 1, (0.4,)), Flow(1, 0, 1, (0.4,)))
    sol = route_mrg(tree4, Workload(flows, 1, z=4), seed=5)
    assert sol.paths[0] == (0, 16, 1)
    assert sol.paths[1] == (0, 16, 1)
    assert sol.active == {16}
    assert sol.load[16] == pytest.approx((0.8,), abs=TOL)


def test_committing_flow_updates_loads_like_worked_example():
    # two loaded processors in series; committing (0.1, 0.3, 0.4) lands on both
    nodes = [Node(0, NodeKind.HOST, None, 0), Node(1, NodeKind.HOST, None, 1),
             Node(2, NodeKind.EDGE, None, 0), Node(3, NodeKind.EDGE, None, 1)]
    topo = Topology(nodes, [(0, 2), (2, 3), (3, 1)])
    state = _state_with(topo, 3, {2: (0.6, 0.4, 0.1), 3: (0.4, 0.4, 0.3)})
    path = online_arrival(state, topo, Flow(0, 0, 1, (0.1, 0.3, 0.4)))
    assert path == (0, 2, 3, 1)
    assert state.load[2] == pytest.approx((0.7, 0.7, 0.5), abs=TOL)
    assert state.load[3] == pytest.approx((0.5, 0.7, 0.7), abs=TOL)


def test_route_mrg_blocked_flows_are_data():
    star = build_star_reduction(2)
    flows = (Flow(0, 0, 1, (0.9,)), Flow(1, 0, 1, (0.9,)), Flow(2, 0, 1, (0.9,)))
    sol = route_mrg(star.topology, Workload(flows, 1, z=None), seed=1)
    assert len(sol.paths) == 2 and len(sol.unrouted) == 1


# -- online arrival / departure ----------------------------------------------------

def test_online_arrival_matches_first_batch_iteration(tree4):
    flow = Flow(0, 0, 4, (0.2, 0.2))
    batch = route_mrg(tree4, Workload((flow,), 2, z=4), seed=0)
    state = ResidualState.fresh(tree4, 2)
    path = online_arrival(state, tree4, flow)
    assert path == batch.paths[0]


def test_arrival_then_departure_restores_state_bitwise(tree4):
    state = ResidualState.fresh(tree4, 3)
    flow = Flow(0, 0, 9, (0.123, 0.456, 0.00789))
    path = online_arrival(state, tree4, flow)
    online_departure(state, tree4, flow, path)
    assert state.active == set()
    assert state.committed == {}
    for v in tree4.processor_ids:
        assert state.load[v] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("busy", (False, True))
def test_arrival_with_wrong_dimension_count_rejected(tree4, busy):
    state = ResidualState.fresh(tree4, 2)
    if busy:
        online_arrival(state, tree4, Flow(0, 0, 4, (0.1, 0.1)))
    before = ({v: list(l) for v, l in state.load.items()}, set(state.active), dict(state.committed))
    for demand in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(ValueError, match="length mismatch"):
            online_arrival(state, tree4, Flow(1, 0, 4, demand))
    assert (state.load, state.active, state.committed) == before


def test_commit_wakes_path_processors_and_departure_reverses_it(tree4):
    state = ResidualState.fresh(tree4, 1)
    assert state.commit(0, (0, 16, 24, 17, 2), state.pack((0.25,))) is None
    assert state.active == {16, 24, 17}
    assert state.commit(1, (1, 16, 1), state.pack((0.25,))) is None
    assert state.active == {16, 24, 17}
    assert state.committed == {0: (0, 16, 24, 17, 2), 1: (1, 16, 1)}
    assert state.demands == {0: state.pack((0.25,)), 1: state.pack((0.25,))}
    assert state.load[16] == [0.5] and state.active == {16, 24, 17}
    online_departure(state, tree4, Flow(0, 0, 2, (0.25,)), (0, 16, 24, 17, 2))
    assert state.active == {16} and state.load[24] == [0.0] and state.load[16] == [0.25]


def test_departure_with_wrong_dimension_count_rejected(tree4):
    # a demand of the wrong length is refused before any load, the active set
    # or the committed paths change, whether it is too long or too short
    state = ResidualState.fresh(tree4, 2)
    path = online_arrival(state, tree4, Flow(0, 0, 4, (0.1, 0.2)))
    before = ({v: list(l) for v, l in state.load.items()}, set(state.active), dict(state.committed))
    for demand in ((0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match="length mismatch"):
            online_departure(state, tree4, Flow(0, 0, 4, demand), path)
    assert (state.load, state.active, state.committed) == before


def test_departure_keeps_a_drained_processor_that_a_live_flow_crosses(tree4):
    # flow A's demand is within CAP_TOL of 0 (1e-10 rounds to 110 grid steps),
    # so once B departs, switch 16's load is too; A still crosses it, so it
    # stays active with exactly A's load
    state = ResidualState.fresh(tree4, 1)
    a, b = Flow(0, 0, 1, (1e-10,)), Flow(1, 0, 1, (0.5,))
    assert a.demand == (110 * 2.0**-40,)
    assert online_arrival(state, tree4, a) == online_arrival(state, tree4, b) == (0, 16, 1)
    online_departure(state, tree4, b, (0, 16, 1))
    assert state.active == {16} and state.committed == {0: (0, 16, 1)}
    assert state.load[16] == [a.demand[0]]
    online_departure(state, tree4, a, (0, 16, 1))
    assert state == ResidualState.fresh(tree4, 1)


@pytest.mark.parametrize("dims", (1, 3))
def test_active_set_is_the_live_paths_under_churn(tree4, dims):
    # a seeded stream of arrivals and departures, a fifth of them with
    # demands below CAP_TOL: after every event the active processors are
    # exactly the interiors of the committed paths
    rng = random.Random(dims)
    hosts = tree4.host_ids
    state = ResidualState.fresh(tree4, dims)
    live = []
    tiny = 0

    def check():
        assert state.active == {v for path in state.committed.values() for v in path[1:-1]}

    for fid in range(600):
        if live and (len(live) >= 12 or rng.random() < 0.4):
            online_departure(state, tree4, *live.pop(rng.randrange(len(live))))
            check()
        scale = 1e-10 if rng.random() < 0.2 else 0.3
        flow = Flow(fid, *rng.sample(hosts, 2), tuple(rng.uniform(0.01, 1.0) * scale for _ in range(dims)))
        path = online_arrival(state, tree4, flow)
        if path is not None:
            live.append((flow, path))
            tiny += scale < 1.0
        check()
    assert tiny > 50


def test_departure_of_unknown_flow_rejected(tree4):
    state = ResidualState.fresh(tree4, 1)
    with pytest.raises(ValueError):
        online_departure(state, tree4, Flow(0, 0, 1, (0.1,)), (0, 16, 1))


def test_arrival_of_a_routed_flow_rejected(tree4):
    state = ResidualState.fresh(tree4, 2)
    flow = Flow(0, 0, 4, (0.1, 0.2))
    online_arrival(state, tree4, flow)
    before = copy.deepcopy(state)
    with pytest.raises(ValueError, match="already routed"):
        online_arrival(state, tree4, flow)
    assert state == before


def test_departure_on_another_path_rejected(tree4):
    # the flow takes position 0 through core 32; the other is a real path
    # through position 1 and core 34, and a reversed path is not the same
    state = ResidualState.fresh(tree4, 2)
    flow = Flow(0, 0, 4, (0.1, 0.2))
    path = online_arrival(state, tree4, flow)
    assert path == (0, 16, 24, 32, 26, 18, 4)
    before = copy.deepcopy(state)
    for other in ((0, 16, 25, 34, 27, 18, 4), path[::-1]):
        with pytest.raises(ValueError, match="does not match the committed path"):
            online_departure(state, tree4, flow, other)
    assert state == before


def test_departure_with_another_demand_rejected(tree4):
    # taking (0.3, 0.2) off a (0.1, 0.2) load would borrow across the packed
    # fields, and (0.05, 0.2) would leave a phantom load: both are refused
    state = ResidualState.fresh(tree4, 2)
    flow = Flow(0, 0, 4, (0.1, 0.2))
    path = online_arrival(state, tree4, flow)
    before = copy.deepcopy(state)
    for demand in ((0.3, 0.2), (0.05, 0.2)):
        with pytest.raises(ValueError, match="does not match the committed demand"):
            online_departure(state, tree4, Flow(0, 0, 4, demand), path)
    assert state == before
    online_departure(state, tree4, flow, path)
    assert state == ResidualState.fresh(tree4, 2)


def test_arrival_stream_stays_feasible(tree4):
    state = ResidualState.fresh(tree4, 3)
    rng = random.Random(21)
    hosts = tree4.host_ids
    demands = {}
    for fid in range(30):
        src, dst = rng.sample(hosts, 2)
        flow = Flow(fid, src, dst, tuple(rng.uniform(0.01, 0.3) for _ in range(3)))
        demands[fid] = flow.demand
        online_arrival(state, tree4, flow)
        # the state's loads are the committed demands' sums as the state evolves
        load = {v: [0.0] * 3 for v in tree4.processor_ids}
        for committed_id, path in state.committed.items():
            for v in path:
                if v in load:
                    load[v] = [c + d for c, d in zip(load[v], demands[committed_id])]
        for v in tree4.processor_ids:
            assert all(c <= 1 + TOL for c in load[v])
            assert state.load[v] == load[v]


def test_arrival_prefers_active_subnetwork(tree4):
    # a second intra-pod flow reuses the already-active aggregation switch
    state = ResidualState.fresh(tree4, 1)
    online_arrival(state, tree4, Flow(0, 0, 2, (0.2,)))
    assert state.active == {16, 24, 17}
    path = online_arrival(state, tree4, Flow(1, 1, 3, (0.2,)))
    assert path == (1, 16, 24, 17, 3)


def test_residual_view_follows_loads_and_drains_to_exact_capacity(tree8):
    # what the benchmark reads of a live state: the residual view is 1 - load
    # after every event, and a drained state is exactly idle again
    dims = 3
    workload = generate_workload(tree8, 300, dims, 0.08, 0.08, seed=31)
    state = ResidualState.fresh(tree8, dims)
    rng = random.Random(32)
    live = []
    for flow in workload.flows:
        if len(live) >= 50:
            online_departure(state, tree8, *live.pop(rng.randrange(len(live))))
        path = online_arrival(state, tree8, flow)
        if path is not None:
            live.append((flow, path))
        residual = state.residual
        assert all(residual[v] == [1.0 - c for c in state.load[v]] for v in tree8.processor_ids)
    for flow, path in live:
        online_departure(state, tree8, flow, path)
    assert not state.active and not state.committed
    assert all(load == [0.0] * dims for load in state.load.values())
    assert all(r == [1.0] * dims for r in state.residual.values())


@pytest.mark.parametrize("z", (4, 8))
@pytest.mark.parametrize("dims", (1, 3, 5))
def test_load_order_masks_follow_every_load_change(z, dims):
    # a seeded mix of bare commits, online arrivals and departures, drained
    # back to an idle network now and then. Every processor's load-order
    # mask is filled after each step, so a commit or a departure that keeps
    # a stale mask shows at the next check.
    topology = build_fat_tree(z)
    procs = topology.processor_ids
    rng = random.Random(100 * z + dims)
    flows = generate_workload(topology, 400, dims, 0.08, 0.06, seed=rng.randrange(2**32)).flows
    idle = ResidualState.fresh(topology, dims)
    state = ResidualState.fresh(topology, dims)
    live = []

    def check():
        for v in procs:
            state.order_of(v)
        for v, bits in state.order.items():
            assert bits == _order_bits(state.load[v], dims)

    def depart(i):
        online_departure(state, topology, *live.pop(i))
        check()

    for flow in flows:
        if live and (len(live) >= 40 or rng.random() < 0.25):
            depart(rng.randrange(len(live)))
        elif rng.random() < 0.5:
            path = online_arrival(state, topology, flow)
            if path is not None:
                live.append((flow, path))
        else:
            room = state.room(flow.demand)
            path = shortest_path(topology, [v for v in procs if state.fits(v, room)], None, flow.src, flow.dst)
            if path is not None:
                state.commit(flow.id, path, state.pack(flow.demand))
                live.append((flow, tuple(path)))
        check()
        if rng.random() < 0.03:
            while live:
                depart(-1)
            assert state == idle
            path = online_arrival(state, topology, flow)
            check()
            online_departure(state, topology, flow, path)
            check()
            assert state == idle
    assert "order" not in repr(state)
