"""Brute-force reference implementations the tests certify the library against.

Most of it is deliberately written with different algorithms than the
library uses: literal pair enumeration for inversions, exhaustive simple-path
enumeration for shortest paths, and a subset DP for exact bin packing. The
frozen routing and oracle references at the end are the library's own
earlier code, kept so its fast or merged paths can be held to
byte-identical output, and the oracle to identical answers. The frozen
routers run on the library's ``ResidualState`` and decide fit by its
``fits``: that rule is checked directly, by ``test_mrg``'s capability
tests and by the boundary fuzz in ``test_evaluation``, so the references
check the algorithms around it. The frozen HGR routes each flow by
``shortest_path`` with unit weights, not by the hop search it checks, and
every reference calls public library names only.
"""

import itertools
import random
from operator import le

from greenroute import (
    CAP_TOL,
    Flow,
    LayerCounts,
    Node,
    NodeKind,
    ResidualState,
    Topology,
    Workload,
    assign_node_weights,
    is_connected,
    node_to_link_weights,
    shortest_path,
)
from greenroute.workload import on_grid

TOL = 1e-9


# -- float loads in and out of the packed state ---------------------------------
# ``ResidualState`` keeps loads as packed grid integers. Tests that build or
# overwrite loads give floats, rounded to the demands' grid, through
# ``state_with`` or ``set_loads``; ``float_room`` is the capability rule as
# it stood on float loads, which the packed rule must reproduce exactly.

def float_room(demand):
    """The float capability rule's room: a load fits iff every ``l_k <= (1 + CAP_TOL) - demand_k``."""
    return [1.0 + CAP_TOL - d for d in demand]


def set_loads(state, loads):
    """Overwrite the loads of ``loads``' processors with its float vectors, rounded to the grid."""
    for v, load in loads.items():
        state.packed[v] = state.pack(on_grid(load))
        state.order.pop(v, None)


def state_with(loads, active=(), dims=None):
    """A ``ResidualState`` over exactly the processors of ``loads``, holding its float vectors;
    ``dims`` defaults to their length."""
    dims = len(next(iter(loads.values()))) if dims is None else dims
    state = ResidualState(dict.fromkeys(loads, 0), set(active), dims)
    set_loads(state, loads)
    return state


def brute_inversions(x, y):
    total = 0
    for i, j in itertools.combinations(range(len(x)), 2):
        if (x[i] > x[j] and y[i] < y[j]) or (x[i] < x[j] and y[i] > y[j]):
            total += 1
    return total


def all_simple_paths(topology, s, t, allowed=None):
    """Every simple s-t path whose interior nodes lie in ``allowed`` (default: all)."""
    if allowed is None:
        allowed = set(range(len(topology)))
    if s == t:
        return [[s]]
    paths, path, seen = [], [s], {s}

    def walk(u):
        for v in topology._adj[u]:
            if v == t:
                paths.append(path + [t])
            elif v in allowed and v not in seen:
                path.append(v)
                seen.add(v)
                walk(v)
                seen.remove(v)
                path.pop()

    walk(s)
    return paths


def path_link_cost(path, link_weights):
    return sum(link_weights[(u, v) if u < v else (v, u)] for u, v in zip(path, path[1:]))


def best_path_by_enumeration(topology, link_weights, s, t, allowed=None):
    """(cost, path) of the minimum-cost path under the library's tie rule, or (None, None)."""
    paths = all_simple_paths(topology, s, t, allowed)
    if not paths:
        return None, None
    best = min(paths, key=lambda p: (path_link_cost(p, link_weights), len(p) - 1, tuple(p)))
    return path_link_cost(best, link_weights), best


def min_bins_by_subset_dp(items):
    """Exact VBP optimum via DP over item subsets (different method than the library)."""
    n = len(items)
    dims = len(items[0])
    feasible = [False] * (1 << n)
    for mask in range(1, 1 << n):
        feasible[mask] = all(
            sum(items[i][k] for i in range(n) if mask >> i & 1) <= 1 + TOL
            for k in range(dims)
        )
    big = n + 1
    dp = [0] + [big] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sub = mask
        while sub:
            if (sub & low) and feasible[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return dp[(1 << n) - 1]


def random_topology(rng, n, edge_prob=0.4):
    """Arbitrary connected-ish processor graph for path oracle tests."""
    nodes = [Node(i, NodeKind.EDGE, None, i) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return Topology(nodes, edges)


def graph_with_leaves(rng):
    """Random core graph plus pendant (degree-1) nodes hung off random core nodes."""
    core = rng.randint(3, 10)
    leaves = rng.randint(1, 5)
    n = core + leaves
    nodes = [Node(i, NodeKind.EDGE, None, i) for i in range(n)]
    edges = [(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.45]
    edges += [(core + k, rng.randrange(core)) for k in range(leaves)]
    return Topology(nodes, edges)


def with_hosts(topology, rng):
    """The same graph with a random third of its nodes relabelled as hosts."""
    nodes = [Node(v, NodeKind.HOST if rng.random() < 0.33 else NodeKind.EDGE, None, v)
             for v in range(len(topology))]
    return Topology(nodes, topology.edges)


def with_host_ends(topology, rng, leaf_share):
    """Two endpoints s != t and the same graph with them and a random third of its nodes as hosts.

    Returns (topology, s, t). With probability ``leaf_share`` one end is a
    leaf and the other its only neighbour; otherwise the pair is uniform.
    """
    n = len(topology)
    if rng.random() < leaf_share:
        t = rng.choice([v for v in range(n) if len(topology._adj[v]) == 1])
        s = topology._adj[t][0]
        if rng.random() < 0.5:
            s, t = t, s
    else:
        s, t = rng.sample(range(n), 2)
    nodes = [Node(v, NodeKind.HOST if v in (s, t) or rng.random() < 0.33 else NodeKind.EDGE, None, v)
             for v in range(n)]
    return Topology(nodes, topology.edges), s, t


# -- frozen routing references -------------------------------------------------------
# The greedy router and its online arrival as they stood before the pick
# scan skipped flows bound to fail again, lazy reachability and the
# dead-end skip, with one intended change since: hosts never relay, so no
# host is ever an allowed interior node. They are slow on purpose (a
# set and a search per pending flow per iteration, a weight table and a
# link-weight dict over every node and edge per flow) and search with the
# library's own slow references, ``is_connected`` and ``shortest_path``,
# which ``test_mrg`` holds to exhaustive path enumeration; the differential
# tests require the library to reproduce them exactly. Every frozen router
# keeps its state in a ``ResidualState`` and decides fit by its ``fits``
# (or ``capable``), which ``test_mrg``'s capability tests and the boundary
# fuzz in ``test_evaluation`` check directly, so a reference and the
# library agree on every input, on the capacity boundary too.

def reference_route_greedy(topology, workload, seed, dims):
    """The greedy router on the first ``dims`` dimensions (MRG with all of them, SRG with 1), unoptimized."""
    rng = random.Random(seed)
    state = ResidualState.fresh(topology, workload.dims, workload.flows if dims < workload.dims else ())
    pending = list(workload.flows)
    while pending:
        pick = None
        for i, flow in enumerate(pending):
            room = state.room(flow.demand[:dims])
            if is_connected(topology, state.capable(room, state.active), flow.src, flow.dst):
                pick = i
                break
        if pick is None:
            pick = rng.randrange(len(pending))
        flow = pending.pop(pick)
        demand = flow.demand[:dims]
        link_w = node_to_link_weights(topology, assign_node_weights(state, demand, topology))
        path = shortest_path(topology, state.capable(state.room(demand)), link_w, flow.src, flow.dst)
        if path is not None:
            state.commit(flow.id, path, state.pack(flow.demand))
    return state.solution(workload.flows)


def reference_online_departure(state, flow, path):
    """Take the demand off the loads, a component at a time, and deactivate
    exactly the processors that no other live path crosses; their loads are then exactly 0."""
    del state.committed[flow.id]
    crossed = {v for other in state.committed.values() for v in other}
    for v in path:
        if v in state.packed:
            l = [c - d for c, d in zip(state.load[v], flow.demand)]
            set_loads(state, {v: l})
            if v not in crossed:
                assert not any(l), (v, l)
                state.active.discard(v)


def reference_solution_loads(topology, workload, paths):
    """Loads summed over ``paths`` in its order: the summation the routers once ran
    after routing. Demands are on the grid, so every order gives the router's floats."""
    flows = workload.flows
    dims = workload.dims
    load = {v: [0.0] * dims for v in topology.processor_ids}
    for fid, path in paths.items():
        demand = flows[fid].demand
        for l in map(load.get, path):
            if l is not None:
                for k in range(dims):
                    l[k] += demand[k]
    return {v: tuple(l) for v, l in load.items()}


def reference_greedy_paths(state, topology, src, dst, demand, room):
    """The greedy step as ``_greedy_path`` states it, on the two node sets an
    arrival tries: :func:`shortest_path` over the active processors that fit
    ``room``, then over every processor that fits, both priced by
    :func:`node_to_link_weights` of :func:`assign_node_weights`."""
    link_w = node_to_link_weights(topology, assign_node_weights(state, demand, topology))
    capable = {v for v in topology.processor_ids if state.fits(v, room)}
    return [shortest_path(topology, allowed, link_w, src, dst) for allowed in (capable & state.active, capable)]


def reference_online_arrival(state, topology, flow):
    """Online arrival: the first path :func:`reference_greedy_paths` finds, committed."""
    found = reference_greedy_paths(state, topology, flow.src, flow.dst, flow.demand, state.room(flow.demand))
    path = next(filter(None, found), None)
    if path is None:
        return None
    state.commit(flow.id, path, state.pack(flow.demand))
    return tuple(path)


# Verbatim copy of the baselines' seeded ECMP draw (a BFS from s, then path
# counts per level) as it stood before it and HGR's lexicographic detour
# search merged into one hop search; its endpoints are hosts, as every
# router's are. The lexicographic answer needs no copy: it is
# ``shortest_path`` with unit weights.

def reference_sample_shortest(topology, allowed, s, t, rng):
    if s == t:
        return [s]
    adj = topology._adj
    dist = {s: 0}
    frontier = [s]
    level = 0
    while frontier and t not in dist:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in dist:
                    continue
                if v == t:
                    dist[v] = level
                elif v in allowed:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    if t not in dist:
        return None
    target = dist[t]
    by_level = [[] for _ in range(target)]
    for v, d in dist.items():
        if d < target and (v == s or d > 0):
            by_level[d].append(v)
    count = {t: 1}
    for d in range(target - 1, -1, -1):
        for v in by_level[d]:
            c = 0
            for u in adj[v]:
                if dist.get(u) == d + 1 and u in count:
                    c += count[u]
            if c:
                count[v] = c
    path = [s]
    v = s
    while v != t:
        d = dist[v]
        options = [(u, count[u]) for u in adj[v] if dist.get(u) == d + 1 and u in count]
        total = sum(c for _, c in options)
        r = rng.random() * total
        acc = 0
        chosen = options[-1][0]
        for u, c in options:
            acc += c
            if r < acc:
                chosen = u
                break
        path.append(chosen)
        v = chosen
    return path


def reference_route_shortest(topology, workload, seed, dims):
    """SRSP (``dims`` 1) and MRSP (all dimensions) on the frozen draw, on any graph.

    Each flow in list order takes :func:`reference_sample_shortest` over the
    processors that fit its first ``dims`` demand components.
    """
    rng = random.Random(seed)
    state = ResidualState.fresh(topology, workload.dims, workload.flows if dims < workload.dims else ())
    for flow in workload.flows:
        allowed = set(state.capable(state.room(flow.demand[:dims])))
        path = reference_sample_shortest(topology, allowed, flow.src, flow.dst, rng)
        if path is not None:
            state.commit(flow.id, path, state.pack(flow.demand))
    return state.solution(workload.flows)


# Copy of HGR as it stood before its layer count skipped the packer for
# two bins. Four intended changes since: no layer is packed any more, but
# each pod and the core layer (once packed by core group, source host
# index mod z/2, with the groups' counts summed) is sized by the L1 bound
# of its flows, and the lowest-position switches wake up to that count;
# a flow blocked on the activated switches reruns the same search once
# over every processor and wakes that path's switches, where it once woke
# one switch at a time in a fixed order and reran the search after each;
# and phase 1 leaves a flow out only when a demand component exceeds
# 1 + CAP_TOL, which no switch holds, where it once left out any above 1.
# Its path rule, once a scan of the fat-tree's path shapes, is written as
# what that scan returns: ``shortest_path`` with unit weights (the lex-min
# hop-shortest path) over the woken switches that fit the flow.

def reference_l1_count(demands, limit):
    """A layer's L1 bound: the fewest switches, at most ``limit``, whose
    capacity (1 + CAP_TOL per dimension) covers each dimension's demand sum."""
    sums = [sum(column) for column in zip(*demands)]
    count = 0
    while count < limit and any(total > count * (1 + CAP_TOL) for total in sums):
        count += 1
    return count


def layer_items(topology, flows):
    """Which of ``flows`` load which fat-tree layer: ``(edges, pods, crossing)``.

    ``edges`` is the set of their endpoint edge switches; ``pods[p]`` holds,
    in flow order, the demands of the flows with an endpoint in pod p,
    intra-rack flows excluded (each crosses an aggregation switch of p);
    ``crossing`` holds the demands of the inter-pod flows (each crosses a
    core). A caller sizing the layers as HGR's phase 1 does leaves out the
    flows with a component above 1 + CAP_TOL first.
    """
    edge_of = topology._host_edge
    pod_of = topology._host_pod
    edges = set()
    pods = [[] for _ in range(topology.z)]
    crossing = []
    for flow in flows:
        ends = {edge_of[flow.src], edge_of[flow.dst]}
        edges |= ends
        if len(ends) == 1:
            continue
        for pod in {pod_of[flow.src], pod_of[flow.dst]}:
            pods[pod].append(flow.demand)
        if pod_of[flow.src] != pod_of[flow.dst]:
            crossing.append(flow.demand)
    return edges, pods, crossing


def l1_bound(topology, workload, routed):
    """A lower bound on the active processors of any routing of the flows in
    ``routed`` (ids) on a fat-tree whose processors stay within capacity:
    their distinct endpoint edge switches, and the L1 bound of each pod's
    and of the core layer's :func:`layer_items`. Vector packing's L1 bound
    (Caprara & Toth, 2001) on every layer, with no width cap."""
    flows = [flow for flow in workload.flows if flow.id in routed]
    edges, pods, crossing = layer_items(topology, flows)
    unlimited = len(flows)  # no layer needs more switches than there are flows
    return len(edges) + sum(reference_l1_count(items, unlimited) for items in pods) \
        + reference_l1_count(crossing, unlimited)


def first_dimension(workload):
    """``workload`` with every demand cut to its first component, the only
    one SRSP and SRG keep within capacity: their ``l1_bound`` is taken over it."""
    return Workload(tuple(Flow(f.id, f.src, f.dst, f.demand[:1]) for f in workload.flows), 1, z=workload.z)


def reference_route_hgr(topology, workload):
    z = topology.z
    if z is None:
        raise ValueError("HGR requires a fat-tree topology")
    half = z // 2
    flows = workload.flows
    activated = layer_items(topology, flows)[0]  # every flow's edge switches, then the phase-1 estimates
    # a flow that fits no switch is left out; phase 2 reports it unrouted like any router
    _, pod_items, core_items = layer_items(topology, [f for f in flows if max(f.demand) <= 1.0 + CAP_TOL])
    # A layer cannot wake more switches than it has; overload surfaces as
    # unrouted flows in phase 2 instead.
    agg_per_pod = tuple(reference_l1_count(items, half) for items in pod_items)
    cores = reference_l1_count(core_items, half * half)

    for pod in range(z):
        activated.update(topology._agg_ids[pod][:agg_per_pod[pod]])
    activated.update(topology._core_ids[:cores])

    state = ResidualState.fresh(topology, workload.dims)
    every_processor = set(topology.processor_ids)

    def route(woken, room, flow):
        return shortest_path(topology, state.capable(room, woken), None, flow.src, flow.dst)

    for flow in flows:
        room = state.room(flow.demand)
        path = route(activated, room, flow)
        if path is None:
            # an out-of-capacity edge switch cuts the flow off here too
            path = route(every_processor, room, flow)
            if path is None:
                continue
            activated.update(path[1:-1])
        state.commit(flow.id, path, state.pack(flow.demand))
    return state.solution(flows), LayerCounts(agg_per_pod, cores, frozenset(activated))


# Copy of the routing oracle as it stood before it became one branch and
# bound: processor subsets by increasing size, each decided by an exhaustive
# search over single paths through the subset. Two intended changes since:
# a processor takes a flow by the routers' rule as it stood on float loads
# (``float_room``, which the packed rule reproduces exactly), where the
# loads were once compared as ``load + d <= 1 + CAP_TOL``; and a branch is
# undone by putting back the saved load lists, where the demand was once
# subtracted again.

def _reference_subset_feasible(topology, subset, flows, dims):
    loads = {v: [0.0] * dims for v in subset}

    def place(i):
        if i == len(flows):
            return True
        flow = flows[i]
        room = float_room(flow.demand)
        for path in all_simple_paths(topology, flow.src, flow.dst, subset):
            on_path = path[1:-1]
            if not all(all(map(le, loads[v], room)) for v in on_path):
                continue
            saved = {v: loads[v] for v in on_path}
            for v in on_path:
                loads[v] = [l + d for l, d in zip(loads[v], flow.demand)]
            if place(i + 1):
                return True
            loads.update(saved)
        return False

    return place(0)


def reference_oracle_min_active(topology, workload):
    """The fewest processors that carry every flow of ``workload``, or None."""
    procs = topology.processor_ids
    if not workload.flows:
        return 0
    for size in range(len(procs) + 1):
        for subset in itertools.combinations(procs, size):
            if _reference_subset_feasible(topology, frozenset(subset), workload.flows, workload.dims):
                return size
    return None
