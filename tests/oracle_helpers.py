"""Brute-force reference implementations the tests certify the library against.

Most of it is deliberately written with different algorithms than the
library uses: literal pair enumeration for inversions, exhaustive simple-path
enumeration for shortest paths, and a subset DP for exact bin packing. The
frozen routing and packing references at the end are the library's own
earlier code, kept so its fast or merged paths can be held to
byte-identical output.
"""

import heapq
import itertools
import random

from greenroute import (
    CAP_TOL,
    Node,
    NodeKind,
    Topology,
    VbpResult,
    dimension_weights,
    inv_count,
    is_connected,
    node_to_link_weights,
)

TOL = 1e-9


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
    paths = []

    def walk(u, seen, path):
        for v in topology.neighbors(u):
            if v == t:
                paths.append(path + [t])
            elif v in allowed and v not in seen:
                walk(v, seen | {v}, path + [v])

    if s == t:
        return [[s]]
    walk(s, {s}, [s])
    return paths


def path_link_cost(path, link_weights):
    return sum(link_weights[(min(u, v), max(u, v))] for u, v in zip(path, path[1:]))


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


# -- frozen routing references -------------------------------------------------------
# Verbatim copies of the greedy router and Dijkstra as they stood before the
# stamped pick scan, lazy reachability and dead-end skip. They are slow on
# purpose (a set and a BFS per pending flow per iteration, a link-weight
# dict over every edge per flow); the differential tests require the
# library to reproduce them exactly.

def reference_shortest_path(topology, allowed_nodes, link_weights, s, t):
    if link_weights is not None and link_weights and min(link_weights.values()) < 0:
        raise ValueError("link weights must be nonnegative")
    if s == t:
        return [s]
    allowed = allowed_nodes if isinstance(allowed_nodes, (set, frozenset)) else set(allowed_nodes)
    adj = topology._adj
    done = set()
    heap = [(0.0, 0, (s,))]
    while heap:
        cost, hops, path = heapq.heappop(heap)
        u = path[-1]
        if u in done:
            continue
        done.add(u)
        if u == t:
            return list(path)
        for v in adj[u]:
            if v in done:
                continue
            if v != t and v not in allowed:
                continue
            if link_weights is None:
                w = 1.0
            else:
                w = link_weights[(u, v) if u < v else (v, u)]
            heapq.heappush(heap, (cost + w, hops + 1, path + (v,)))
    return None


def _reference_node_weights(residual, active, demand, topology, view):
    inactive_w = len(view) * (len(view) - 1) // 2 + 1
    demand_view = [demand[k] for k in view]
    weights = {}
    for v in range(len(topology)):
        if topology.is_host(v):
            weights[v] = 0
        elif v in active:
            r = residual[v]
            weights[v] = inv_count([r[k] for k in view], demand_view)
        else:
            weights[v] = inactive_w
    return weights


def reference_route_greedy(topology, workload, seed, view):
    """The greedy router (MRG with the full view, SRG with view (0,)), unoptimized."""
    dims = workload.dims
    rng = random.Random(seed)
    procs = topology.processor_ids
    hosts = topology.host_set
    residual = {v: [1.0] * dims for v in procs}
    load = {v: [0.0] * dims for v in procs}
    active = set()
    pending = list(workload.flows)
    paths = {}
    unrouted = set()

    def capable(v, demand):
        r = residual[v]
        return all(r[k] >= demand[k] - TOL for k in view)

    while pending:
        pick = None
        for i, flow in enumerate(pending):
            usable = {v for v in active if capable(v, flow.demand)}
            if is_connected(topology, usable, flow.src, flow.dst):
                pick = i
                break
        if pick is None:
            pick = rng.randrange(len(pending))
        flow = pending.pop(pick)
        demand = flow.demand

        allowed = {v for v in procs if capable(v, demand)} | hosts
        weights = _reference_node_weights(residual, active, demand, topology, view)
        link_w = node_to_link_weights(topology, weights)
        path = reference_shortest_path(topology, allowed, link_w, flow.src, flow.dst)
        if path is None:
            unrouted.add(flow.id)
            continue
        paths[flow.id] = tuple(path)
        for v in path:
            if v not in hosts:
                r = residual[v]
                l = load[v]
                for k in range(dims):
                    r[k] -= demand[k]
                    l[k] += demand[k]
                active.add(v)
    return paths, frozenset(unrouted), {v: tuple(load[v]) for v in procs}


def reference_online_arrival(state, topology, flow):
    """Online arrival with full weight and link-weight tables per flow; commits like the library."""
    demand = flow.demand
    dims = len(demand)

    def capable(v):
        return all(r >= d - TOL for r, d in zip(state.residual[v], demand))

    usable_active = {v for v in state.active if capable(v)}
    weights = _reference_node_weights(state.residual, state.active, demand, topology, tuple(range(dims)))
    link_w = node_to_link_weights(topology, weights)
    if is_connected(topology, usable_active, flow.src, flow.dst):
        path = reference_shortest_path(topology, usable_active, link_w, flow.src, flow.dst)
    else:
        allowed = {v for v in topology.processor_ids if capable(v)} | topology.host_set
        path = reference_shortest_path(topology, allowed, link_w, flow.src, flow.dst)
    if path is None:
        return None
    for v in path:
        if not topology.is_host(v):
            r = state.residual[v]
            for k, d in enumerate(demand):
                r[k] -= d
            state.active.add(v)
    state.committed[flow.id] = tuple(path)
    return tuple(path)


# Verbatim copies of the two hop-minimal searches as they stood before they
# were merged into one: the seeded ECMP draw of the shortest-path baselines
# (a BFS from s, then path counts per level) and HGR's lexicographic detour
# search (a BFS from t, then a smallest-id walk).

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


def reference_hop_shortest_lex(topology, allowed, s, t):
    if s == t:
        return [s]
    adj = topology._adj
    dist_t = {t: 0}
    frontier = [t]
    level = 0
    while frontier and s not in dist_t:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in dist_t:
                    continue
                if v == s:
                    dist_t[v] = level
                elif v in allowed:
                    dist_t[v] = level
                    nxt.append(v)
        frontier = nxt
    if s not in dist_t:
        return None
    path = [s]
    v = s
    remaining = dist_t[s]
    while v != t:
        remaining -= 1
        v = min(u for u in adj[v] if dist_t.get(u, -1) == remaining)
        path.append(v)
    return path



# Verbatim copy of the vector bin packer as it stood before its scan was
# pruned: every placement rescores every remaining item in index order.

def reference_vbp_greedy(items):
    items = [tuple(float(c) for c in item) for item in items]
    for i, item in enumerate(items):
        if not all(0 < c <= 1 for c in item):
            raise ValueError(f"item {i} does not fit a unit bin: {item}")
    if not items:
        return VbpResult(0, {}, ())
    alphas = dimension_weights(items)
    dim_range = range(len(alphas))

    remaining = list(range(len(items)))
    assignment = {}
    residuals = []
    current = [1.0] * len(alphas)
    while remaining:
        best = -1
        best_score = float("inf")
        for i in remaining:
            item = items[i]
            score = 0.0
            for k in dim_range:
                r = current[k]
                c = item[k]
                if r < c - CAP_TOL:
                    score = -1.0
                    break
                d = r - c
                score += alphas[k] * d * d
            if score >= 0.0 and score < best_score:
                best, best_score = i, score
        if best < 0:
            residuals.append(tuple(current))
            current = [1.0] * len(alphas)
            continue
        assignment[best] = len(residuals) + 1
        for k in dim_range:
            current[k] -= items[best][k]
        remaining.remove(best)
    residuals.append(tuple(current))
    return VbpResult(len(residuals), assignment, tuple(residuals))
