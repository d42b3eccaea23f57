"""Hierarchical green routing (HGR) on fat-trees via vector bin packing.

Phase 1 sizes each layer independently: per pod, the flows entering or
leaving the pod (intra-rack traffic excluded) are packed into unit bins to
estimate how many aggregation switches the pod needs; per core group, the
inter-pod flows hashed to that group are packed to size the group. The
packer is a bin-centric greedy that repeatedly places the fitting item
minimizing a weighted squared difference to the bin residual, with
per-dimension weights proportional to total demand mass.

Phase 2 materializes paths, which the counts alone do not give: the
lowest-position switches per layer are activated to the phase-1 counts,
flows are routed by capacity-aware hop-shortest paths restricted to
activated nodes, and a blocked flow escalates by waking the next
lowest-position switch in its candidate layers (round-robin over core,
src-pod aggregation, dst-pod aggregation) until it routes or the layers are
exhausted. Escalation can wake more nodes than the estimate; the solution
reports the processors actually carrying load, and the activated set is
reported alongside the per-layer counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .mrg import CAP_TOL, RoutingSolution, finalize_solution
from .topology import Topology
from .workload import Flow, Workload


@dataclass(frozen=True)
class VbpResult:
    """A greedy packing: bins are numbered from 1 and none is empty."""

    bin_count: int
    assignment: dict[int, int]
    bin_residuals: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class LayerCounts:
    """Per-layer activation estimates plus the set phase 2 actually woke up."""

    agg_per_pod: tuple[int, ...]
    core_per_group: tuple[int, ...]
    activated: frozenset[int]

    @property
    def estimate(self) -> int:
        return sum(self.agg_per_pod) + sum(self.core_per_group)


def dimension_weights(items: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Relative importance of each dimension: its demand mass over the total mass."""
    if not items:
        raise ValueError("dimension weights need a nonempty instance")
    dims = len(items[0])
    per_dim = [0.0] * dims
    for item in items:
        if len(item) != dims:
            raise ValueError("items must share one dimension count")
        for k, c in enumerate(item):
            per_dim[k] += c
    total = sum(per_dim)
    return tuple(c / total for c in per_dim)


def vbp_greedy(items: Sequence[Sequence[float]]) -> VbpResult:
    """Pack items into unit bins, one bin at a time.

    Among the remaining items that fit the open bin, the one minimizing
    sum_k alpha_k * (residual_k - item_k)^2 is packed (ties go to the lowest
    item index); when nothing fits, the bin closes and a fresh one opens.
    The weights alpha are computed once from the whole instance.
    """
    items = [tuple(float(c) for c in item) for item in items]
    for i, item in enumerate(items):
        if any(c <= 0 or c > 1 for c in item):
            raise ValueError(f"item {i} does not fit a unit bin: {item}")
    if not items:
        return VbpResult(0, {}, ())
    alphas = dimension_weights(items)
    dim_range = range(len(alphas))

    remaining = list(range(len(items)))
    assignment: dict[int, int] = {}
    residuals: list[tuple[float, ...]] = []
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


def core_group_of_flow(flow: Flow, topology: Topology) -> int:
    """Deterministic core group of an inter-pod flow: src host index in its pod, mod z/2."""
    z = topology.z
    if z is None:
        raise ValueError("core groups exist only on fat-trees")
    if topology.pod_of_host(flow.src) == topology.pod_of_host(flow.dst):
        raise ValueError(f"flow {flow.id} stays inside one pod and uses no core switch")
    return topology.host_index_in_pod(flow.src) % (z // 2)


def _hop_shortest_lex(topology: Topology, allowed: set[int], s: int, t: int) -> list[int] | None:
    """Hop-minimal s-t path, lexicographically smallest among the minimal ones.

    Equivalent to :func:`greenroute.mrg.shortest_path` with unit weights: a
    BFS from the destination labels distances, then a greedy walk from the
    source always steps to the smallest-id neighbor that is one hop closer.
    """
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


def _route_on_tree(topology: Topology, residual, activated: set[int],
                   demand, src: int, dst: int, dim_range: range) -> list[int] | None:
    """Lex-min hop-shortest path over capable activated nodes, built structurally.

    Fat-tree shortest paths have fixed shapes (2, 4, or 6 hops), so the
    lex-min one can be picked by scanning switch positions in id order; a
    graph search is only needed for longer detours when every minimum-length
    path is out of capacity. ``src`` and ``dst`` must be hosts.
    """
    def ok(v: int) -> bool:
        if v not in activated:
            return False
        r = residual[v]
        for k in dim_range:
            if r[k] < demand[k] - CAP_TOL:
                return False
        return True

    e_s = topology._host_edge[src]
    e_t = topology._host_edge[dst]
    if e_s == e_t:
        return [src, e_s, dst] if ok(e_s) else None
    if not ok(e_s) or not ok(e_t):
        return None  # both edge switches are cut vertices for this flow
    src_pod = topology._host_pod[src]
    dst_pod = topology._host_pod[dst]
    if src_pod == dst_pod:
        for a in topology.aggregation_ids(src_pod):
            if ok(a):
                return [src, e_s, a, e_t, dst]
    else:
        half = topology.z // 2
        cores = topology.core_ids()
        src_aggs = topology.aggregation_ids(src_pod)
        dst_aggs = topology.aggregation_ids(dst_pod)
        for pos in range(half):
            if not (ok(src_aggs[pos]) and ok(dst_aggs[pos])):
                continue
            for core in cores[pos * half:(pos + 1) * half]:
                if ok(core):
                    return [src, e_s, src_aggs[pos], core, dst_aggs[pos], e_t, dst]
    # every minimum-length path is blocked; look for longer detours
    allowed = {v for v in activated if ok(v)}
    return _hop_shortest_lex(topology, allowed, src, dst)


def _escalation(topology: Topology, activated: set[int], src_pod: int, dst_pod: int,
                inter_pod: bool) -> Iterator[int]:
    # Round-robin over the flow's candidate layers, lowest position first.
    # Cores go first: a blocked inter-pod flow is most often out of core
    # capacity, and one extra core is cheaper than waking aggregation
    # switches in two pods.
    lanes = []
    if inter_pod:
        lanes.append(deque(c for c in topology.core_ids() if c not in activated))
    lanes.append(deque(a for a in topology.aggregation_ids(src_pod) if a not in activated))
    if dst_pod != src_pod:
        lanes.append(deque(a for a in topology.aggregation_ids(dst_pod) if a not in activated))
    while True:
        progressed = False
        for lane in lanes:
            if lane:
                progressed = True
                yield lane.popleft()
        if not progressed:
            return


def _layer_count(items: list[tuple[float, ...]], half: int) -> int:
    """``min(vbp_greedy(items).bin_count, half)``, skipping the packer when one bin holds all.

    If no dimension's demand sum exceeds 1.0, every item fits the first bin
    (rounding over fewer than a million items stays far below the 1e-9
    tolerance), so the packer would open exactly one. Items that are too big
    or NaN fail this test and reach ``vbp_greedy``, which handles them.
    """
    if not items:
        return 0
    if all(total <= 1.0 for total in map(sum, zip(*items))):
        return 1
    return min(vbp_greedy(items).bin_count, half)


def route_hgr(topology: Topology, workload: Workload) -> tuple[RoutingSolution, LayerCounts]:
    """Hierarchical routing: size layers by bin packing, then materialize paths."""
    z = topology.z
    if z is None:
        raise ValueError("HGR requires a fat-tree topology")
    half = z // 2
    dims = workload.dims
    flows = workload.flows
    hosts = topology.host_set
    for flow in flows:
        for h in (flow.src, flow.dst):
            if h not in hosts:
                raise ValueError(f"node {h} is not a host")
    edge_of = topology._host_edge
    pod_of = topology._host_pod

    pod_items: list[list[tuple[float, ...]]] = [[] for _ in range(z)]
    group_items: list[list[tuple[float, ...]]] = [[] for _ in range(half)]
    for flow in flows:
        if edge_of[flow.src] == edge_of[flow.dst]:
            continue  # intra-rack: touches no aggregation or core switch
        src_pod = pod_of[flow.src]
        dst_pod = pod_of[flow.dst]
        pod_items[src_pod].append(flow.demand)
        if dst_pod != src_pod:
            pod_items[dst_pod].append(flow.demand)
            # same group as core_group_of_flow(flow, topology)
            group_items[topology._host_index[flow.src] % half].append(flow.demand)
    # A layer cannot wake more switches than it has; overload surfaces as
    # unrouted flows in phase 2 instead.
    agg_per_pod = tuple(_layer_count(items, half) for items in pod_items)
    core_per_group = tuple(_layer_count(items, half) for items in group_items)

    activated: set[int] = set()
    for flow in flows:
        activated.add(edge_of[flow.src])
        activated.add(edge_of[flow.dst])
    cores = topology.core_ids()
    for pod in range(z):
        activated.update(topology.aggregation_ids(pod)[:agg_per_pod[pod]])
    for group in range(half):
        activated.update(cores[group * half:group * half + core_per_group[group]])

    residual = {v: [1.0] * dims for v in topology.processor_ids}
    load = {v: [0.0] * dims for v in topology.processor_ids}
    paths: dict[int, tuple[int, ...]] = {}
    unrouted: set[int] = set()
    dim_range = range(dims)

    def edge_capable(edge: int, demand) -> bool:
        r = residual[edge]
        for k in dim_range:
            if r[k] < demand[k] - CAP_TOL:
                return False
        return True

    for flow in flows:
        demand = flow.demand
        # an out-of-capacity edge switch cuts the flow off; no activation helps
        if not (edge_capable(edge_of[flow.src], demand) and edge_capable(edge_of[flow.dst], demand)):
            unrouted.add(flow.id)
            continue
        wake = None
        path = None
        while True:
            path = _route_on_tree(topology, residual, activated, demand,
                                  flow.src, flow.dst, dim_range)
            if path is not None:
                break
            if wake is None:
                src_pod = pod_of[flow.src]
                dst_pod = pod_of[flow.dst]
                wake = _escalation(topology, activated, src_pod, dst_pod, src_pod != dst_pod)
            nxt = next(wake, None)
            if nxt is None:
                break
            activated.add(nxt)
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
    solution = finalize_solution(topology, paths, unrouted, load)
    return solution, LayerCounts(agg_per_pod, core_per_group, frozenset(activated))
