"""Hierarchical green routing (HGR) on fat-trees, and the paper's vector bin packer.

Every flow must run between two hosts (``Topology._check_hosts``). Phase 1
sizes each layer independently by the L1 bound of vector packing
(Caprara & Toth, 2001), with no packer: per pod, over the flows entering
or leaving the pod, and for the core layer, over the inter-pod flows
(intra-rack traffic and flows that fit no idle switch excluded).
The bound is the largest per-dimension demand sum rounded up, capped at
the layer's width, and escalation in phase 2 wakes whatever more
switches the paths need.

:func:`vbp_greedy` is the paper's packer, kept public but no longer on
HGR's path: a bin-centric greedy that, for each placement, scores every
remaining item by its weighted squared difference to the bin residual, with
per-dimension weights proportional to total demand mass, and places the
fitting item that scores lowest.

Phase 2 materializes paths, which the counts alone do not give: the
lowest-position switches per layer are activated to the phase-1 counts, and
each flow is routed by the lex-min hop-shortest path over activated nodes
that fit it (state, capability rule and commit are the shared
:class:`greenroute.mrg.ResidualState`). One path rule, built by
:func:`_tree_router` with the fat-tree's tables bound, scans the fixed 2-,
4- and 6-hop shapes in switch-position order. When they are all blocked it
refuses without a search where no detour exists (an intra-pod flow, or an
inter-pod flow whose source or destination pod has no position with an
aggregation switch and a core that fit), builds the 10-hop detour through
one third pod by shape, and leaves only longer detours and "no path" to
the hop search. A flow whose edge switches do not both fit it
stays unrouted and wakes nothing: no activation helps it. Any other flow
whose first try fails escalates by the same rule over every processor,
woken or not: if that finds a path, its switches are activated and the
flow is committed; if not, the flow stays unrouted. So every switch woken
beyond phase 1 (every flow's edge switches and the estimate) carries load.
The solution reports the processors actually carrying load, and the
activated set is reported alongside the per-layer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite
from typing import AbstractSet, Sequence

from .mrg import CAP_TOL, ResidualState, RoutingSolution, _sample_shortest
from .topology import Topology
from .workload import Workload, on_grid


@dataclass(frozen=True)
class VbpResult:
    """A greedy packing: bins are numbered from 1 and none is empty."""

    bin_count: int
    assignment: dict[int, int]
    bin_residuals: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class LayerCounts:
    """Per-layer activation estimates plus the set phase 2 actually woke up.

    Phase 1 woke every flow's edge switches, the lowest ``agg_per_pod[p]``
    aggregation switches of each pod p (the L1 bound of the flows entering
    or leaving p) and the lowest ``cores`` core switches (the inter-pod
    flows' L1 bound); no packer runs. Phase 2 adds only the switches of
    escalated paths, so every switch in ``activated`` beyond those lies on
    a routed path.
    """

    agg_per_pod: tuple[int, ...]
    cores: int
    activated: frozenset[int]

    @property
    def estimate(self) -> int:
        return sum(self.agg_per_pod) + self.cores


def dimension_weights(items: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Relative importance of each dimension: its demand mass over the total mass.

    Every component must be finite and strictly positive, as a flow's demand is.
    """
    if not items:
        raise ValueError("dimension weights need a nonempty instance")
    dims = len(items[0])
    per_dim = [0.0] * dims
    for i, item in enumerate(items):
        if len(item) != dims:
            raise ValueError("items must share one dimension count")
        for k, c in enumerate(item):
            if not (c > 0 and isfinite(c)):
                raise ValueError(f"item {i}: components must be finite and strictly positive: {item}")
            per_dim[k] += c
    total = sum(per_dim)
    return tuple(c / total for c in per_dim)


def vbp_greedy(items: Sequence[Sequence[float]]) -> VbpResult:
    """Pack items into unit bins, one bin at a time.

    Among the remaining items that fit the open bin, the one minimizing
    sum_k alpha_k * (residual_k - item_k)^2 is packed (ties go to the lowest
    item index); when nothing fits, the bin closes and a fresh one opens.
    The weights alpha are computed once from the whole instance. Items are
    rounded by :func:`on_grid`, as demands are; the open bin is one
    processor of a :class:`ResidualState`, and an item fits when the bin's
    load is within the item's room, by the routers' rule
    (:meth:`ResidualState.fits`); the residuals, in the score and in the
    result, are 1 minus the items, by subtraction.
    """
    items = [on_grid(map(float, item)) for item in items]
    for i, item in enumerate(items):
        if not all(0 < c <= 1.0 + CAP_TOL for c in item):  # refuses NaN too
            raise ValueError(f"item {i} does not fit a unit bin: {item}")
    if not items:
        return VbpResult(0, {}, ())
    alphas = dimension_weights(items)
    dims = len(alphas)
    dim_range = range(dims)
    open_bin = ResidualState({0: 0}, set(), dims)  # its load is processor 0's
    rooms = [open_bin.room(item) for item in items]
    packed = [open_bin.pack(item) for item in items]

    remaining = list(range(len(items)))
    assignment: dict[int, int] = {}
    residuals: list[tuple[float, ...]] = []
    current = [1.0] * dims
    while remaining:
        best = -1
        best_score = float("inf")
        for i in remaining:
            if not open_bin.fits(0, rooms[i]):
                continue
            item = items[i]
            score = 0.0
            for k in dim_range:
                d = current[k] - item[k]
                score += alphas[k] * d * d
            if score < best_score:
                best, best_score = i, score
        if best < 0:
            residuals.append(tuple(current))
            current = [1.0] * dims
            open_bin.packed[0] = 0
            continue
        assignment[best] = len(residuals) + 1
        for k in dim_range:
            current[k] -= items[best][k]
        open_bin.packed[0] += packed[best]
        remaining.remove(best)
    residuals.append(tuple(current))
    return VbpResult(len(residuals), assignment, tuple(residuals))


def _tree_router(topology: Topology, state: ResidualState, activated: AbstractSet[int]):
    """``route(room, src, dst)``: the lex-min hop-shortest path over activated nodes that fit ``room``.

    ``src`` and ``dst`` must be hosts whose edge switches are activated and
    fit ``room``; they are not tested again. ``route`` reads ``state`` and
    ``activated`` as they are at each call. Below, a node is *usable* when
    it is activated and fits ``room``, and a position g is usable in a pod
    when that pod's aggregation switch at g and some core of group g are.

    Fat-tree shortest paths have fixed shapes (2, 4, or 6 hops), so the
    lex-min one is picked by scanning switch positions in id order. Every
    path leaves an edge switch through an aggregation switch of its pod,
    which reaches every edge switch of the pod, so an intra-pod flow with
    no 4-hop path has no path. An inter-pod flow with no 6-hop path has no
    8-hop one either: each such path holds the switches of a 6-hop path.
    Each of its paths leaves the source pod, and enters the destination
    pod, through a usable position, so without one on either side it has
    none. Otherwise each 10-hop path climbs at a usable source position g1,
    comes down in a third pod x, crosses x through an edge switch, climbs
    again at a usable destination position g2 and comes down in the
    destination pod: ``[src, e_s, a_s(g1), c1, a_x(g1), e_x, a_x(g2), c2,
    a_t(g2), e_t, dst]``. Ids grow with the position, the pod and the
    switch, so the lowest g1 that some x completes, then the lowest core
    of g1, the lowest such x, its lowest usable edge switch, the lowest g2
    and its lowest core give the lex-min one. Only longer detours, through
    two or more third pods, and "no path" are left to the hop search.
    """
    load, guard = state.packed, state.guard
    edge_of = topology._host_edge
    pod_of = topology._host_pod
    edge_ids = topology._edge_ids
    agg_ids = topology._agg_ids
    core_groups = topology._core_groups
    pods = range(topology.z)

    def route(room: int, src: int, dst: int) -> list[int] | None:
        # v is usable iff v in activated and (room - load[v]) & guard == guard (ResidualState.fits)
        e_s = edge_of[src]
        e_t = edge_of[dst]
        if e_s == e_t:
            return [src, e_s, dst]
        src_pod = pod_of[src]
        dst_pod = pod_of[dst]
        if src_pod == dst_pod:
            for a in agg_ids[src_pod]:
                if a in activated and (room - load[a]) & guard == guard:
                    return [src, e_s, a, e_t, dst]
            return None
        for a_s, a_t, group in zip(agg_ids[src_pod], agg_ids[dst_pod], core_groups):
            if not (a_s in activated and (room - load[a_s]) & guard == guard
                    and a_t in activated and (room - load[a_t]) & guard == guard):
                continue
            for core in group:
                if core in activated and (room - load[core]) & guard == guard:
                    return [src, e_s, a_s, core, a_t, e_t, dst]
        return detour(room, src, dst, e_s, e_t, src_pod, dst_pod)

    def detour(room: int, src: int, dst: int, e_s: int, e_t: int,
               src_pod: int, dst_pod: int) -> list[int] | None:
        """The lex-min path of an inter-pod flow that has no 6-hop path."""

        def usable(v: int) -> bool:
            return v in activated and (room - load[v]) & guard == guard

        lowest: dict[int, int | None] = {}  # per position, its lowest usable core

        def core_at(g: int) -> int | None:
            if g not in lowest:
                lowest[g] = next(filter(usable, core_groups[g]), None)
            return lowest[g]

        aggs_s, aggs_t = agg_ids[src_pod], agg_ids[dst_pod]
        up = [g for g, a in enumerate(aggs_s) if usable(a) and core_at(g) is not None]
        if not up:
            return None
        down = [g for g, a in enumerate(aggs_t) if usable(a) and core_at(g) is not None]
        if not down:
            return None
        legs: dict[int, tuple[int, int] | None] = {}  # per third pod, its (e_x, g2)

        def leg(x: int) -> tuple[int, int] | None:
            if x not in legs:
                aggs_x = agg_ids[x]
                g2 = next((g for g in down if usable(aggs_x[g])), None)
                e_x = None if g2 is None else next(filter(usable, edge_ids[x]), None)
                legs[x] = None if e_x is None else (e_x, g2)
            return legs[x]

        for g1 in up:
            for x in pods:
                if x == src_pod or x == dst_pod:
                    continue
                a_x = agg_ids[x][g1]
                if usable(a_x) and (found := leg(x)) is not None:
                    e_x, g2 = found
                    return [src, e_s, aggs_s[g1], core_at(g1), a_x, e_x, agg_ids[x][g2], core_at(g2),
                            aggs_t[g2], e_t, dst]
        return _sample_shortest(topology, usable, src, dst)

    return route


def _l1_count(items: Sequence[Sequence[float]], limit: int) -> int:
    """The L1 bound of packing ``items`` into switches, capped at ``limit``.

    That is the largest per-dimension demand sum, rounded up, in units of
    1 + CAP_TOL: what a switch carries in each dimension (``fits``). No items: 0.
    """
    load = max(map(sum, zip(*items)), default=0.0)
    return min(limit, ceil(load / (1.0 + CAP_TOL)))


def route_hgr(topology: Topology, workload: Workload) -> tuple[RoutingSolution, LayerCounts]:
    """Hierarchical routing: bound each pod and the core layer, then materialize paths."""
    z = topology.z
    if z is None:
        raise ValueError("HGR requires a fat-tree topology")
    half = z // 2
    flows = workload.flows
    topology._check_hosts(flows)
    edge_of = topology._host_edge
    pod_of = topology._host_pod

    activated: set[int] = set()  # every flow's edge switches, then the phase-1 estimates
    pod_items: list[list[tuple[float, ...]]] = [[] for _ in range(z)]
    core_items: list[tuple[float, ...]] = []
    for flow in flows:
        src, dst, demand = flow.src, flow.dst, flow.demand
        e_s = edge_of[src]
        e_t = edge_of[dst]
        activated.add(e_s)
        activated.add(e_t)
        if e_s == e_t:
            continue  # intra-rack: touches no aggregation or core switch
        if max(demand) > 1.0 + CAP_TOL:
            continue  # no switch holds it; phase 2 routes it by the capability rule like any router
        src_pod = pod_of[src]
        dst_pod = pod_of[dst]
        pod_items[src_pod].append(demand)
        if dst_pod != src_pod:
            pod_items[dst_pod].append(demand)
            core_items.append(demand)
    # A layer cannot wake more switches than it has; overload surfaces as
    # unrouted flows in phase 2 instead.
    agg_per_pod = tuple(_l1_count(items, half) for items in pod_items)
    cores = _l1_count(core_items, half * half)

    for aggs, count in zip(topology._agg_ids, agg_per_pod):
        activated.update(aggs[:count])
    activated.update(topology._core_ids[:cores])

    state = ResidualState.fresh(topology, workload.dims)
    load, guard, room_of, pack, commit = state.packed, state.guard, state.room, state.pack, state.commit
    route = _tree_router(topology, state, activated)
    escalate = _tree_router(topology, state, frozenset(topology.processor_ids))
    for flow in flows:
        src, dst, demand = flow.src, flow.dst, flow.demand
        packed = pack(demand)
        room = room_of(demand, packed)
        # an out-of-capacity edge switch cuts the flow off; no activation helps
        if not ((room - load[edge_of[src]]) & guard == guard
                and (room - load[edge_of[dst]]) & guard == guard):
            continue
        path = route(room, src, dst)
        if path is None:
            path = escalate(room, src, dst)
            if path is None:
                continue
            activated.update(path[1:-1])
        commit(flow.id, path, packed)
    return state.solution(flows), LayerCounts(agg_per_pod, cores, frozenset(activated))
