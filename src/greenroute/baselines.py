"""Comparison algorithms: SRSP, SRG, and MRSP.

The shortest-path baselines are energy-oblivious: each flow, in list order,
takes a hop-minimal path chosen uniformly at random among all hop-minimal
paths whose nodes pass the capability check (ECMP-style spreading, seeded
and deterministic). "Single-resource" variants keep their routing state
on dimension 1 only, so capability is checked there; committed loads are
always summed in all dimensions so congestion stays measurable. SRG is
the greedy router run on the dimension-1 projection of every vector.
"""

from __future__ import annotations

import random

from .mrg import CAP_TOL, ResidualState, RoutingSolution, _route_greedy, finalize_solution
from .topology import Topology
from .workload import Workload


def _sample_shortest(topology: Topology, enterable, s: int, t: int,
                     rng: random.Random | None = None) -> list[int] | None:
    """A hop-minimal s-t path whose interior nodes pass ``enterable(v)``, or ``None``.

    With ``rng``, a uniform random draw among all hop-minimal paths; without,
    the lexicographically smallest (:func:`greenroute.mrg.shortest_path` with
    unit weights). ``enterable`` is asked at most once per node, and never
    about a degree-1 node other than s and t: it lies on no simple s-t path.
    """
    if s == t:
        return [s]
    adj = topology._adj
    inner = topology._inner_adj
    s_gate = adj[s][0] if len(adj[s]) == 1 else -1  # a degree-1 s is reached only from here
    # BFS outward from t labels hop distances to t; a hop-minimal path from s
    # steps to a neighbour one hop closer each time.
    dist: dict[int, int | None] = {t: 0}  # None: may not be entered
    levels = [[t]]
    while levels[-1] and s not in dist:
        d = len(levels)
        nxt = []
        for u in levels[-1]:
            for v in inner[u]:
                if v not in dist:
                    if v == s or enterable(v):
                        dist[v] = d
                        nxt.append(v)  # s ends the search, so it is never expanded
                    else:
                        dist[v] = None
            if u == s_gate:
                dist[s] = d
        levels.append(nxt)
    if s not in dist:
        return None

    if rng is not None:
        # count[v]: number of hop-minimal v-t paths. Stepping to a closer
        # neighbour with probability proportional to its count draws every
        # hop-minimal s-t path with the same probability.
        count = {t: 1}
        for level in levels[1:-1]:
            for v in level:
                d = dist[v] - 1
                c = 0
                for u in adj[v]:
                    if dist.get(u) == d:
                        c += count[u]
                count[v] = c
    path = [s]
    v = s
    for d in range(dist[s] - 1, -1, -1):
        options = [u for u in adj[v] if dist.get(u) == d]  # in id order: adjacency is sorted
        v = options[0] if rng is None else rng.choices(options, [count[u] for u in options])[0]
        path.append(v)
    return path


def _route_shortest(topology: Topology, workload: Workload, seed: int,
                    view: tuple[int, ...]) -> RoutingSolution:
    rng = random.Random(seed)
    hosts = topology.host_set
    state = ResidualState.fresh(topology, len(view))
    fits = state.fits
    unrouted: set[int] = set()
    for flow in workload.flows:
        demand = [flow.demand[k] for k in view]
        need = [d - CAP_TOL for d in demand]

        def enterable(v: int) -> bool:
            return v not in hosts and fits(v, need)

        path = _sample_shortest(topology, enterable, flow.src, flow.dst, rng)
        if path is None:
            unrouted.add(flow.id)
            continue
        state.commit(flow.id, path, demand)
    return finalize_solution(topology, workload, state.committed, unrouted)


def route_srsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Shortest Path: hop-minimal routing, capability on dimension 1 only."""
    return _route_shortest(topology, workload, seed, (0,))


def route_mrsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Multi-Resource Shortest Path: hop-minimal routing, capability in all dimensions."""
    return _route_shortest(topology, workload, seed, tuple(range(workload.dims)))


def route_srg(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Green: the greedy router with every vector projected to dimension 1."""
    return _route_greedy(topology, workload, seed, (0,))
