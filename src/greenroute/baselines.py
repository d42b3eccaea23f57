"""Comparison algorithms: SRSP, SRG, and MRSP.

The shortest-path baselines are energy-oblivious: each flow, in list order,
takes a hop-minimal path chosen uniformly at random among all hop-minimal
paths whose nodes pass the capability check (ECMP-style spreading, seeded
and deterministic). The hop-minimal search, :func:`_sample_shortest`, also
finds HGR's detours; it grows BFS levels from both endpoints until they
meet. "Single-resource" variants keep their routing state
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

    The search grows whole BFS levels from s and from t, the side with the
    smaller frontier first, and stops after the first level that reaches a
    node the other side has labelled. If the labelled levels are 0..a from s
    and 0..b from t, the hop distance is a + b and every meeting node lies
    in forward level a and backward level b, so neither side reads the
    adjacency of the meeting level (the core layer of a fat-tree).
    """
    if s == t:
        return [s]
    adj = topology._adj
    inner = topology._inner_adj
    # a degree-1 endpoint is reached only from its one neighbour
    s_gate = adj[s][0] if len(adj[s]) == 1 else -1
    t_gate = adj[t][0] if len(adj[t]) == 1 else -1
    from_s: dict[int, int] = {s: 0}  # hop distance from s
    to_t: dict[int, int] = {t: 0}  # hop distance to t
    s_levels, t_levels = [[s]], [[t]]
    blocked: set[int] = set()  # asked and refused
    met = False
    while not met:
        if not s_levels[-1] or not t_levels[-1]:
            return None
        if len(s_levels[-1]) <= len(t_levels[-1]):
            mine, other, levels, gate, end = from_s, to_t, s_levels, t_gate, t
        else:
            mine, other, levels, gate, end = to_t, from_s, t_levels, s_gate, s
        d = len(levels)
        nxt = []
        for u in levels[-1]:
            for v in inner[u]:
                if v in mine or v in blocked:
                    continue
                if v in other:
                    met = True
                elif not enterable(v):
                    blocked.add(v)
                    continue
                mine[v] = d
                nxt.append(v)
            if u == gate:
                mine[end] = d
                nxt.append(end)
                met = True
        levels.append(nxt)
    a, b = len(s_levels) - 1, len(t_levels) - 1

    # The weights of the draw: toward_t[j][v] counts the hop-minimal v-t
    # paths of each node v in backward level j, pushed outward from t.
    toward_t = [{t: 1}]
    for j in range(1, b + 1):
        count: dict[int, int] = {}
        for v, c in toward_t[-1].items():
            for u in inner[v]:
                if to_t.get(u) == j:
                    count[u] = count.get(u, 0) + c
        toward_t.append(count)
    steps = toward_t[:b][::-1]
    if a:
        # The same counts pulled toward s over forward levels a-1..1, kept
        # only for nodes on a hop-minimal s-t path; the meeting nodes of
        # level a take theirs from the backward side.
        count = {m: toward_t[b][m] for m in s_levels[a] if m in to_t}
        ahead = [count]
        for level in s_levels[a - 1:0:-1]:
            pulled = {}
            for v in level:
                c = 0
                for u in adj[v]:
                    c += count.get(u, 0)
                if c:
                    pulled[v] = c
            count = pulled
            ahead.append(count)
        steps = ahead[::-1] + steps
    # Walk from s. Each step's options are the neighbours one hop further
    # along some hop-minimal path, in id order (adjacency is sorted), and
    # stepping with probability proportional to a neighbour's count draws
    # every hop-minimal s-t path with the same probability.
    path = [s]
    v = s
    for count in steps:
        options = [u for u in adj[v] if u in count]
        v = options[0] if rng is None else rng.choices(options, [count[u] for u in options])[0]
        path.append(v)
    return path


def _route_shortest(topology: Topology, workload: Workload, seed: int,
                    view: tuple[int, ...]) -> RoutingSolution:
    for flow in workload.flows:
        topology._check_id(flow.src)
        topology._check_id(flow.dst)
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
