"""Independent checks of routing outputs, and the canonical output digest.

Nothing here calls routing code. Paths, per-node loads, the active set and
congestion are recomputed from the topology's edge list and the flows'
demands, then compared with what the router returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

TOL = 1e-9


def adjacency(topology) -> dict[int, set[int]]:
    """Neighbour sets rebuilt from the topology's edge list."""
    adj: dict[int, set[int]] = {v: set() for v in range(len(topology.nodes))}
    for u, v in topology.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def path_errors(adj, processors, path, src: int, dst: int) -> list[str]:
    """Problems with ``path`` as a simple src-to-dst path over processors."""
    path = list(path)
    if len(path) < 2 or path[0] != src or path[-1] != dst:
        return [f"path {path} does not run from {src} to {dst}"]
    errors = []
    if len(set(path)) != len(path):
        errors.append(f"path {path} repeats a node")
    for u, v in zip(path, path[1:]):
        if v not in adj[u]:
            errors.append(f"path {path} uses the non-edge ({u}, {v})")
    if any(v not in processors for v in path[1:-1]):
        errors.append(f"path {path} passes through a host")
    return errors


@dataclass
class Outcome:
    """What the checks recomputed for one solution, plus every problem found."""

    errors: list[str] = field(default_factory=list)
    routed: int = 0
    unrouted: int = 0
    active: int = 0
    congested: int = 0


def check_solution(topology, adj, workload, solution, *, capacity: bool,
                   activated=None) -> Outcome:
    """Check a batch ``RoutingSolution`` against ``workload``.

    ``capacity`` demands that no processor exceeds 1 in any dimension;
    ``activated`` (HGR's woken set) must contain the active set.
    """
    out = Outcome(routed=len(solution.paths), unrouted=len(solution.unrouted))
    errors = out.errors
    flow_ids = set(range(len(workload.flows)))
    routed, unrouted = set(solution.paths), set(solution.unrouted)
    if routed & unrouted:
        errors.append(f"flows both routed and unrouted: {sorted(routed & unrouted)[:5]}")
    if routed | unrouted != flow_ids:
        errors.append("routed and unrouted ids do not partition the workload")
    processors = set(topology.processor_ids)
    load = {v: [0.0] * workload.dims for v in processors}
    for fid in sorted(routed & flow_ids):
        flow = workload.flows[fid]
        path = solution.paths[fid]
        errors.extend(path_errors(adj, processors, path, flow.src, flow.dst))
        for v in path:
            if v in load:
                row = load[v]
                for k, d in enumerate(flow.demand):
                    row[k] += d
    if set(solution.load) != processors:
        errors.append("load is not reported for exactly the processors")
    for v in processors & set(solution.load):
        if any(abs(a - b) > TOL for a, b in zip(solution.load[v], load[v])):
            errors.append(f"node {v}: reported load differs from the demand sum")
    carrying = {v for v in processors if any(c > 0.0 for c in load[v])}
    if set(solution.active) != carrying:
        errors.append("active set differs from the processors carrying load")
    over = {v for v in carrying if any(c > 1.0 + TOL for c in load[v])}
    if capacity and over:
        errors.append(f"{len(over)} processors exceed capacity")
    if activated is not None and not carrying <= set(activated):
        errors.append("activated set misses some load-carrying processors")
    out.active = len(carrying)
    out.congested = len(over)
    return out


def check_online_state(topology, state, live) -> list[str]:
    """Check live online state against the flows still routed.

    ``live`` maps flow id to ``(flow, path)``; residuals must equal 1 minus
    the demand sums, the active set must be the processors carrying load,
    and no processor may exceed capacity.
    """
    errors = []
    if dict(state.committed) != {fid: tuple(p) for fid, (_, p) in live.items()}:
        errors.append("committed paths differ from the live flows")
    processors = set(topology.processor_ids)
    dims = len(next(iter(state.residual.values())))
    load = {v: [0.0] * dims for v in processors}
    for flow, path in live.values():
        for v in path:
            if v in load:
                for k, d in enumerate(flow.demand):
                    load[v][k] += d
    for v in processors:
        if any(abs((1.0 - r) - c) > TOL for r, c in zip(state.residual[v], load[v])):
            errors.append(f"node {v}: residual differs from 1 minus the live demand")
        if any(c > 1.0 + TOL for c in load[v]):
            errors.append(f"node {v}: exceeds capacity")
    carrying = {v for v in processors if any(c > 0.0 for c in load[v])}
    if set(state.active) != carrying:
        errors.append("active set differs from the processors carrying load")
    return errors


def capable_path_exists(adj, load, demand, src: int, dst: int) -> bool:
    """Whether any src-dst path crosses only processors with room for ``demand``.

    ``load`` maps each processor to its load per dimension; capacity is 1.
    """
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v == dst:
                return True
            if v in seen or v not in load:
                continue
            if all(c + d <= 1.0 + TOL for c, d in zip(load[v], demand)):
                seen.add(v)
                stack.append(v)
    return False


def canonical(solution) -> bytes:
    """Canonical bytes of a solution's paths and unrouted ids."""
    doc = [sorted((fid, list(p)) for fid, p in solution.paths.items()), sorted(solution.unrouted)]
    return json.dumps(doc, separators=(",", ":")).encode()
