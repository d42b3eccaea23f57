"""Comparison algorithms: SRSP, SRG, and MRSP.

The shortest-path baselines are energy-oblivious: each flow, in list order,
takes a hop-minimal path chosen uniformly at random among all hop-minimal
paths whose nodes pass the capability check (ECMP-style spreading, seeded
and deterministic), drawn by the shared hop-minimal search
:func:`greenroute.mrg._sample_shortest`. On a fat-tree, a drawer built once
per call (:func:`greenroute.mrg._tree_drawer`) reads the draw off the
tree's fixed path shapes instead and answers exactly as that search does,
the same path and the same random draws; it falls back to the search for
detours and for "no path". It takes a pod's aggregation switches, or a
core group, whole when the per-dimension maximum of their loads fits the
flow, so most switches are never tested one by one; the output is
unchanged. "Single-resource" variants see
dimension 1 only: capability is checked there, and SRG's node weights
compare only that dimension. Loads are always kept in all dimensions, so
congestion in the others stays measurable. SRG is the greedy router run on
the dimension-1 view.
"""

from __future__ import annotations

import random

from .mrg import ResidualState, RoutingSolution, _route_greedy, _sample_shortest, _tree_drawer
from .topology import Topology
from .workload import Workload


def _route_shortest(topology: Topology, workload: Workload, seed: int, dims: int) -> RoutingSolution:
    """Hop-minimal routing with capability checked on the first ``dims`` dimensions."""
    topology._check_hosts(workload.flows)
    rng = random.Random(seed)
    state = ResidualState.fresh(topology, workload.dims)
    fits = state.fits
    draw = None if topology.z is None else _tree_drawer(state, topology)
    for flow in workload.flows:
        room = state.room(flow.demand[:dims])
        if draw is not None:
            path = draw(room, flow.src, flow.dst, rng)
        else:
            path = _sample_shortest(topology, lambda v: fits(v, room), flow.src, flow.dst, rng)
        if path is not None:
            state.commit(flow.id, path, flow.demand)
    return state.solution(workload.flows)


def route_srsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Shortest Path: hop-minimal routing, capability on dimension 1 only."""
    return _route_shortest(topology, workload, seed, 1)


def route_mrsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Multi-Resource Shortest Path: hop-minimal routing, capability in all dimensions."""
    return _route_shortest(topology, workload, seed, workload.dims)


def route_srg(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Green: the greedy router with every vector projected to dimension 1."""
    return _route_greedy(topology, workload, seed, 1)
