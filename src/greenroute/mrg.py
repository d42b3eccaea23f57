"""Greedy multi-resource routing (MRG), its reference primitives, and online routing.

The router works through the flow list progressively. Each iteration first
searches, in list order, for a flow whose endpoints are already connected by
active nodes with enough room left; failing that it picks a pending flow
uniformly at random (more nodes will have to wake up for it). The chosen
flow is then routed on the full capacity-feasible network by a weighted
shortest path, where active nodes are scored by how badly their load
profile clashes with the flow's demand profile (the inversion count between
the room they have left and the demand) and inactive nodes carry a weight
strictly above any possible inversion count. The paper turns node weights
into link weights by halving, which preserves the argmin over paths; the
greedy step runs Dijkstra on the node weights themselves, with the same
answer. Loads, the capability rule and the commit are the shared
:class:`greenroute.state.ResidualState`.

The batch router computes exactly what that description says, with less
work. The pick scan resumes at the flow it stopped at until a processor
wakes: in batch mode loads and the active set only grow, so a flow that
failed keeps failing until then (online departures break this). Its
reachability test is the hop-minimal search
:func:`greenroute.topology._sample_shortest` over the active capable nodes,
which asks capability only of the nodes it reaches, the endpoints' edge
switches first. The greedy step weighs its candidates in one pass before it
searches: :meth:`ResidualState.capable`, the batch form of the capability
rule, lists the capable processors (only the active ones on an arrival's
first try), each of them gets its weight, and no other node is entered.
Its Dijkstra then labels nodes from the target, each node's key its own
weight and one hop on top of its neighbour's, (cost, hops) packed in one
int; since every arc into a node carries that node's weight, the first
key a node gets is final, so each node is labelled and pushed once, as
one int. It then walks from the source; only the reference
:func:`shortest_path` keeps a path per heap entry. It weighs an active
node with one AND and a popcount: the state caches a bit mask of how each
processor's load orders its dimensions (:meth:`ResidualState.order_of`),
and the step builds the demand's ordered pairs once; a node's mask is
rebuilt only after its load changes.

An online arrival has no pick scan and no separate reachability test: it
runs the greedy step on the active capable nodes alone, which finds a path
exactly when those connect the endpoints, and falls back to the full
capable network when that finds none.

Conventions fixed for reproducibility: every flow runs between two hosts
(``Topology._check_hosts``), which weigh 0, never relay a flow
(``Topology._inner_adj``) and never count as active; Dijkstra breaks ties
by fewer hops, then the lexicographically smallest node id sequence; the
random pick uses Python's Mersenne Twister seeded from the run seed.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Mapping
from typing import Iterable, Sequence

from .state import ResidualState, RoutingSolution, _order_bits
from .topology import Topology, _sample_shortest
from .workload import Flow, Workload

# -- vector primitives ---------------------------------------------------------

def inv_count(x: Sequence[float], y: Sequence[float]) -> int:
    """Number of index pairs on which ``x`` and ``y`` are ordered oppositely.

    Ties in either vector contribute nothing; the count is bounded by
    n(n-1)/2 and is symmetric in its arguments.
    """
    if len(x) != len(y):
        raise ValueError(f"vector length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if (dx > 0 and dy < 0) or (dx < 0 and dy > 0):
                count += 1
    return count


# -- graph primitives ------------------------------------------------------------

def is_connected(topology: Topology, allowed_nodes: Iterable[int], s: int, t: int) -> bool:
    """True iff :func:`shortest_path` finds an s-t path through ``allowed_nodes``.

    A slow reference that no router calls, with that function's contract: a
    host is never interior, even if ``allowed_nodes`` holds it, and an
    endpoint that is a processor must be in ``allowed_nodes``, since it
    carries the flow like any processor on the path.
    """
    return shortest_path(topology, allowed_nodes, None, s, t) is not None


def shortest_path(
    topology: Topology,
    allowed_nodes: Iterable[int],
    link_weights: Mapping[tuple[int, int], float] | None,
    s: int,
    t: int,
) -> list[int] | None:
    """Minimum-weight simple s-t path whose interior nodes are processors in ``allowed_nodes``.

    A host is never interior, even if ``allowed_nodes`` holds it, and an
    endpoint that is a processor must be in ``allowed_nodes``; routers take
    hosts only.
    ``link_weights`` maps each undirected edge (u, v) with u < v to a
    nonnegative weight; ``None`` means unit weights (hop count). Ties break
    by fewer hops, then the lexicographically smallest node id sequence.
    Returns ``None`` when no such path exists.
    """
    topology._check_id(s)
    topology._check_id(t)
    if link_weights is not None and link_weights and min(link_weights.values()) < 0:
        raise ValueError("link weights must be nonnegative")
    allowed = allowed_nodes if isinstance(allowed_nodes, (set, frozenset)) else set(allowed_nodes)
    hosts = topology.host_set
    if not ((s in hosts or s in allowed) and (t in hosts or t in allowed)):
        return None
    if s == t:
        return [s]
    # Heap entries carry the whole path, so ties break on the path itself.
    inner = topology._inner_adj
    t_adj = topology._adj[t]
    done: set[int] = set()
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (s,))]
    while heap:
        cost, hops, path = heapq.heappop(heap)
        u = path[-1]
        if u in done:
            continue
        done.add(u)
        if u == t:
            return list(path)
        for v in (*inner[u], t) if u in t_adj else inner[u]:
            if v in done or (v != t and v not in allowed):
                continue
            w = 1.0 if link_weights is None else link_weights[(u, v) if u < v else (v, u)]
            heapq.heappush(heap, (cost + w, hops + 1, path + (v,)))
    return None


# -- weight assignment -----------------------------------------------------------

def assign_node_weights(state: ResidualState, demand: Sequence[float], topology: Topology) -> dict[int, int]:
    """Per-node routing weights for one flow.

    ``demand`` covers the dimensions the router sees. Active processors get
    the inversion count of the room they have left in those dimensions
    against the demand, inactive processors get K(K-1)/2 + 1 with K =
    ``len(demand)`` (strictly above any inversion count), hosts get 0. Room
    is 1 - load, so it orders any two dimensions as the negated load does.
    """
    inactive_w = len(demand) * (len(demand) - 1) // 2 + 1
    hosts, active, load = topology.host_set, state.active, state.load
    return {v: 0 if v in hosts else inv_count([-c for c in load[v][:len(demand)]], demand) if v in active
            else inactive_w for v in range(len(topology))}


def node_to_link_weights(topology: Topology, node_weights: Mapping[int, float]) -> dict[tuple[int, int], float]:
    """Half-sum link weights: w(u, v) = (w_u + w_v) / 2 for every edge.

    For any s-t path the link weights then telescope to the path's node
    weight total minus half the endpoint weights, so link-weighted and
    node-weighted shortest paths coincide.
    """
    return {(u, v): (node_weights[u] + node_weights[v]) / 2 for u, v in topology.edges}


# -- the router --------------------------------------------------------------------

def _greedy_path(state: ResidualState, topology: Topology, room: int, src: int, dst: int,
                 demand: Sequence[float], within: Iterable[int] | None = None) -> list[int] | None:
    """One greedy routing step: :func:`shortest_path` under :func:`assign_node_weights`.

    ``src`` and ``dst`` are distinct hosts, ``demand`` covers the
    dimensions the router sees, and ``room`` is its
    :meth:`ResidualState.room`. Interior nodes are the capable processors,
    ``state.capable(room, within)``, that ``Topology._inner_adj`` lists as
    relays. One pass over them weighs each before the search; no other
    node is entered. A Dijkstra from ``dst`` on node weights labels each
    node v with its least (cost, hops) to ``dst``, v and ``dst`` included,
    packed in one int, ``cost << b | hops`` with b = ``len(topology).bit_length()``,
    so one comparison orders labels by cost, then hops: the key of v
    reached from u is ``key(u) + (w(v) << b) + 1``. The link weights
    (w_u + w_v) / 2 of the reference differ from this on every s-t path by
    the same half endpoint weights, 0 for hosts, so both rank paths alike.
    Every arc into v adds v's own weight and a hop, and keys leave the heap
    in nondecreasing order, so the first key a node gets is its least: it
    is labelled once, and each heap entry, one int ``key << b | v``, is
    never superseded. The search stops once ``src`` leaves the heap. Labels
    strictly decrease along an optimal path, and every node labelled lower
    than ``src`` is labelled by then, so stepping from ``src`` to the
    smallest-id neighbour with ``lab[v] == lab[u] - (w(u) << b) - 1``
    gives the lexicographically smallest optimal path.

    An active node weighs ``(state.order_of(v) & pairs).bit_count()``, where
    ``pairs`` holds the demand's ordered pairs at the masks' bit positions
    (:func:`_order_bits`): exactly :func:`inv_count` of its room left against
    ``demand``. A one-dimension view has no pairs, so SRG's active nodes
    weigh 0 without a mask.
    """
    active = state.active
    order_of = state.order_of
    dims = len(demand)
    n = len(topology)
    b = n.bit_length()  # hops < n fit in b bits, and so does a node id
    # the demand's pairs, at the bit positions of the state's load-order masks
    pairs = _order_bits(demand, state.dims)
    # Before v is reached, lab[v] is -(w(v) << b) - 1, the step's cost negated, so
    # reaching v from u sets lab[v] = lab[u] - lab[v]; ``far``, above every key,
    # marks a node that may not be entered. Only capable candidates go negative.
    inactive = -((dims * (dims - 1) // 2 + 1) << b) - 1
    far = (n * (dims * dims + 1)) << b
    lab = [far] * n
    for v in state.capable(room, within):
        if v not in active:
            lab[v] = inactive
        else:
            lab[v] = -((order_of(v) & pairs).bit_count() << b) - 1 if pairs else -1
    lab[src] = -1  # hosts weigh 0
    step = lab[:]  # each node's step cost, negated, for the walk
    lab[dst] = 0
    inner = topology._inner_adj
    s_adj = topology._adj[src]
    heappop, heappush = heapq.heappop, heapq.heappush
    mask = (1 << b) - 1
    heap = [dst]
    while heap:
        u = heappop(heap) & mask
        if u == src:
            break
        key = lab[u]
        for v in (*inner[u], src) if u in s_adj else inner[u]:
            x = lab[v]
            if x < 0:
                lab[v] = x = key - x
                heappush(heap, x << b | v)
    else:
        return None
    adj = topology._adj
    path = [src]
    u = src
    while u != dst:
        tight = lab[u] + step[u]
        u = next(v for v in adj[u] if lab[v] == tight)
        path.append(u)
    return path


def _route_greedy(topology: Topology, workload: Workload, seed: int, dims: int) -> RoutingSolution:
    """The greedy router on the first ``dims`` dimensions; loads are kept in all of them."""
    flows = workload.flows
    topology._check_hosts(flows)
    rng = random.Random(seed)
    # a router that checks every dimension never sums a field past 1 + CAP_TOL
    state = ResidualState.fresh(topology, workload.dims, flows if dims < workload.dims else ())
    active = state.active
    fits = state.fits
    demands = [flow.demand[:dims] for flow in flows]
    packs = state.pack_rooms((flow.demand for flow in flows), dims)  # per flow id, (packed demand, room)
    rooms = [room for _, room in packs]
    pending = list(flows)
    start = 0  # pending[:start] failed the pick test since the last processor woke

    while pending:
        # Pick the first pending flow whose endpoints the active capable nodes connect.
        for i in range(start, len(pending)):
            flow = pending[i]
            room = rooms[flow.id]
            if _sample_shortest(topology, lambda v: v in active and fits(v, room),
                                flow.src, flow.dst) is not None:
                pick = start = i
                break
        else:
            start = len(pending) - 1
            pick = rng.randrange(len(pending))
        flow = pending.pop(pick)
        path = _greedy_path(state, topology, rooms[flow.id], flow.src, flow.dst, demands[flow.id])
        if path is not None:
            before = len(active)
            state.commit(flow.id, path, packs[flow.id][0])
            if len(active) > before:
                start = 0
    return state.solution(flows)


def route_mrg(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Route a workload with the greedy multi-resource scheme (all dimensions)."""
    return _route_greedy(topology, workload, seed, workload.dims)


# -- online extension ----------------------------------------------------------------

def online_arrival(state: ResidualState, topology: Topology, flow: Flow) -> tuple[int, ...] | None:
    """Route one arriving flow against live state; commit and return its path.

    Routes on the subnetwork of active capable nodes first; only if that
    finds no path does routing fall back to the full capable network. Both
    searches use the usual weight assignment. Returns ``None`` (state
    untouched) when even the full network cannot carry the flow.
    """
    if flow.id in state.committed:
        raise ValueError(f"flow {flow.id} is already routed")
    topology._check_hosts((flow,))
    src, dst, demand = flow.src, flow.dst, flow.demand
    state._check_dims(demand)
    (packed, room), = state.pack_rooms((demand,))
    path = (_greedy_path(state, topology, room, src, dst, demand, state.active)
            or _greedy_path(state, topology, room, src, dst, demand))
    if path is None:
        return None
    state.commit(flow.id, path, packed)
    return state.committed[flow.id]


def online_departure(state: ResidualState, topology: Topology, flow: Flow, path: Sequence[int]) -> None:
    """Undo :meth:`ResidualState.commit` for a departed flow and deactivate drained processors.

    Loads are exact sums of grid demands (:func:`greenroute.workload.on_grid`), so
    one subtraction of the packed demand takes the flow off a processor, its
    load is 0 exactly when no live flow crosses it, and an arrival followed
    by its departure restores the state bit for bit. A path or a demand
    other than the committed one raises ValueError with the state untouched:
    subtracting another demand would leave a phantom load, or borrow across
    the packed fields.
    """
    committed = state.committed.get(flow.id)
    if committed is None:
        raise ValueError(f"flow {flow.id} was never routed on this state")
    if committed != tuple(path):
        raise ValueError(f"flow {flow.id}: departure path does not match the committed path")
    state._check_dims(flow.demand)
    demand = state.pack(flow.demand)
    if demand != state.demands[flow.id]:
        raise ValueError(f"flow {flow.id}: departure demand does not match the committed demand")
    load = state.packed
    for v in path[1:-1]:
        state.order.pop(v, None)
        load[v] -= demand
        if not load[v]:
            state.active.discard(v)
    del state.committed[flow.id]
    del state.demands[flow.id]
