"""Greedy multi-resource routing (MRG), its primitives, and the shared routing state.

The router works through the flow list progressively. Each iteration first
searches, in list order, for a flow whose endpoints are already connected by
active nodes with enough room left; failing that it picks a pending flow
uniformly at random (more nodes will have to wake up for it). The chosen
flow is then routed on the full capacity-feasible network by a weighted
shortest path, where active nodes are scored by how badly their load
profile clashes with the flow's demand profile (the inversion count between
the room they have left and the demand) and inactive nodes carry a weight
strictly above any possible inversion count. Node weights are turned into
link weights by halving, which preserves the argmin over paths, so plain
Dijkstra applies.

Every router and the online path keep their state in one
:class:`ResidualState`: per-processor loads in every workload dimension,
summed once as flows commit, one capability rule, and one commit. Each
router's solution reads its loads and its unrouted flows from that state.
Each router packs each flow's demand once per call (:meth:`ResidualState.pack`)
and derives its room from it (:meth:`ResidualState.room`).

The batch router computes exactly what that description says, with less
work. The pick scan resumes at the flow it stopped at until a processor
wakes: in batch mode loads and the active set only grow, so a flow that
failed keeps failing until then (online departures break this). Its
reachability test is the hop-minimal search
:func:`_sample_shortest` over the active capable nodes, which asks
capability only of the nodes it reaches, the endpoints' edge switches
first. The greedy step weighs its candidates in one pass before it
searches: :meth:`ResidualState.capable`, the batch form of the capability
rule, lists the capable processors (only the active ones on an arrival's
first try), each of them gets its weight, and no other node is entered.
Its Dijkstra then labels nodes from the target on doubled integer weights
and walks from the source; only the reference :func:`shortest_path` keeps
a path per heap entry. It weighs an active node with one AND and a
popcount: the state caches a bit mask of how each processor's load orders
its dimensions (:meth:`ResidualState.order_of`), and the step builds the
demand's ordered pairs once; a node's mask is rebuilt only after its load
changes.
Both routing searches live here: that Dijkstra, and the hop search, which
also serves HGR's detours and the SRSP and MRSP draw
(:func:`greenroute.baselines._tree_drawer`).

An online arrival has no pick scan and no separate reachability test: it
runs the greedy step on the active capable nodes alone, which finds a path
exactly when those connect the endpoints, and falls back to the full
capable network when that finds none.

Conventions fixed for reproducibility: capacity is normalized to 1 in every
dimension; loads start at 0 and are exact sums of demands on a 2**-40 grid,
kept as one int per processor with one field per dimension that counts its
grid steps, 64 bits wide unless a router that checks only some dimensions
needs more, the field's top bit a guard that a load never sets; a flow's
room is packed the same way, each field the guard plus
(2**40 + 1099) minus the demand's steps (all ones for a dimension the router
does not check, the guard less one step for a component above capacity),
so one rule, ``(room - load) & guards == guards``, tests every dimension:
a node is incapable of a flow iff some load dimension exceeds
(1 + 1e-9) - demand; every flow runs between two hosts
(``Topology._check_hosts``), which carry no capacity, weigh 0, never relay
a flow (``Topology._inner_adj``) and never count as active; Dijkstra breaks
ties by fewer hops, then the lexicographically smallest node id sequence;
the random pick uses Python's Mersenne Twister seeded from the run seed.
"""

from __future__ import annotations

import heapq
import random
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Sequence

from .topology import Topology
from .workload import Flow, Workload

CAP_TOL = 1e-9


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


def _order_bits(vec: Sequence[float], dims: int) -> int:
    """How ``vec`` orders its entries: bit ``a*dims + b`` is set iff vec[a] > vec[b].

    With ``dims`` the state's dimension count, a load's bits and the bits of
    a demand (or of a shorter prefix view of it) share positions, so
    ``(load_bits & demand_bits).bit_count()`` counts the demand pairs with
    demand[a] > demand[b] that the load orders the same way. That is
    ``inv_count`` of the room left, 1 - load, against the demand; ties count
    for nothing on either side.
    """
    bits = 0
    indices = range(len(vec))
    for a in indices:
        x = vec[a]
        for b in indices:
            if x > vec[b]:
                bits |= 1 << (a * dims + b)
    return bits


# -- state and solutions ---------------------------------------------------------

STEPS = 1 << 40  # grid steps per unit of capacity: every demand is a multiple of 2**-40
CAP_STEPS = STEPS + int(CAP_TOL * STEPS)  # 1 + CAP_TOL rounded down to the grid: 2**40 + 1099 steps
WIDTH = 64  # bits per field when every field is checked, so none holds more than CAP_STEPS
_MAX_STEPS = int(sys.float_info.max) << 40  # the largest float, in steps


def _steps(c: float) -> int:
    """A grid number (0 or an :func:`greenroute.workload.on_grid` component) as its exact count of steps."""
    return int(c * 2.0**40) if c < 2.0**900 else int(c) << 40


def _guards(dims: int, width: int) -> int:
    """The top bit of each of ``dims`` fields of ``width`` bits."""
    return sum(1 << (width * k + width - 1) for k in range(dims))


def _pack(vec: Sequence[float], width: int) -> int:
    """``vec`` as one int: component k's steps in field k (bits k*width up)."""
    packed = 0
    for c in reversed(vec):
        packed = (packed << width) | _steps(c)
    return packed


def _pack_room(demand: Sequence[float], dims: int, width: int) -> int:
    """The packed ``room`` of a flow whose first ``len(demand)`` of ``dims`` components are ``demand``.

    Field k holds the guard bit plus (1 + CAP_TOL) - demand[k] in steps,
    CAP_STEPS - steps; all ones below the guard for a component above that
    (no load fits it); and all ones, guard included, for a dimension past
    ``len(demand)``, which the router does not check (every load fits it).
    """
    guard = 1 << (width - 1)
    room = (1 << (width * (dims - len(demand)))) - 1
    for d in reversed(demand):
        left = CAP_STEPS - _steps(d)
        room = (room << width) | (guard + left if left >= 0 else guard - 1)
    return room


def _unpack(packed: int, dims: int, width: int) -> list[float]:
    """The fields of ``packed`` as floats: each step count times 2**-40, rounded once.

    Below 2**13, which every checked field is, the conversion is exact. A
    sum past the largest float reads inf, as a float sum would.
    """
    mask = (1 << width) - 1
    fields = [(packed >> (width * k)) & mask for k in range(dims)]
    try:
        return [f / STEPS for f in fields]
    except OverflowError:
        return [f / STEPS if f <= _MAX_STEPS else inf for f in fields]


def _field_max(a: int, b: int, guards: int, width: int) -> int:
    """The field-wise maximum of two packed loads, whose guard bits are clear.

    ``(a | guards) - b`` leaves field k's guard bit set iff a_k >= b_k, with
    no borrow between fields; each set guard bit, less itself shifted to
    the field's bit 0, selects all of a_k.
    """
    pick = ((a | guards) - b) & guards
    pick -= pick >> (width - 1)
    return b ^ ((a ^ b) & pick)


class _Floats(Mapping):
    """A read-only view of packed per-processor values: each access converts one processor."""

    def __init__(self, packed: dict[int, int], convert):
        self._packed = packed
        self._convert = convert

    def __getitem__(self, v: int) -> list[float]:
        return self._convert(self._packed[v])

    def __iter__(self):
        return iter(self._packed)

    def __len__(self) -> int:
        return len(self._packed)


@dataclass
class ResidualState:
    """Mutable per-processor loads in every workload dimension, plus the active set.

    Capacity is 1 in every dimension. Loads are kept on the demands'
    2**-40 grid as packed ints: ``packed[v]`` holds processor ``v``'s load in
    dimension k, as an exact count of steps, in field k, bits k*width up to
    (k+1)*width, whose top bit is a guard and always clear in a load.
    ``load`` and ``residual`` read them as floats. ``committed`` maps each
    routed flow to its path, so departures can be checked and undone.

    A flow's :meth:`room` is packed the same way, guard bits set, and
    :meth:`fits` is the capability rule for one processor: the guard bit
    of field k survives ``room - load`` iff load_k <= room_k, with no borrow
    between fields (Lamport, CACM 1975), so one subtraction and one mask
    test every dimension. :meth:`capable` is its batch form, from which the
    greedy step's weight pass takes its candidates. :meth:`commit` adds the
    flow's :meth:`pack`, one int, to each processor of its path.

    ``width`` is 64 unless :meth:`fresh` was given the flows of a router
    that checks only some dimensions: an unchecked field may then sum past
    1 + CAP_TOL, and is made wide enough for all of them.

    ``order`` caches, per processor, how its load orders its dimensions
    (:meth:`order_of`): the weight pass fills the masks of the active
    candidates and weighs each from its mask. It is filled on demand and
    is not part of the state's value (equality and repr ignore it). Loads
    change only through :meth:`commit` and :func:`online_departure`, and
    both drop the masks of the processors they touch; code that writes
    ``packed`` any other way must clear ``order``.
    """

    packed: dict[int, int]
    active: set[int]
    dims: int
    width: int = WIDTH
    committed: dict[int, tuple[int, ...]] = field(default_factory=dict)
    order: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        dims, width = self.dims, self.width
        self.guard = _guards(dims, width)
        # per prefix length n, the room of a zero demand on the first n dimensions
        self._rooms = [_pack_room((0.0,) * n, dims, width) for n in range(dims + 1)]

    @classmethod
    def fresh(cls, topology: Topology, dims: int, flows: Iterable[Flow] = ()) -> "ResidualState":
        """An idle state. A router that checks only some dimensions passes its ``flows``:
        once their largest components sum to 2**22, the fields widen past 64 bits to hold that sum."""
        total = sum(max(flow.demand) for flow in flows)
        width = WIDTH if total < 2**22 else max(WIDTH, sum(_steps(max(f.demand)) for f in flows).bit_length() + 1)
        return cls(dict.fromkeys(topology.processor_ids, 0), set(), dims, width)

    @property
    def load(self) -> Mapping[int, list[float]]:
        """The loads as floats: a read-only view that converts one processor per access."""
        dims, width = self.dims, self.width
        return _Floats(self.packed, lambda x: _unpack(x, dims, width))

    @property
    def residual(self) -> Mapping[int, list[float]]:
        """The room left, 1 - load per entry: a read-only view, for readers outside the routers."""
        dims, width = self.dims, self.width
        return _Floats(self.packed, lambda x: [1.0 - c for c in _unpack(x, dims, width)])

    def pack(self, demand: Sequence[float]) -> int:
        """``demand`` in this state's layout, as :meth:`commit` adds it."""
        return _pack(demand, self.width)

    def room(self, demand: Sequence[float], packed: int | None = None) -> int:
        """The most load a processor may carry and still take ``demand``: (1 + CAP_TOL) - demand, packed.

        A router that sees only a prefix of the dimensions passes that
        prefix; the other fields fit every load. ``packed``, the
        :meth:`pack` of ``demand`` or of a demand it is a prefix of, saves
        packing it again: when no component exceeds 1 + CAP_TOL, the room
        is the zero demand's less ``packed``'s first fields, with no borrow.
        """
        n = len(demand)
        if max(demand) > 1.0 + CAP_TOL:
            return _pack_room(demand, self.dims, self.width)
        if packed is None:
            packed = _pack(demand, self.width)
        return self._rooms[n] - (packed & ((1 << (self.width * n)) - 1))

    def fits(self, v: int, room: int) -> bool:
        """The capability rule: ``v``'s load is within ``room`` (see :meth:`room`) in every field."""
        guard = self.guard
        return (room - self.packed[v]) & guard == guard

    def capable(self, room: int, within: Iterable[int] | None = None) -> list[int]:
        """The batch form of :meth:`fits`: every processor whose load is within ``room``.

        With ``within`` (processors only), just those of its members; hosts
        carry no load and are never returned.
        """
        load, guard = self.packed, self.guard
        if within is None:
            return [v for v, x in load.items() if (room - x) & guard == guard]
        return [v for v in within if (room - load[v]) & guard == guard]

    def order_of(self, v: int) -> int:
        """Processor ``v``'s load-order mask, ``_order_bits`` of its fields, cached until its load changes."""
        bits = self.order.get(v)
        if bits is None:
            x, width, mask = self.packed[v], self.width, (1 << self.width) - 1
            bits = self.order[v] = _order_bits([(x >> (width * k)) & mask for k in range(self.dims)], self.dims)
        return bits

    def _check_dims(self, demand: Sequence[float]) -> None:
        """Raise ValueError unless ``demand`` has one component per load dimension."""
        if self.dims != len(demand):
            raise ValueError(f"vector length mismatch: {self.dims} vs {len(demand)}")

    def commit(self, flow_id: int, path: Sequence[int], demand: int) -> None:
        """Add the packed ``demand`` (:meth:`pack`) to the path's interior processors, mark them active
        and record the path.

        Drops their cached load-order masks.
        """
        load = self.packed
        inner = path[1:-1]
        for v in inner:
            load[v] += demand
        self.active.update(inner)
        order = self.order
        if order:
            for v in inner:
                order.pop(v, None)
        self.committed[flow_id] = tuple(path)

    def solution(self, flows: Iterable[Flow]) -> RoutingSolution:
        """The committed paths and the loads as an immutable solution; other ``flows`` are unrouted.

        Idle processors share one tuple of zeros.
        """
        committed = self.committed
        dims, width = self.dims, self.width
        idle = (0.0,) * dims
        return RoutingSolution(
            paths=dict(committed),
            active=frozenset(self.active),
            unrouted=frozenset(flow.id for flow in flows if flow.id not in committed),
            load={v: tuple(_unpack(x, dims, width)) if x else idle for v, x in self.packed.items()},
        )


@dataclass(frozen=True)
class RoutingSolution:
    """Result of routing one workload: committed paths, the carrying set, and loads.

    ``load`` holds every processor's load in all workload dimensions, whatever
    dimensions the router checked. ``active`` is exactly the set of processors
    with a nonzero load (demands are positive); ``unrouted`` holds the flow
    ids that are not in ``paths``.
    """

    paths: dict[int, tuple[int, ...]]
    active: frozenset[int]
    unrouted: frozenset[int]
    load: dict[int, tuple[float, ...]]


# -- graph primitives ------------------------------------------------------------

def is_connected(topology: Topology, allowed_nodes: Iterable[int], s: int, t: int) -> bool:
    """True iff :func:`shortest_path` finds an s-t path through ``allowed_nodes``.

    A slow reference that no router calls, with that function's contract: a
    host is never interior, even if ``allowed_nodes`` holds it, and an
    endpoint that is a processor must be in ``allowed_nodes``, since it
    carries the flow like any processor on the path.
    """
    return shortest_path(topology, allowed_nodes, None, s, t) is not None


def _sample_shortest(topology: Topology, enterable, s: int, t: int,
                     rng: random.Random | None = None) -> list[int] | None:
    """A hop-minimal s-t path whose interior nodes pass ``enterable(v)``, or ``None``.

    With ``rng``, a uniform random draw among all hop-minimal paths; without,
    the lexicographically smallest (:func:`shortest_path` with unit
    weights). ``s`` and ``t`` are distinct hosts. ``enterable`` is asked at
    most once per node, and only about the relays of ``Topology._inner_adj``
    (processors of degree >= 2); an endpoint is entered from any of its
    neighbours.

    The search grows whole BFS levels from s and from t and stops after the
    first level that reaches a node the other side has labelled. If the
    labelled levels are 0..a from s and 0..b from t, the hop distance is
    a + b and every meeting node lies in forward level a and backward level
    b, so neither side reads the adjacency of the meeting level (the core
    layer of a fat-tree). Each round grows the side with the smaller
    frontier; on a tie, the side with fewer levels; then s. So the one
    neighbour of each degree-1 endpoint (a host's edge switch) is asked
    before any other relay, and a refusal there ends the search after at
    most two questions: the batch pick scan, which only asks whether a path
    exists, gets its no at once when an endpoint's edge switch is full.
    """
    adj = topology._adj
    inner = topology._inner_adj
    from_s: dict[int, int] = {s: 0}  # hop distance from s
    to_t: dict[int, int] = {t: 0}  # hop distance to t
    s_levels, t_levels = [[s]], [[t]]
    blocked: set[int] = set()  # asked and refused
    met = False
    while not met:
        if not s_levels[-1] or not t_levels[-1]:
            return None
        if (len(s_levels[-1]), len(s_levels)) <= (len(t_levels[-1]), len(t_levels)):
            mine, other, levels, end = from_s, to_t, s_levels, t
        else:
            mine, other, levels, end = to_t, from_s, t_levels, s
        d = len(levels)
        end_adj = adj[end]
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
            if u in end_adj and end not in mine:
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
    relays. One pass over them weighs each before the search; every other
    node weighs ``None`` and is never entered. A Dijkstra from ``dst``
    labels nodes with their least (cost, hops) to it on doubled, integer
    link weights w_u + w_v (both endpoints weigh 0: every path holds them),
    and stops once ``src`` is settled. Labels strictly decrease along an optimal path, so stepping from
    ``src`` to the smallest-id neighbour with a tight label gives the
    lexicographically smallest one.

    An active node weighs ``(state.order_of(v) & pairs).bit_count()``, where
    ``pairs`` holds the demand's ordered pairs at the masks' bit positions
    (:func:`_order_bits`): exactly :func:`inv_count` of its room left against
    ``demand``. A one-dimension view has no pairs, so SRG's active nodes
    weigh 0 without a mask.
    """
    active = state.active
    order_of = state.order_of
    dims = len(demand)
    inactive_w = dims * (dims - 1) // 2 + 1
    # the demand's pairs, at the bit positions of the state's load-order masks
    pairs = _order_bits(demand, state.dims)
    n = len(topology)
    nw: list[int | None] = [None] * n  # None: v may not be entered
    for v in state.capable(room, within):
        if v not in active:
            nw[v] = inactive_w
        else:
            nw[v] = (order_of(v) & pairs).bit_count() if pairs else 0
    inner = topology._inner_adj
    s_adj = topology._adj[src]
    best = [(inf, -1)] * n  # least (cost, hops) to dst found so far
    nw[src] = nw[dst] = 0
    best[dst] = (0, 0)
    heap = [(0, 0, dst)]
    while heap:
        cost, hops, u = heapq.heappop(heap)
        if (cost, hops) > best[u]:
            continue  # superseded
        if u == src:
            break
        cost += nw[u]
        hops += 1
        for v in (*inner[u], src) if u in s_adj else inner[u]:
            w = nw[v]
            if w is not None and (cost + w, hops) < best[v]:
                best[v] = (cost + w, hops)
                heapq.heappush(heap, (cost + w, hops, v))
    else:
        return None
    adj = topology._adj
    path = [src]
    u = src
    while u != dst:
        cost, hops = best[u][0] - nw[u], best[u][1] - 1
        u = next(v for v in adj[u] if best[v][1] == hops and best[v][0] + nw[v] == cost)
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
    packed = [state.pack(flow.demand) for flow in flows]
    rooms = [state.room(demand, p) for demand, p in zip(demands, packed)]
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
            state.commit(flow.id, path, packed[flow.id])
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
    packed = state.pack(demand)
    room = state.room(demand, packed)
    path = (_greedy_path(state, topology, room, src, dst, demand, state.active)
            or _greedy_path(state, topology, room, src, dst, demand))
    if path is None:
        return None
    state.commit(flow.id, path, packed)
    return tuple(path)


def online_departure(state: ResidualState, topology: Topology, flow: Flow, path: Sequence[int]) -> None:
    """Undo :meth:`ResidualState.commit` for a departed flow and deactivate drained processors.

    Loads are exact sums of grid demands (:func:`greenroute.workload.on_grid`), so
    one subtraction of the packed demand takes the flow off a processor, its
    load is 0 exactly when no live flow crosses it, and an arrival followed
    by its departure restores the state bit for bit.
    """
    committed = state.committed.get(flow.id)
    if committed is None:
        raise ValueError(f"flow {flow.id} was never routed on this state")
    if committed != tuple(path):
        raise ValueError(f"flow {flow.id}: departure path does not match the committed path")
    state._check_dims(flow.demand)
    demand = state.pack(flow.demand)
    load = state.packed
    for v in path[1:-1]:
        state.order.pop(v, None)
        load[v] -= demand
        if not load[v]:
            state.active.discard(v)
    del state.committed[flow.id]
