"""Fat-tree topologies, star fixtures, and the graph substrate for routing.

Node id layout is fixed so that workloads and results are reproducible:
hosts come first, then edge, aggregation and core switches, each layer in
pod/position order. Only edge/aggregation/core nodes ("packet processors")
carry capacity; hosts are pure traffic endpoints, and every flow runs
between two of them (``Topology._check_hosts``).

Routers, after checking their endpoints once, index one table per fact:
``_adj``, ``_inner_adj`` and, on fat-trees, ``_host_edge``, ``_host_pod``,
``_edge_ids[pod][pos]``, ``_agg_ids[pod][pos]``, ``_core_groups[g]`` (the
cores behind aggregation position g) and ``_core_ids`` (the groups joined
in order). :func:`build_fat_tree` builds the fat-tree tables first and
reads the node and link lists off them, so the id layout is written once.

The hop-minimal search :func:`_sample_shortest` steps along ``_inner_adj``;
MRG's pick scan, HGR's detours and the SRSP and MRSP draw
(:func:`greenroute.baselines._tree_drawer`) share it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, product
from pathlib import Path
from typing import Iterable, Sequence


class NodeKind(str, Enum):
    HOST = "host"
    EDGE = "edge"
    AGGREGATION = "aggregation"
    CORE = "core"


@dataclass(frozen=True)
class Node:
    """One topology node. ``pod`` is set for edge/aggregation switches only."""

    id: int
    kind: NodeKind
    pod: int | None
    pos: int


class Topology:
    """Immutable undirected graph of end hosts and packet processors.

    ``z`` is the fat-tree arity for trees built by :func:`build_fat_tree`,
    the only code that sets it, and ``None`` for every other graph (star
    fixtures, test graphs). :func:`build_fat_tree` sets the fat-tree tables
    alongside ``z``; only ``_inner_adj``, which any graph has, is computed
    on first use. The graph is never mutated after construction and is safe
    for concurrent reads.
    """

    def __init__(self, nodes: Sequence[Node], edges: Iterable[tuple[int, int]]):
        self.nodes = tuple(nodes)
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise ValueError(f"node ids must be dense from 0, got id {node.id} at index {i}")
        n = len(self.nodes)
        adj: list[set[int]] = [set() for _ in range(n)]
        canonical: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            adj[u].add(v)
            adj[v].add(u)
            canonical.add((u, v) if u < v else (v, u))
        self.z: int | None = None
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self.host_ids = tuple(nd.id for nd in self.nodes if nd.kind is NodeKind.HOST)
        self.processor_ids = tuple(nd.id for nd in self.nodes if nd.kind is not NodeKind.HOST)
        self.host_set = frozenset(self.host_ids)

    def __len__(self) -> int:
        return len(self.nodes)

    def _check_id(self, node_id: int) -> None:
        if not (type(node_id) is int and 0 <= node_id < len(self.nodes)):  # a bool is not a node id
            raise KeyError(f"unknown node id {node_id!r}")

    def _check_hosts(self, flows: Iterable) -> None:
        """The endpoint rule of every router: each flow runs between two hosts.

        Flows are checked in order, src before dst; the first offender
        raises KeyError if it is no node (:meth:`_check_id`), else ValueError.
        """
        hosts = self.host_set
        for flow in flows:
            for v in (flow.src, flow.dst):
                if v not in hosts:
                    self._check_id(v)
                    raise ValueError(f"node {v} is not a host")

    # -- the relay table, built on first use ------------------------------------

    @cached_property
    def _inner_adj(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the neighbours that may lie inside a path: processors of degree >= 2.

        Hosts never relay a flow, and a degree-1 node lies on no simple path
        unless it is an endpoint; every path search steps along this table
        and enters an endpoint from any of its neighbours.
        """
        relays = {v for v in self.processor_ids if len(self._adj[v]) > 1}
        return tuple(tuple(v for v in nbrs if v in relays) for nbrs in self._adj)


# -- the hop search, along the relay table ----------------------------------------

def _sample_shortest(topology: Topology, enterable, s: int, t: int,
                     rng: random.Random | None = None) -> list[int] | None:
    """A hop-minimal s-t path whose interior nodes pass ``enterable(v)``, or ``None``.

    With ``rng``, a uniform random draw among all hop-minimal paths; without,
    the lexicographically smallest (:func:`greenroute.mrg.shortest_path`
    with unit weights). ``s`` and ``t`` are distinct hosts. ``enterable``
    is asked at most once per node, and only about the relays of
    ``Topology._inner_adj`` (processors of degree >= 2); an endpoint is
    entered from any of its neighbours.

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


@dataclass(frozen=True)
class StarReduction:
    """Star fixture: ``src`` and ``dst`` hosts joined through parallel middle processors.

    Every simple src-to-dst path crosses exactly one middle node, so routing
    flows on this graph is the same combinatorial problem as packing their
    demand vectors into unit bins.
    """

    topology: Topology
    src: int
    dst: int
    middle_ids: tuple[int, ...]


def build_fat_tree(z: int) -> Topology:
    """Build the canonical z-ary fat-tree (z even, >= 2).

    Counts: z^3/4 hosts, z^2/2 edge, z^2/2 aggregation, z^2/4 core switches.
    Each edge switch connects z/2 hosts plus all z/2 aggregation switches of
    its pod; the aggregation switch at position p connects to all z/2 core
    switches of core group p.
    """
    if not isinstance(z, int) or z < 2 or z % 2:
        raise ValueError(f"fat-tree arity must be an even integer >= 2, got {z!r}")
    half = z // 2
    n_hosts = z * half * half

    def runs(first: int, count: int) -> tuple[tuple[int, ...], ...]:
        """``count`` consecutive runs of z/2 ids, from ``first`` on."""
        return tuple(tuple(range(first + i * half, first + (i + 1) * half)) for i in range(count))

    edge_ids = runs(n_hosts, z)
    agg_ids = runs(n_hosts + z * half, z)
    core_groups = runs(n_hosts + z * z, half)
    core_ids = tuple(chain.from_iterable(core_groups))
    host_edge = {h: n_hosts + h // half for h in range(n_hosts)}  # each edge switch has z/2 hosts
    host_pod = {h: h // (half * half) for h in range(n_hosts)}

    nodes = [Node(h, NodeKind.HOST, None, h) for h in range(n_hosts)]
    for kind, layer in ((NodeKind.EDGE, edge_ids), (NodeKind.AGGREGATION, agg_ids)):
        nodes += (Node(v, kind, p, p * half + i) for p, ids in enumerate(layer) for i, v in enumerate(ids))
    nodes += (Node(c, NodeKind.CORE, None, pos) for pos, c in enumerate(core_ids))
    links = list(host_edge.items())
    for pod_edges, pod_aggs in zip(edge_ids, agg_ids):
        links += product(pod_edges, pod_aggs)
        links += ((a, c) for a, group in zip(pod_aggs, core_groups) for c in group)
    tree = Topology(nodes, links)
    tree.z = z
    tree._host_edge, tree._host_pod = host_edge, host_pod
    tree._edge_ids, tree._agg_ids = edge_ids, agg_ids
    tree._core_groups, tree._core_ids = core_groups, core_ids
    return tree


def build_star_reduction(item_count: int) -> StarReduction:
    """Star graph with ``item_count`` parallel middle processors between two hosts."""
    if type(item_count) is not int or item_count < 1:  # a bool is not a count
        raise ValueError(f"item_count must be a positive integer, got {item_count!r}")
    nodes = [Node(0, NodeKind.HOST, None, 0), Node(1, NodeKind.HOST, None, 1)]
    edges = []
    middles = []
    for i in range(item_count):
        mid = 2 + i
        nodes.append(Node(mid, NodeKind.EDGE, None, i))
        edges.append((0, mid))
        edges.append((mid, 1))
        middles.append(mid)
    return StarReduction(Topology(nodes, edges), 0, 1, tuple(middles))


# -- dump / load --------------------------------------------------------------
# One JSON document: {"z": int|null, "nodes": [[id, kind, pod, pos], ...],
# "edges": [[u, v], ...]} with nodes in id order and edges sorted (u < v).

def save_topology(topology: Topology, path: str | Path) -> None:
    doc = {
        "z": topology.z,
        "nodes": [[nd.id, nd.kind.value, nd.pod, nd.pos] for nd in topology.nodes],
        "edges": [list(e) for e in topology.edges],
    }
    Path(path).write_text(json.dumps(doc, separators=(", ", ": ")) + "\n")


def _json_int(value, name: str) -> int:
    """``value`` itself if it is a JSON integer; a bool, float or string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def load_topology(path: str | Path) -> Topology:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        nodes = [Node(_json_int(i, "node id"), NodeKind(kind),
                      pod if pod is None else _json_int(pod, "node pod"), _json_int(pos, "node pos"))
                 for i, kind, pod, pos in doc["nodes"]]
        edges = [(_json_int(u, "edge end"), _json_int(v, "edge end")) for u, v in doc["edges"]]
        z = doc["z"] if doc["z"] is None else _json_int(doc["z"], "z")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed topology record: {exc}") from exc
    topology = Topology(nodes, edges)
    if z is None:
        return topology
    # routers read the tables z implies, not the graph; the size test spares building a huge tree
    sized = z >= 2 and z % 2 == 0 and len(topology) == z**3 // 4 + 5 * z * z // 4
    fat_tree = build_fat_tree(z) if sized else None
    if fat_tree is None or (fat_tree.nodes, fat_tree.edges) != (topology.nodes, topology.edges):
        raise ValueError(f"{path}: graph is not the z={z} fat-tree its header names")
    return fat_tree
