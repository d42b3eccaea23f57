"""Comparison algorithms: SRSP, SRG, and MRSP.

The shortest-path baselines are energy-oblivious: each flow, in list order,
takes a hop-minimal path chosen uniformly at random among all hop-minimal
paths whose nodes pass the capability check (ECMP-style spreading, seeded
and deterministic). :func:`_tree_drawer`, built once per call, draws it. It
answers exactly as the shared hop-minimal search
:func:`greenroute.topology._sample_shortest` does, reads most fat-tree draws
off the tree's fixed path shapes, and spells out ``Random.choices``'
arithmetic instead of calling it. When every switch of a flow's shapes fits, the draw
is closed form and builds no option list. Its docstring names the tests
that guard both. "Single-resource" variants see dimension 1 only:
capability is checked there, and SRG's node weights compare only that
dimension. Loads are always kept in all dimensions, so congestion in the
others stays measurable. SRG is the greedy router run on the dimension-1
view.
"""

from __future__ import annotations

import random
from bisect import bisect
from functools import reduce
from math import floor
from typing import Sequence

from .mrg import _route_greedy
from .state import ResidualState, RoutingSolution, _field_max
from .topology import Topology, _sample_shortest
from .workload import Workload


def _tree_drawer(state: ResidualState, topology: Topology):
    """``draw(room, s, t, rng)``: the hop search's seeded draw over capable switches.

    ``draw`` answers as :func:`_sample_shortest` does with entry test
    ``state.fits(v, room)``: the same path, with ``rng`` left in the same
    state. ``s`` and ``t`` are distinct hosts. On a graph with no ``z``,
    ``draw`` is that search. On a fat-tree, a hop-minimal path has
    one of three shapes: through the shared edge switch, through an
    aggregation switch of the shared pod, or up through aggregation
    position g, a core of group g and down position g. The search's walk
    takes one ``rng.choices`` per hop, each one ``rng.random()``; a forced
    hop here takes that ``rng.random()`` alone, and the two real choices
    get the search's options in id order and its path counts: an
    aggregation switch of the shared pod with weight 1 each, or a position
    weighted by its capable cores, then one of them with weight 1 each.
    Those choices are spelled as ``Random.choices`` computes them (CPython
    3.9 and later), with no call to it: ``choices(seq)[0]`` is
    ``seq[floor(random() * len(seq))]``, and ``choices(seq, weights)[0]``
    is ``seq[bisect(cum, random() * total, 0, n - 1)]`` over the running
    sums ``cum`` of the weights, whose last is ``total``;
    ``test_random_choices_is_floor_and_bisect`` in
    ``tests/test_baselines.py`` pins both. When both pods' aggregation
    blocks and the whole core layer are taken whole, every position has
    its z/2 cores, so the draw is closed form: a position by the fixed
    sums z/2, 2·z/2, ..., (z/2)² and a core of its group, with no list
    built. The drawer differentials in ``tests/test_differential.py``
    check every case against the frozen search, the closed form apart.
    When no path of these shapes exists, nothing has been drawn yet and the
    hop search answers, with a detour or ``None``.

    Edge switches are tested one by one. Each pod's aggregation switches,
    and each core group, form a block that one test may take whole: the
    drawer keeps, per block, the field-wise maximum of its members' packed
    loads (taken with the guard bits, :func:`greenroute.state._field_max`),
    and a block whose maximum is within ``room`` is capable whole, its members
    in id order with no test of their own. Any other block is tested switch
    by switch (:meth:`ResidualState.capable`). The whole core layer is one
    more block: when the maximum over the core groups' maxima is within
    ``room``, every group is taken whole with no test of its own. The
    maxima are taken from the state's loads when the drawer is built, and
    each call first raises those of the blocks on the path it returned last
    to that path's loads.
    Loads only grow in a batch router, so every maximum stays at or above
    every member's load as long as, between calls, the state's loads change
    only by committing paths that ``draw`` returned; code that changes them
    any other way must build a new drawer.

    This is kept apart from HGR's fixed-shape rule (:func:`greenroute.hgr._tree_router`),
    which takes the lex-min first fit where this draws by path counts: both
    ran about 30% slower through one shared shape function.
    """
    fits = state.fits
    if topology.z is None:
        return lambda room, s, t, rng: _sample_shortest(topology, lambda v: fits(v, room), s, t, rng)
    load, guard, width = state.packed, state.guard, state.width
    capable = state.capable
    edge_of = topology._host_edge
    pod_of = topology._host_pod
    z = topology.z
    h = z // 2
    agg_ids, core_groups = topology._agg_ids, topology._core_groups
    # pod p's aggregation switches are block p, core group g is block z + g
    blocks = [*agg_ids, *core_groups]
    block_of: list[int | None] = [None] * len(topology)
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i

    def field_max(a: int, b: int) -> int:
        return _field_max(a, b, guard, width)

    top = [reduce(field_max, [load[v] for v in block]) for block in blocks]
    core_top = reduce(field_max, top[z:])  # the whole core layer's maximum
    returned: list[int] = []  # the interior of the path returned last
    every = [True] * h  # each position capable: its pod's block is whole
    full_cum = [h * (g + 1) for g in range(h)]  # the path counts when every position has its h cores
    full_total = float(h * h)

    def members(i: int, room: int) -> Sequence[int]:
        """Block ``i``'s capable switches, in id order."""
        if (room - top[i]) & guard == guard:
            return blocks[i]
        return capable(room, blocks[i])

    def positions(pod: int, room: int) -> list[bool]:
        """Whether each aggregation position of ``pod`` is capable; its block is not whole."""
        first = blocks[pod][0]  # a pod's aggregation ids are consecutive
        fit = [False] * h
        for a in capable(room, blocks[pod]):
            fit[a - first] = True
        return fit

    def draw(room: int, s: int, t: int, rng: random.Random) -> list[int] | None:
        nonlocal core_top
        for v in returned:  # committed since the last call, or not at all
            i = block_of[v]
            if i is not None:
                top[i] = field_max(top[i], load[v])
                if i >= z:
                    core_top = field_max(core_top, load[v])
        path = shape(room, s, t, rng) or _sample_shortest(topology, lambda v: fits(v, room), s, t, rng)
        returned[:] = () if path is None else path[1:-1]
        return path

    def shape(room: int, s: int, t: int, rng: random.Random) -> list[int] | None:
        """The draw over the three fixed shapes; ``None``, with nothing drawn, when none is capable."""
        e, f = edge_of[s], edge_of[t]
        if not (fits(e, room) and (e == f or fits(f, room))):
            return None
        rand = rng.random
        if e == f:
            rand()
            rand()
            return [s, e, t]
        pod_s, pod_t = pod_of[s], pod_of[t]
        if pod_s == pod_t:
            aggs = members(pod_s, room)
            if not aggs:
                return None
            rand()
            a = aggs[floor(rand() * len(aggs))]
            rand()
            rand()
            return [s, e, a, f, t]
        up_whole = (room - top[pod_s]) & guard == guard
        down_whole = (room - top[pod_t]) & guard == guard
        layer_whole = (room - core_top) & guard == guard  # then so is every core group
        # Every position with its h cores: the loop below would give this path
        # and these draws, but building its lists made bulk-z16 about 9% slower.
        if up_whole and down_whole and layer_whole:
            rand()
            g = bisect(full_cum, rand() * full_total, 0, h - 1)
            c = core_groups[g][floor(rand() * h)]
        else:
            up = every if up_whole else positions(pod_s, room)
            down = every if down_whole else positions(pod_t, room)
            cum, groups = [], []  # the capable positions' path counts, summed in position order
            total = 0
            for g in range(h):
                if up[g] and down[g]:
                    group = core_groups[g] if layer_whole else members(z + g, room)
                    if group:
                        total += len(group)
                        cum.append(total)
                        groups.append((g, group))
            if not groups:
                return None
            rand()
            g, group = groups[bisect(cum, rand() * float(total), 0, len(cum) - 1)]
            c = group[floor(rand() * len(group))]
        rand()
        rand()
        rand()
        return [s, e, agg_ids[pod_s][g], c, agg_ids[pod_t][g], f, t]

    return draw


def _route_shortest(topology: Topology, workload: Workload, seed: int, dims: int) -> RoutingSolution:
    """Hop-minimal routing with capability checked on the first ``dims`` dimensions."""
    flows = workload.flows
    topology._check_hosts(flows)
    rng = random.Random(seed)
    # a router that checks every dimension never sums a field past 1 + CAP_TOL
    state = ResidualState.fresh(topology, workload.dims, flows if dims < workload.dims else ())
    draw = _tree_drawer(state, topology)
    commit = state.commit
    for flow, (packed, room) in zip(flows, state.pack_rooms((flow.demand for flow in flows), dims)):
        path = draw(room, flow.src, flow.dst, rng)
        if path is not None:
            commit(flow.id, path, packed)
    return state.solution(flows)


def route_srsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Shortest Path: hop-minimal routing, capability on dimension 1 only."""
    return _route_shortest(topology, workload, seed, 1)


def route_mrsp(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Multi-Resource Shortest Path: hop-minimal routing, capability in all dimensions."""
    return _route_shortest(topology, workload, seed, workload.dims)


def route_srg(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    """Single-Resource Green: the greedy router with every vector projected to dimension 1."""
    return _route_greedy(topology, workload, seed, 1)
