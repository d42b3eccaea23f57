"""The routing state every router shares: packed grid loads, one capability rule, one commit.

Every router and the online path keep their state in one
:class:`ResidualState`: per-processor loads in every workload dimension,
summed once as flows commit, one capability rule, and one commit. Each
router's :class:`RoutingSolution` reads its loads and its unrouted flows
from that state. Each router packs every flow's demand and its room in
one call (:meth:`ResidualState.pack_rooms`).

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
(1 + 1e-9) - demand; hosts carry no capacity and never count as active.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from math import inf
from typing import Iterable, Sequence

from .topology import Topology
from .workload import Flow

CAP_TOL = 1e-9


# -- the grid and packed fields ----------------------------------------------------

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


def _unpack_tuple(dims: int, width: int, packed: int) -> tuple[float, ...]:
    """:func:`_unpack` as a tuple, a processor's load as a solution reads it."""
    return tuple(_unpack(packed, dims, width))


def _field_max(a: int, b: int, guards: int, width: int) -> int:
    """The field-wise maximum of two packed loads, whose guard bits are clear.

    ``(a | guards) - b`` leaves field k's guard bit set iff a_k >= b_k, with
    no borrow between fields; each set guard bit, less itself shifted to
    the field's bit 0, selects all of a_k.
    """
    pick = ((a | guards) - b) & guards
    pick -= pick >> (width - 1)
    return b ^ ((a ^ b) & pick)


def _order_bits(vec: Sequence[float], dims: int) -> int:
    """How ``vec`` orders its entries: bit ``a*dims + b`` is set iff vec[a] > vec[b].

    With ``dims`` the state's dimension count, a load's bits and the bits of
    a demand (or of a shorter prefix view of it) share positions, so
    ``(load_bits & demand_bits).bit_count()`` counts the demand pairs with
    demand[a] > demand[b] that the load orders the same way. That is
    :func:`greenroute.mrg.inv_count` of the room left, 1 - load, against the
    demand; ties count for nothing on either side.
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

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass
class ResidualState:
    """Mutable per-processor loads in every workload dimension, plus the active set.

    Capacity is 1 in every dimension. Loads are kept on the demands'
    2**-40 grid as packed ints: ``packed[v]`` holds processor ``v``'s load in
    dimension k, as an exact count of steps, in field k, bits k*width up to
    (k+1)*width, whose top bit is a guard and always clear in a load.
    ``load`` and ``residual`` read them as floats. ``committed`` maps each
    routed flow to its path and ``demands`` to its packed demand, so
    departures can be checked and undone.

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
    change only through :meth:`commit` and
    :func:`greenroute.mrg.online_departure`, and
    both drop the masks of the processors they touch; code that writes
    ``packed`` any other way must clear ``order``.
    """

    packed: dict[int, int]
    active: set[int]
    dims: int
    width: int = WIDTH
    committed: dict[int, tuple[int, ...]] = field(default_factory=dict)
    demands: dict[int, int] = field(default_factory=dict)
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

    def pack_rooms(self, demands: Iterable[Sequence[float]], seen: int | None = None) -> list[tuple[int, int]]:
        """Per demand, in one pass: its :meth:`pack`, and the :meth:`room` of its first ``seen``
        components (all of them by default).

        When no component exceeds 1 + CAP_TOL, each field of the packed
        demand stays below its guard, and the room is the zero demand's less
        the packed demand's first ``seen`` fields, with no borrow; any other
        demand takes :func:`_pack` and :func:`_pack_room`.
        """
        dims, width = self.dims, self.width
        seen = dims if seen is None else seen
        zero, low = self._rooms[seen], (1 << (width * seen)) - 1
        cap = 1.0 + CAP_TOL
        out = []
        for demand in demands:
            packed = 0
            for c in reversed(demand):
                if c > cap:
                    break
                packed = (packed << width) | int(c * 2.0**40)  # _steps(c) for c <= cap
            else:
                out.append((packed, zero - (packed & low)))
                continue
            out.append((_pack(demand, width), _pack_room(demand[:seen], dims, width)))
        return out

    def room(self, demand: Sequence[float]) -> int:
        """The most load a processor may carry and still take ``demand``: (1 + CAP_TOL) - demand, packed.

        A router that sees only a prefix of the dimensions passes that
        prefix; the other fields fit every load.
        """
        return self.pack_rooms((demand,), len(demand))[0][1]

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
        and record the path and the demand.

        Drops their cached load-order masks.
        """
        load = self.packed
        path = tuple(path)
        inner = path[1:-1]
        for v in inner:
            load[v] += demand
        self.active.update(inner)
        order = self.order
        if order:
            for v in inner:
                order.pop(v, None)
        self.committed[flow_id] = path
        self.demands[flow_id] = demand

    def solution(self, flows: Iterable[Flow]) -> RoutingSolution:
        """The committed paths and the loads as an immutable solution; other ``flows`` are unrouted.

        The loads are a read-only view over a copy of ``packed``, which later
        commits and departures leave alone: a processor's floats are made
        when read. The view pickles, as the solution does.
        """
        committed = self.committed
        return RoutingSolution(
            paths=dict(committed),
            active=frozenset(self.active),
            unrouted=frozenset(flow.id for flow in flows if flow.id not in committed),
            load=_Floats(dict(self.packed), partial(_unpack_tuple, self.dims, self.width)),
        )


@dataclass(frozen=True)
class RoutingSolution:
    """Result of routing one workload: committed paths, the carrying set, and loads.

    ``load`` maps every processor to its load in all workload dimensions,
    whatever dimensions the router checked, as a tuple of floats. From
    :meth:`ResidualState.solution` it is a read-only view over a snapshot
    of the state's packed loads, made when the solution is: later commits
    and departures on the state do not change it, and a processor's floats
    are made when read. ``active`` is exactly the set of processors
    with a nonzero load (demands are positive); ``unrouted`` holds the flow
    ids that are not in ``paths``.
    """

    paths: dict[int, tuple[int, ...]]
    active: frozenset[int]
    unrouted: frozenset[int]
    load: Mapping[int, tuple[float, ...]]
