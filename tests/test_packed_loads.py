"""The packed capability rule against the float rule it replaced, and the field width guard.

``ResidualState`` keeps each processor's load as one int with one field per
dimension that counts 2**-40 grid steps under a guard bit, and tests a flow
with one subtraction and one mask. These tests hold that rule to the float
rule ``all(l_k <= (1 + CAP_TOL) - d_k)`` on fuzzed grid loads and demands,
check the guard-bit field maximum, the exact packing of every finite
component, and that SRG and SRSP, whose unchecked dimensions may sum past
capacity, widen their fields instead of spilling into a neighbour.
"""

import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenroute import (
    CAP_TOL,
    Flow,
    ResidualState,
    Workload,
    generate_workload,
    online_arrival,
    online_departure,
    route_hgr,
    route_mrg,
    route_mrsp,
    route_srg,
    route_srsp,
)
from greenroute.evaluation import ROUTERS
from greenroute.state import WIDTH, _field_max, _guards, _pack, _steps, _unpack
from greenroute.workload import on_grid

from oracle_helpers import EDGE, TICK, _boundary_pair, float_room, reference_solution_loads, set_loads, state_with

MAX = sys.float_info.max


# -- packing ---------------------------------------------------------------------

@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(4096.0)
@example(5000.5)
@example(2.0**52 + 1)
@example(1e300)
@example(MAX)
def test_packing_is_exact_for_every_finite_component(c):
    (c,) = on_grid((c,))
    steps = _steps(c)
    assert steps == Fraction(c) * 2**40
    width = max(WIDTH, steps.bit_length() + 1)
    assert _unpack(_pack((0.5, c, 0.25), width), 3, width) == [0.5, c, 0.25]


def test_a_sum_past_the_largest_float_reads_inf():
    width = (2 * _steps(MAX)).bit_length() + 1
    assert _unpack(2 * _pack((0.5, MAX), width), 2, width) == [1.0, math.inf]


# -- the rule against the float rule ------------------------------------------------

COMPONENT = st.one_of(  # a demand component: mostly within capacity, sometimes above it, up to the largest float
    st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1.0, 1e6), st.sampled_from((EDGE, EDGE + TICK, 1e300, MAX)))


@st.composite
def _loads_and_demand(draw):
    """(loads, demand, view, width): up to 6 processors' grid loads, K <= 8, a prefix view of the demand.

    A load component is 0, arbitrary, or within 3 grid steps of the edge
    of the demand's room; an unchecked one may be far above capacity.
    """
    dims = draw(st.integers(1, 8))
    view = draw(st.integers(1, dims))
    width = draw(st.sampled_from((WIDTH, 100)))
    demand = on_grid(draw(COMPONENT) for _ in range(dims))
    loads = {}
    for v in range(draw(st.integers(1, 6))):
        load = []
        for k, d in enumerate(demand):
            kind = draw(st.integers(0, 3))
            if kind == 0:
                load.append(0.0)
            elif kind == 1:
                load.append(draw(st.floats(0.0, 1.2 if k < view else 1e6)))
            else:
                load.append(max(0.0, EDGE - d + draw(st.integers(-3, 3)) * TICK))
        loads[v] = on_grid(load)
    return loads, demand, view, width


def _float_fits(load, demand):
    return all(l <= r for l, r in zip(load, float_room(demand)))


@settings(max_examples=400, deadline=None)
@given(_loads_and_demand())
def test_fits_and_capable_are_the_float_rule(case):
    loads, demand, view, width = case
    state = ResidualState(dict.fromkeys(loads, 0), set(), len(demand), width)
    set_loads(state, loads)
    seen = demand[:view]
    room = state.room(seen)
    assert state.pack_rooms((demand,), view) == [(state.pack(demand), room)]
    expected = [v for v, load in loads.items() if _float_fits(load, seen)]
    assert [v for v in loads if state.fits(v, room)] == expected
    assert state.capable(room) == expected
    within = list(loads)[::2]
    assert state.capable(room, within) == [v for v in within if v in expected]


@settings(max_examples=200, deadline=None)
@given(_boundary_pair(), st.booleans())
def test_a_boundary_pair_fits_as_the_float_rule_says(pair, first_only):
    load, demand = pair
    seen = demand[:1] if first_only else demand
    state = state_with({0: load})
    assert state.fits(0, state.room(seen)) == _float_fits(load, seen)
    assert state.fits(0, state.pack_rooms((demand,), len(seen))[0][1]) == _float_fits(load, seen)


# -- the guard-bit field maximum and the departure -----------------------------------

@given(st.integers(1, 8), st.sampled_from((WIDTH, 100)), st.data())
def test_field_max_is_the_per_dimension_maximum(dims, width, data):
    field = st.integers(0, 2 ** (width - 1) - 1)  # the guard bit is clear in a load
    a = data.draw(st.lists(field, min_size=dims, max_size=dims))
    b = data.draw(st.lists(st.one_of(field, st.sampled_from(a)), min_size=dims, max_size=dims))

    def packed(fields):
        return sum(f << (width * k) for k, f in enumerate(fields))

    assert _field_max(packed(a), packed(b), _guards(dims, width), width) == packed(list(map(max, a, b)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_an_arrival_and_its_departure_restore_the_packed_state(tree4, dims, data):
    hosts = tree4.host_ids
    state = ResidualState.fresh(tree4, dims)
    demand = st.floats(1e-12, 0.6)
    for fid in range(data.draw(st.integers(0, 12))):
        src, dst = data.draw(st.sampled_from([(s, t) for s in hosts for t in hosts if s != t]))
        online_arrival(state, tree4, Flow(fid, src, dst, tuple(data.draw(demand) for _ in range(dims))))
    before = (dict(state.packed), set(state.active), dict(state.committed))
    flow = Flow(99, hosts[0], hosts[-1], tuple(data.draw(demand) for _ in range(dims)))
    path = online_arrival(state, tree4, flow)
    if path is not None:
        online_departure(state, tree4, flow, path)
    assert (state.packed, state.active, state.committed) == before


# -- the field width guard -------------------------------------------------------------

HALF = 2.0**21 + 0.5  # four of these pass 2**23, what a 64-bit field holds under its guard


def _wide_workload(unchecked):
    """Intra-rack and inter-pod flows on a z=4 fat-tree; the second component is ``unchecked(i)``.

    Hosts 0 and 1 share edge switch 16, so it carries every flow that
    starts at either, five of them with ``HALF`` in the wide workload.
    Every component is a multiple of 2**-4, so float sums of them are exact.
    """
    ends = [(0, 1), (0, 1), (0, 4), (0, 9), (1, 5), (2, 13), (1, 6), (0, 1), (0, 12), (3, 8)]
    return Workload(tuple(Flow(i, s, t, (0.0625 * (1 + i % 3), unchecked(i), 0.375))
                          for i, (s, t) in enumerate(ends)), 3, z=4)


def test_srg_and_srsp_widen_an_unchecked_field_past_two_to_the_22(tree4):
    wide = _wide_workload(lambda i: HALF if i % 2 == 0 else 0.5 * (i + 1))
    narrow = _wide_workload(lambda i: 0.5)
    assert ResidualState.fresh(tree4, 3, wide.flows).width > WIDTH
    assert ResidualState.fresh(tree4, 3, narrow.flows).width == WIDTH
    for route in (route_srg, route_srsp):
        for seed in range(3):
            solution = route(tree4, wide, seed)
            # only the first dimension is checked, so the paths are the narrow workload's
            assert solution.paths == route(tree4, narrow, seed).paths
            assert solution.load == reference_solution_loads(tree4, wide, solution.paths)
            assert solution.load[16][1] > 2.0**23


def test_a_1e300_component_neither_crashes_nor_spills(tree4):
    flows = (Flow(0, 0, 1, (0.5, 1e300, 0.25)), Flow(1, 0, 1, (0.25, 0.5, 0.5)),
             Flow(2, 0, 4, (0.125, 0.75, MAX)))
    workload = Workload(flows, 3, z=4)
    for route in (route_srg, route_srsp):
        solution = route(tree4, workload, 0)
        assert set(solution.paths) == {0, 1, 2}
        assert solution.load == reference_solution_loads(tree4, workload, solution.paths)
        assert solution.load[16] == (0.875, 1e300, MAX)
    # a router that checks every dimension refuses both oversize flows
    for solution in (route_mrg(tree4, workload, 0), route_mrsp(tree4, workload, 0), route_hgr(tree4, workload)[0]):
        assert set(solution.paths) == {1}
        assert solution.load[16] == (0.25, 0.5, 0.5)
    state = ResidualState.fresh(tree4, 3)
    assert [online_arrival(state, tree4, flow) is not None for flow in flows] == [False, True, False]


# -- the solution's loads ----------------------------------------------------------------

def test_solution_loads_are_a_read_only_float_view(tree4):
    workload = generate_workload(tree4, 40, 3, 0.1, 0.05, seed=40)
    for algo, router in ROUTERS.items():
        solution = router(tree4, workload, 40)
        load = solution.load
        assert load == reference_solution_loads(tree4, workload, solution.paths), algo
        assert not isinstance(load, dict) and all(type(vec) is tuple for vec in load.values()), algo
        v = next(iter(load))
        with pytest.raises(TypeError):
            load[v] = (0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            load.pop(v)
        assert pickle.loads(pickle.dumps(solution)) == solution, algo


def test_solution_loads_are_a_snapshot_of_the_state(tree4):
    # commits and departures after solution() change the state, not the solution
    workload = generate_workload(tree4, 60, 3, 0.1, 0.05, seed=41)
    state = ResidualState.fresh(tree4, 3)
    live = [(flow, online_arrival(state, tree4, flow)) for flow in workload.flows[:30]]
    solution = state.solution(workload.flows[:30])
    before = dict(solution.load.items())
    assert before == reference_solution_loads(tree4, workload, solution.paths)
    gone = [(flow, path) for flow, path in live[::2] if path is not None]
    for flow, path in gone:
        online_departure(state, tree4, flow, path)
    flow, path = gone[0]
    state.commit(flow.id, path, state.pack(flow.demand))
    for flow in workload.flows[30:]:
        online_arrival(state, tree4, flow)
    assert dict(state.load.items()) != {v: list(vec) for v, vec in before.items()}
    assert dict(solution.load.items()) == before
