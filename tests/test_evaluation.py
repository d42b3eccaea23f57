import csv
import dataclasses
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenroute import (
    CAP_TOL,
    ExperimentConfig,
    Flow,
    ResidualState,
    RoutingSolution,
    Workload,
    build_fat_tree,
    build_star_reduction,
    cell_seed,
    compute_metrics,
    online_arrival,
    oracle_min_active,
    oracle_min_bins,
    route_hgr,
    route_mrg,
    route_mrsp,
    route_srg,
    route_srsp,
    run_experiment,
    vbp_greedy,
    write_results_csv,
)
from greenroute import evaluation
from greenroute.evaluation import CSV_COLUMNS, ROUTERS
from greenroute.workload import generate_workload, on_grid

from oracle_helpers import (
    first_dimension,
    l1_bound,
    min_bins_by_subset_dp,
    random_topology,
    reference_online_arrival,
    reference_oracle_min_active,
    reference_route_greedy,
    reference_route_hgr,
    reference_route_shortest,
    reference_solution_loads,
    state_with,
    with_hosts,
)


def _fake_solution(topology, active_count, dims=1):
    procs = topology.processor_ids
    load = {v: (1.0,) * dims if i < active_count else (0.0,) * dims
            for i, v in enumerate(procs)}
    return RoutingSolution({}, frozenset(list(procs)[:active_count]), frozenset(), load)


def test_saving_ratio_arithmetic(tree8):
    m = compute_metrics(tree8, _fake_solution(tree8, 48))
    assert m.total_processors == 80 and m.active_processors == 48
    assert m.saving_ratio == pytest.approx(0.4)


def test_congestion_judged_on_all_dimensions(tree4):
    sol = route_srsp(tree4, Workload(tuple(Flow(i, 0, 1, (0.01, 0.5)) for i in range(3)), 2, z=4), 0)
    assert compute_metrics(tree4, sol).congested == 1


def test_metrics_runtime_passthrough(tree4):
    m = compute_metrics(tree4, _fake_solution(tree4, 0), runtime_ms=12.5)
    assert m.runtime_ms == 12.5 and m.saving_ratio == 1.0


# -- exact oracles -----------------------------------------------------------------

def test_oracle_single_flow_on_star():
    star = build_star_reduction(3)
    w = Workload((Flow(0, 0, 1, (0.7, 0.7)),), 2)
    assert oracle_min_active(star.topology, w) == 1


def test_oracle_matches_bin_packing_on_example_items():
    items = [(0.6, 0.3), (0.5, 0.5), (0.4, 0.6), (0.3, 0.2)]
    star = build_star_reduction(4)
    w = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), 2)
    assert oracle_min_active(star.topology, w) == 2 == oracle_min_bins(items)


def test_oracle_reports_infeasible():
    star = build_star_reduction(2)
    w = Workload((Flow(0, 0, 1, (1.5,)),), 1)
    assert oracle_min_active(star.topology, w) is None


def test_oracle_empty_workload():
    star = build_star_reduction(2)
    assert oracle_min_active(star.topology, Workload((), 1)) == 0


def test_oracle_refuses_large_instances():
    big = build_star_reduction(13)
    with pytest.raises(ValueError, match="too large"):
        oracle_min_active(big.topology, Workload((), 1))
    star = build_star_reduction(3)
    many = Workload(tuple(Flow(i, 0, 1, (0.1,)) for i in range(7)), 1)
    with pytest.raises(ValueError, match="too large"):
        oracle_min_active(star.topology, many)
    with pytest.raises(ValueError, match="too large"):
        oracle_min_bins([(0.5,)] * 9)


def test_oracle_min_bins_basics():
    assert oracle_min_bins([]) == 0
    assert oracle_min_bins([(0.4, 0.9)]) == 1
    assert oracle_min_bins([(0.51, 0.1)] * 4) == 4
    assert oracle_min_bins([(0.6, 0.3), (0.5, 0.5), (0.4, 0.6), (0.3, 0.2)]) == 2


@pytest.mark.parametrize("items", ([(float("nan"),)], [(0.5,), (float("nan"),)]))
def test_oracle_min_bins_rejects_nan(items):
    # c <= 0 is False for NaN, so a NaN item would pass as positive and be packed
    with pytest.raises(ValueError, match="not positive"):
        oracle_min_bins(items)


@pytest.mark.parametrize("items", ([(0.3, 0.9), (0.3,)], [(0.3,), (0.3, 0.9)],
                                   [(0.6, 0.6), (0.6,)], [(0.6,), (0.6, 0.6)]))
def test_oracle_min_bins_rejects_ragged_items_as_the_packer_does(items):
    # zip would stop at the shorter vector and answer 1 or 2 instead
    for solver in (oracle_min_bins, vbp_greedy):
        with pytest.raises(ValueError, match="^items must share one dimension count$"):
            solver(items)


def test_oracle_min_bins_matches_subset_dp():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 7)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.05, 1.0) for _ in range(dims)) for _ in range(n)]
        assert oracle_min_bins(items) == min_bins_by_subset_dp(items)


def test_star_reduction_oracles_agree():
    # routing on the star and packing the same vectors are the same problem
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 5)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.1, 1.0) for _ in range(dims)) for _ in range(n)]
        star = build_star_reduction(n)
        w = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), dims)
        assert oracle_min_active(star.topology, w) == oracle_min_bins(items)
    # an item no unit bin holds makes both infeasible
    items = [(0.4, 0.3), (0.2, 1.5)]
    w = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), 2)
    assert oracle_min_active(build_star_reduction(2).topology, w) is None is oracle_min_bins(items)
    # a component within CAP_TOL above 1 fits an idle processor, so both say 1
    items = [(1 + 5e-10,)]
    w = Workload((Flow(0, 0, 1, items[0]),), 1)
    assert oracle_min_active(build_star_reduction(1).topology, w) == 1 == oracle_min_bins(items)


def test_oracle_skips_interchangeable_processors():
    # the twelve middles of a star are interchangeable while idle, so the
    # branch and bound tries one of them where it once tried all twelve; the
    # answer is still the packing optimum
    rng = random.Random(5)
    star = build_star_reduction(12)
    start = time.perf_counter()
    for _ in range(3):
        items = [tuple(rng.uniform(0.3, 0.8) for _ in range(3)) for _ in range(6)]
        w = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), 3)
        assert oracle_min_active(star.topology, w) == oracle_min_bins(items)
    assert time.perf_counter() - start < 1.0


def test_oracles_match_the_subset_search(tree2):
    # the branch and bound against the earlier subset enumeration, on small
    # host graphs, z=2 fat-trees and stars (where the packing oracle must agree)
    rng = random.Random(11)

    def workload(ends, dims):
        flows = tuple(Flow(i, *rng.sample(ends, 2), tuple(rng.uniform(0.05, 0.8) for _ in range(dims)))
                      for i in range(rng.randint(1, 5)))
        return Workload(flows, dims)

    for _ in range(150):
        topology = with_hosts(random_topology(rng, rng.randint(5, 10), 0.5), rng)
        hosts = sorted(topology.host_set)
        if len(hosts) >= 2:
            w = workload(hosts, rng.randint(1, 3))
            assert oracle_min_active(topology, w) == reference_oracle_min_active(topology, w)
    for _ in range(30):
        w = workload((0, 1), rng.randint(1, 3))
        assert oracle_min_active(tree2, w) == reference_oracle_min_active(tree2, w)
    for _ in range(30):
        n = rng.randint(1, 6)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.05, 0.8) for _ in range(dims)) for _ in range(n)]
        star = build_star_reduction(n)
        w = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), dims)
        assert oracle_min_active(star.topology, w) == reference_oracle_min_active(star.topology, w) \
            == oracle_min_bins(items)


def test_oracle_on_smallest_fat_tree(tree2):
    # both flows cross the single core, so the unique path set must be found
    w = Workload((Flow(0, 0, 1, (0.4,)), Flow(1, 1, 0, (0.4,))), 1, z=2)
    assert oracle_min_active(tree2, w) == 5


# -- the L1 lower bound on active processors (oracle_helpers.l1_bound) ----------

def test_l1_bound_is_at_most_the_exact_optimum(tree2):
    rng = random.Random(17)
    feasible = 0
    for _ in range(40):
        dims = rng.randint(1, 3)
        flows = tuple(Flow(i, *rng.sample((0, 1), 2), tuple(rng.uniform(0.05, 0.6) for _ in range(dims)))
                      for i in range(rng.randint(1, 4)))
        w = Workload(flows, dims, z=2)
        best = oracle_min_active(tree2, w)
        if best is not None:
            assert l1_bound(tree2, w, set(range(len(flows)))) <= best
            feasible += 1
    assert feasible >= 10


def test_l1_bound_is_at_most_every_router_that_routes_every_flow(tree4):
    # criterion 1's fuzz on z=4, at loads light enough that most inputs are
    # routed whole: whenever a router routes every flow, the bound over its
    # flows is at most its active count. SRSP and SRG keep only the first
    # dimension within capacity, so their bound is taken over it alone.
    rng = random.Random(2026)
    complete = dict.fromkeys(ROUTERS, 0)
    tight = 0
    for run in range(150):
        dims = rng.choice((1, 3, 5))
        workload = generate_workload(tree4, rng.randint(1, 40), dims, rng.uniform(0.01, 0.15),
                                     rng.uniform(0.0, 0.15), seed=rng.randrange(10**9))
        for algo, router in ROUTERS.items():
            solution = router(tree4, workload, run)
            if solution.unrouted:
                continue
            seen = first_dimension(workload) if algo in ("srsp", "srg") else workload
            bound = l1_bound(tree4, seen, set(solution.paths))
            assert bound <= len(solution.active), (algo, run)
            complete[algo] += 1
            tight += bound == len(solution.active)
    assert min(complete.values()) >= 60 and tight >= 60, (complete, tight)


# -- the solution contract ----------------------------------------------------------
# Every router returns flows partitioned into routed and unrouted, simple
# host-to-host paths that relay through no host, loads equal to the demand
# sums over the paths and an active set of the processors that carry load:
# what perfbench/validate.py checks without calling routing code. MRG, MRSP
# and HGR also keep every processor within capacity.

CAPACITY_KEPT = ("mrg", "mrsp", "hgr")


@pytest.mark.parametrize("algo", sorted(ROUTERS))
def test_every_router_keeps_the_solution_contract(check_solution, algo):
    # criterion 1's instance family; loads are the demand sums over the
    # paths, bit for bit, and a second call returns an equal solution
    router = ROUTERS[algo]
    rng = random.Random(2025)
    routed = unrouted = 0
    for run in range(120):
        topology = build_fat_tree(rng.choice((2, 4)))
        workload = generate_workload(topology, rng.randint(1, 60), rng.choice((1, 3, 5)), rng.uniform(0.01, 0.3),
                                     rng.uniform(0.0, 0.3), seed=rng.randrange(10**9))
        solution = router(topology, workload, run)
        assert check_solution(topology, workload, solution, capacity=algo in CAPACITY_KEPT) == [], run
        assert solution.load == reference_solution_loads(topology, workload, solution.paths), run
        assert router(topology, workload, run) == solution, run
        routed += len(solution.paths)
        unrouted += len(solution.unrouted)
    assert routed > 1000 and unrouted > 0  # the instances reach capacity


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROUTERS)), st.integers(1, 60), st.sampled_from((1, 3, 5)), st.floats(0.01, 0.3),
       st.integers(0, 10**9), st.randoms(use_true_random=False))
def test_loads_are_the_same_in_any_commit_order(tree4, algo, flow_count, dims, mean, seed, rnd):
    # demands on the grid make every sum exact: the loads summed over the
    # paths in a shuffled order are the router's loads, bit for bit
    workload = generate_workload(tree4, flow_count, dims, mean, mean, seed=seed)
    solution = ROUTERS[algo](tree4, workload, seed)
    paths = list(solution.paths.items())
    rnd.shuffle(paths)
    assert solution.load == reference_solution_loads(tree4, workload, dict(paths))


# demand components at the capacity edges: a full switch, a hair under it,
# a hair over it (only an idle switch holds it), the tolerance itself (1100
# grid steps, which a full switch refuses) and half of it (which it takes)
EXTREME = (1.0, 1.0 - 1e-12, 1.0 + 5e-10, CAP_TOL, CAP_TOL / 2)


def _extreme_workload(dims):
    component = st.one_of(st.sampled_from(EXTREME), st.floats(0.0, 1.0, exclude_min=True))
    flow = st.tuples(st.integers(0, 15), st.integers(1, 15), st.tuples(*[component] * dims))
    return st.tuples(st.lists(flow, max_size=24), st.booleans()).map(lambda drawn: Workload(tuple(
        Flow(i, src, (src + step) % 16, (1.0, *demand[1:]) if drawn[1] else demand)
        for i, (src, step, demand) in enumerate(drawn[0])), dims))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(_extreme_workload), st.integers(0, 3))
def test_routers_stay_feasible_at_extreme_demands(tree4, check_solution, workload, seed):
    # optionally with every flow's first dimension full
    for algo in CAPACITY_KEPT:
        solution = ROUTERS[algo](tree4, workload, seed)
        assert check_solution(tree4, workload, solution, capacity=True) == [], algo


# -- the capacity boundary ------------------------------------------------------------
# Two flows (a, b) share every processor of their one path on a z=2
# fat-tree and on a one-processor star, and b sits on the boundary in one
# dimension. Demands are on the 2**-40 grid, so whether b fits once a is
# committed, by ``fits``, does not depend on which is committed first, and
# it is every solver's answer in either order.

TICK = 2.0**-40
EDGE = math.floor((1.0 + CAP_TOL) / TICK) * TICK  # the largest grid load that fits: 1 + 1099 steps


@st.composite
def _boundary_pair(draw):
    """(a, b) on the grid, K <= 3: b_k within 3 grid steps of EDGE - a_k in one dimension k, below 1 - a_j elsewhere.

    a_j stays at or below 1 - TICK on the grid, so 1 - a_j leaves room for b_j.
    """
    dims = draw(st.integers(1, 3))
    k = draw(st.integers(0, dims - 1))
    a = on_grid(draw(st.floats(1e-11, 1.0) if j == k else st.floats(0.0, 1.0 - TICK, exclude_min=True))
                for j in range(dims))
    b = on_grid(EDGE - c + draw(st.integers(-3, 3)) * TICK if j == k
                else draw(st.floats(0.0, 1.0 - c, exclude_min=True, exclude_max=True)) for j, c in enumerate(a))
    return a, b


def _second_fits(first, second, view):
    """Whether ``second`` fits, on its first ``view`` components, a processor that carries only ``first``."""
    state = state_with({0: first})
    return state.fits(0, state.room(second[:view]))


def _pair_workload(first, second):
    return Workload((Flow(0, 0, 1, first), Flow(1, 0, 1, second)), len(first))


@settings(max_examples=100, deadline=None)
@given(_boundary_pair())
@example(((0.6966314900670826,), (0.3033685109329176,)))  # a + b rounds to 1 + 1100 steps; neither order fits
@example(((0.75, 0.75), (0.25, 0.25)))  # exactly full
@example(((0.5,), (0.5 + 1099 * TICK,)))  # on the edge: both fit
@example(((0.5,), (0.5 + 1100 * TICK,)))  # one step past it
@example(((0.75, 0.75), (0.25 + 2 * CAP_TOL, 0.25)))  # past the tolerance in dimension 1
@example(((0.75, 0.75), (0.25, 0.25 + 2 * CAP_TOL)))  # past it in dimension 2 only: SRSP and SRG take both
@example(((5e-10,), (1.0 + 5e-10,)))  # b above 1, within the tolerance, alone; 550 + 550 steps is past it
@example(((1.0 + 5e-10,), (0.5,)))  # a above 1, within the tolerance: each solver takes it alone
@example(((0.1318227391638467,), (0.8681772618361534,)))  # once fitted in one order only
def test_every_solver_decides_a_boundary_pair_by_the_fit_rule(tree2, pair):
    # SRSP and SRG keep dimension 1. The pair is rounded to the grid as a
    # Flow rounds it; the packer and the bin oracle round it themselves.
    a, b = map(on_grid, pair)
    dims = len(a)
    fits = {view: _second_fits(a, b, view) for view in (1, dims)}
    assert fits == {view: _second_fits(b, a, view) for view in (1, dims)}
    star = build_star_reduction(1).topology
    for first, second in (pair, pair[::-1]):
        workload = _pair_workload(first, second)
        for algo, router in ROUTERS.items():
            view = 1 if algo in ("srsp", "srg") else dims
            assert [len(router(tree2, workload, seed).paths) for seed in range(3)] == [1 + fits[view]] * 3, algo
        assert [len(route_mrg(star, workload, seed).paths) for seed in range(3)] == [1 + fits[dims]] * 3
        state, ref_state = ResidualState.fresh(tree2, dims), ResidualState.fresh(tree2, dims)
        paths = [online_arrival(state, tree2, flow) for flow in workload.flows]
        assert [path is not None for path in paths] == [True, fits[dims]]
        # every frozen reference routes the pair exactly as the library does
        assert paths == [reference_online_arrival(ref_state, tree2, flow) for flow in workload.flows]
        for seed in range(3):
            assert route_mrg(tree2, workload, seed) == reference_route_greedy(tree2, workload, seed, dims)
            assert route_srg(tree2, workload, seed) == reference_route_greedy(tree2, workload, seed, 1)
        assert route_srsp(tree2, workload) == reference_route_shortest(tree2, workload, 0, 1)
        assert route_mrsp(tree2, workload) == reference_route_shortest(tree2, workload, 0, dims)
        assert route_hgr(tree2, workload) == reference_route_hgr(tree2, workload)
        assert oracle_min_active(tree2, workload) == (5 if fits[dims] else None)
        assert oracle_min_bins((first, second)) == vbp_greedy((first, second)).bin_count == 2 - fits[dims]


def test_the_pair_that_once_fitted_in_one_order_gets_one_answer(tree2):
    # (0.1318227391638467,) and (0.8681772618361534,) once summed to at most
    # 1 + CAP_TOL in one commit order only, so the oracles, the packer and
    # MRG parted by the order they saw. On the grid they sum to 1 + 1100
    # steps in both, and every solver refuses the second flow.
    pair = ((0.1318227391638467,), (0.8681772618361534,))
    answers = set()
    for first, second in (pair, pair[::-1]):
        workload = _pair_workload(first, second)
        state = ResidualState.fresh(tree2, 1)
        answers.add((
            tuple((algo, len(router(tree2, workload, seed).paths)) for algo, router in ROUTERS.items()
                  for seed in range(3)),
            tuple(online_arrival(state, tree2, flow) is not None for flow in workload.flows),
            oracle_min_active(tree2, workload),
            oracle_min_bins((first, second)),
            vbp_greedy((first, second)).bin_count,
        ))
    assert answers == {(tuple((algo, 1) for algo in ROUTERS for _ in range(3)), (True, False), None, 2, 2)}


def test_a_demand_that_rounds_past_the_tolerance_fits_nothing(tree2):
    # 1 + 1e-9 rounds up to 1 + 1100 grid steps, past fl(1 + CAP_TOL): the
    # packer refuses it, the bin oracle finds no packing, and no router or
    # arrival puts it on an idle switch. 1 + 1099 steps is the most that fits.
    assert Flow(0, 0, 1, (1.0 + 1e-9,)).demand == (1.0 + 1100 * TICK,)
    with pytest.raises(ValueError, match="does not fit a unit bin"):
        vbp_greedy([(1.0 + 1e-9,)])
    assert oracle_min_bins([(1.0 + 1e-9,)]) is None
    assert vbp_greedy([(EDGE,)]).bin_count == oracle_min_bins([(EDGE,)]) == 1
    for demand, routed in (((1.0 + 1e-9,), False), ((EDGE,), True)):
        workload = Workload((Flow(0, 0, 1, demand),), 1)
        for algo, router in ROUTERS.items():
            assert len(router(tree2, workload, 0).paths) == routed, algo
        assert (online_arrival(ResidualState.fresh(tree2, 1), tree2, workload.flows[0]) is not None) == routed


# -- experiment harness -----------------------------------------------------------

def test_cell_seed_stable_and_algorithm_independent():
    assert cell_seed(0, 60, 3) == cell_seed(0, 60, 3)
    seen = {cell_seed(0, m, t) for m in (20, 40) for t in range(10)}
    assert len(seen) == 20
    assert cell_seed(1, 20, 0) != cell_seed(0, 20, 0)


def test_single_cell_produces_data_plus_mean_row(tree4):
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5,), algorithms=("mrsp",),
                              trials=1, base_seed=3)
    rows = run_experiment(config)
    assert len(rows) == 2
    assert rows[0].trial == "0" and rows[1].trial == "mean"


def test_experiment_deterministic():
    config = ExperimentConfig(z=4, dims=2, flow_counts=(4, 8), algorithms=("mrg", "srsp"),
                              trials=3, base_seed=11)
    assert run_experiment(config) == run_experiment(config)


def test_workloads_shared_across_algorithms():
    t = build_fat_tree(4)
    seed = cell_seed(5, 12, 2)
    a = generate_workload(t, 12, 3, 0.02, 0.02, seed)
    b = generate_workload(t, 12, 3, 0.02, 0.02, seed)
    assert a == b  # the seed depends only on (base_seed, M, trial)


def test_summary_rows_recompute_from_data(tmp_path):
    config = ExperimentConfig(z=4, dims=3, flow_counts=(10,), algorithms=("mrg",),
                              trials=4, base_seed=2)
    rows = run_experiment(config)
    data = [r for r in rows if r.trial.isdigit()]
    mean = next(r for r in rows if r.trial == "mean")
    std = next(r for r in rows if r.trial == "std")
    savings = [r.metrics.saving_ratio for r in data]
    mu = sum(savings) / len(savings)
    assert mean.metrics.saving_ratio == pytest.approx(mu, abs=1e-12)
    assert std.metrics.saving_ratio == pytest.approx(
        (sum((s - mu) ** 2 for s in savings) / len(savings)) ** 0.5, abs=1e-12)


def test_csv_layout(tmp_path):
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5,), algorithms=("hgr",),
                              trials=2, base_seed=0)
    out = tmp_path / "results.csv"
    write_results_csv(run_experiment(config), out)
    with open(out) as f:
        table = list(csv.reader(f))
    assert tuple(table[0]) == CSV_COLUMNS
    assert [r[4] for r in table[1:]] == ["0", "1", "mean", "std"]
    assert all(r[11] == "0.0" for r in table[1:])  # runtime off by default


def test_runtime_measurement_optional():
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5,), algorithms=("mrg",),
                              trials=1, base_seed=0, measure_runtime=True)
    rows = run_experiment(config)
    assert rows[0].metrics.runtime_ms > 0


def test_trial_failures_become_error_rows(monkeypatch):
    def boom(topology, workload, seed):
        raise RuntimeError("router exploded")

    monkeypatch.setitem(ROUTERS, "mrg", boom)
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5,), algorithms=("mrg",),
                              trials=2, base_seed=0)
    rows = run_experiment(config)
    assert all(r.metrics is None for r in rows)
    assert rows[0].error and "router exploded" in rows[0].error
    assert rows[0].csv_values()[5:] == ["error"] * 7


def test_one_topology_per_experiment_and_one_workload_per_cell(monkeypatch):
    built, generated = [], []

    def counting_build(z):
        built.append(z)
        return build_fat_tree(z)

    def counting_generate(topology, m, *args):
        generated.append((m, args[-1]))
        return generate_workload(topology, m, *args)

    monkeypatch.setattr(evaluation, "build_fat_tree", counting_build)
    monkeypatch.setattr(evaluation, "generate_workload", counting_generate)
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5, 10), algorithms=("mrg", "hgr", "srsp"),
                              trials=2, base_seed=3)
    rows = run_experiment(config)
    assert built == [4]
    assert sorted(generated) == sorted((m, cell_seed(3, m, t)) for m in (5, 10) for t in range(2))
    assert [(r.algo, r.flows, r.trial) for r in rows] == [
        (a, m, t) for a in config.algorithms for m in (5, 10) for t in ("0", "1", "mean", "std")]


def test_parallel_jobs_match_serial():
    config = ExperimentConfig(z=4, dims=2, flow_counts=(5, 10), algorithms=("mrsp", "hgr"),
                              trials=2, base_seed=7)
    serial = run_experiment(config)
    parallel = run_experiment(ExperimentConfig(**{**config.__dict__, "jobs": 2}))
    assert serial == parallel


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 8, 2),     # capped by cores
    (4, 8, 3),     # capped by cells
    (4, 2, 2),     # as asked
    (1, 8, None),  # one core: serial, no pool
    (None, 8, None),
])
def test_worker_count_capped(monkeypatch, cpus, jobs, workers):
    created = []

    class RecordingPool:
        """Records the pool size and maps in-process: no worker is started."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    config = ExperimentConfig(z=2, dims=1, flow_counts=(2, 3, 4), algorithms=("hgr",),
                              trials=1, jobs=jobs)
    rows = run_experiment(config)
    assert created == ([] if workers is None else [workers])
    assert rows == run_experiment(dataclasses.replace(config, jobs=1))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(flow_counts=())
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=("nope",))
    for algorithms in ((), ("mrg", "hgr", "mrg")):
        with pytest.raises(ValueError, match="nonempty and distinct"):
            ExperimentConfig(algorithms=algorithms)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        ExperimentConfig(jobs=0)
