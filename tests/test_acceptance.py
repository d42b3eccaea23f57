"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5 to 8 share two experiment sweeps (session fixtures). Three checks
are KNOWN RED on this implementation and fail honestly rather than being
weakened; the mechanisms are summarized in the failing assertions:

* criterion 5: single-resource greedy (SRG) packs nodes past their true
  multi-dimensional capacity (it watches dimension 1 only), so its nominal
  saving ratio can exceed MRG's at some flow counts. The flip side, the
  congested nodes it creates, is criterion 6's subject.
* criterion 6: with the default demand scale (mean = std = 0.02) no node
  ever nears capacity under spreading shortest-path routing, so SRSP cannot
  congest anything; only consolidating algorithms (SRG) congest.
* criterion 7: with per-dimension independent demands, adding dimensions
  tightens the feasibility constraint (the max-dimension load binds) and
  at the default demand scale M=60 never stresses capacity at all, so the
  saving ratio stays flat instead of rising with the dimension count.
"""

import itertools
import random
import statistics
import time

import pytest

from greenroute import (
    ExperimentConfig,
    Flow,
    Workload,
    build_fat_tree,
    build_star_reduction,
    compute_metrics,
    generate_workload,
    inv_count,
    node_to_link_weights,
    oracle_min_active,
    oracle_min_bins,
    route_hgr,
    route_mrg,
    run_experiment,
    shortest_path,
    vbp_greedy,
    write_results_csv,
)
from greenroute.evaluation import ROUTERS

from oracle_helpers import all_simple_paths, path_link_cost, random_topology

TOL = 1e-9
SWEEP_M = (20, 40, 60, 80, 100, 120)
SWEEP_K = (2, 3, 4, 5, 6, 7, 8)
BASE_SEED = 0


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {name}: {verdict}{suffix}")
    return ok


@pytest.fixture(scope="session")
def flow_sweep(tmp_path_factory):
    """Criteria 5/6 sweep: z=8, K=5, M in 20..120, 20 trials, 4 algorithms."""
    config = ExperimentConfig(z=8, dims=5, flow_counts=SWEEP_M,
                              algorithms=("mrg", "srsp", "srg", "mrsp"),
                              trials=20, base_seed=BASE_SEED)
    start = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - start
    path = tmp_path_factory.mktemp("acceptance") / "flow_sweep.csv"
    write_results_csv(rows, path)
    return config, rows, path, elapsed


@pytest.fixture(scope="session")
def dims_sweep(tmp_path_factory):
    """Criteria 7/8 sweep: z=8, M=60, K in 2..8, 20 trials, MRG and HGR."""
    configs, all_rows = [], {}
    start = time.perf_counter()
    for dims in SWEEP_K:
        config = ExperimentConfig(z=8, dims=dims, flow_counts=(60,),
                                  algorithms=("mrg", "hgr"), trials=20, base_seed=BASE_SEED)
        configs.append(config)
        all_rows[dims] = run_experiment(config)
    elapsed = time.perf_counter() - start
    path = tmp_path_factory.mktemp("acceptance") / "dims_sweep.csv"
    write_results_csv([r for dims in SWEEP_K for r in all_rows[dims]], path)
    return configs, all_rows, path, elapsed


def _mean_metric(rows, algo, flows, field):
    for r in rows:
        if r.algo == algo and r.flows == flows and r.trial == "mean":
            return getattr(r.metrics, field)
    raise KeyError((algo, flows, field))


def test_criterion_1_feasibility_fuzz():
    rng = random.Random(2024)
    start = time.perf_counter()
    runs = 0
    violations = []
    while runs < 1000:
        z = rng.choice((2, 4))
        dims = rng.choice((1, 3, 5))
        flows = rng.randint(1, 60)
        mean = rng.uniform(0.01, 0.3)
        std = rng.uniform(0.0, 0.3)
        topology = build_fat_tree(z)
        workload = generate_workload(topology, flows, dims, mean, std, seed=rng.randrange(10**9))
        for algo, router in ROUTERS.items():
            solution = router(topology, workload, runs)
            enforced = (0,) if algo in ("srsp", "srg") else tuple(range(dims))
            for v in topology.processor_ids:
                if any(solution.load[v][k] > 1 + TOL for k in enforced):
                    violations.append((algo, z, dims, flows, v))
            if algo in ("mrg", "mrsp", "hgr"):
                if compute_metrics(topology, solution).congested != 0:
                    violations.append((algo, "congested"))
            runs += 1
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300
    assert _report(1, "feasibility under fuzzing", ok,
                   f"{runs} runs, {len(violations)} violations, {elapsed:.0f}s"), violations[:5]


def test_criterion_2_inversion_bound():
    start = time.perf_counter()
    failures = 0
    for n in (1, 2, 3, 4):
        most = n * (n - 1) // 2
        for x in itertools.permutations(range(n)):
            for y in itertools.permutations(range(n)):
                if not 0 <= inv_count(x, y) <= most:
                    failures += 1
        increasing = tuple(range(n))
        if inv_count(increasing, increasing[::-1]) != most:
            failures += 1
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        x = [rng.random() for _ in range(n)]
        y = [rng.random() for _ in range(n)]
        if not 0 <= inv_count(x, y) <= n * (n - 1) // 2:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60
    assert _report(2, "inversion count bound", ok,
                   f"617 permutation pairs + 10000 random pairs, {elapsed:.1f}s")


def test_criterion_3_transform_identity():
    rng = random.Random(13)
    start = time.perf_counter()
    graphs = paths_checked = 0
    failures = []
    while graphs < 200:
        topo = random_topology(rng, rng.randint(4, 12), rng.uniform(0.25, 0.6))
        weights = {v: rng.randint(0, 8) for v in range(len(topo))}
        links = node_to_link_weights(topo, weights)
        s, t = rng.sample(range(len(topo)), 2)
        paths = all_simple_paths(topo, s, t)
        graphs += 1
        if not paths:
            continue
        end_w = (weights[s] + weights[t]) / 2
        best_node_cost = None
        for p in paths:
            link_cost = path_link_cost(p, links)
            node_cost = sum(weights[v] for v in p) - end_w
            if link_cost != node_cost:  # exact: all quantities are multiples of 0.5
                failures.append(("telescoping", p))
            if best_node_cost is None or node_cost < best_node_cost:
                best_node_cost = node_cost
            paths_checked += 1
        dijkstra = shortest_path(topo, set(range(len(topo))), links, s, t)
        if path_link_cost(dijkstra, links) != best_node_cost:
            failures.append(("dijkstra", s, t))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    assert _report(3, "node-to-link transform identity", ok,
                   f"200 graphs, {paths_checked} paths, {elapsed:.1f}s"), failures[:3]


def test_criterion_4_oracle_equivalence():
    rng = random.Random(4)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(50):
        n = rng.randint(1, 5)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.05, 1.0) for _ in range(dims)) for _ in range(n)]
        star = build_star_reduction(n)
        workload = Workload(tuple(Flow(i, 0, 1, d) for i, d in enumerate(items)), dims)
        if oracle_min_active(star.topology, workload) != oracle_min_bins(items):
            mismatches += 1
    beats_oracle = 0
    ties = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.05, 1.0) for _ in range(dims)) for _ in range(n)]
        greedy = vbp_greedy(items).bin_count
        optimum = oracle_min_bins(items)
        if greedy < optimum:
            beats_oracle += 1
        if greedy == optimum:
            ties += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and beats_oracle == 0 and ties >= 100 and elapsed < 120
    assert _report(4, "routing oracle equals packing oracle", ok,
                   f"50 star instances, 200 packing instances, {ties} ties, {elapsed:.0f}s")


def test_criterion_5_saving_dominance(flow_sweep):
    config, rows, _, elapsed = flow_sweep
    problems = []
    for m in SWEEP_M:
        mrg = _mean_metric(rows, "mrg", m, "saving_ratio")
        for rival in ("srsp", "srg", "mrsp"):
            other = _mean_metric(rows, rival, m, "saving_ratio")
            if mrg < other:
                problems.append(f"M={m}: mrg {mrg:.4f} < {rival} {other:.4f}")
    gap = (_mean_metric(rows, "mrg", 60, "saving_ratio")
           - _mean_metric(rows, "srsp", 60, "saving_ratio"))
    if gap < 0.05:
        problems.append(f"gap vs srsp at M=60 is {gap:.4f} < 0.05")
    ok = not problems and elapsed < 1800
    assert _report(5, "saving-ratio dominance", ok,
                   f"sweep {elapsed:.0f}s; " + ("; ".join(problems) or f"gap at M=60 {gap:.3f}")), (
        "single-resource greedy routing can report higher nominal savings because it "
        "packs nodes past their true multi-dimensional capacity (see criterion 6): "
        + "; ".join(problems))


def test_criterion_6_congestion_split(flow_sweep):
    _, rows, _, _ = flow_sweep
    problems = []
    for m in SWEEP_M:
        if _mean_metric(rows, "mrg", m, "congested") != 0:
            problems.append(f"mrg congested at M={m}")
        if _mean_metric(rows, "mrsp", m, "congested") != 0:
            problems.append(f"mrsp congested at M={m}")
    for m in (80, 100, 120):
        for algo in ("srsp", "srg"):
            if _mean_metric(rows, algo, m, "congested") <= 0:
                problems.append(f"{algo} shows no congestion at M={m}")
    ok = not problems
    assert _report(6, "congestion only under single-resource routing", ok,
                   "; ".join(problems) or "srsp/srg congest, mrg/mrsp never"), (
        "at demand scale mean=std=0.02 no node comes near capacity under spreading "
        "shortest-path routing, so SRSP cannot congest: " + "; ".join(problems))


def test_criterion_7_saving_grows_with_dimensions(dims_sweep):
    _, all_rows, _, elapsed = dims_sweep
    curve = {k: _mean_metric(all_rows[k], "mrg", 60, "saving_ratio") for k in SWEEP_K}
    stds = {k: next(r.metrics.saving_ratio for r in all_rows[k]
                    if r.algo == "mrg" and r.trial == "std") for k in SWEEP_K}
    pooled = (sum(s * s for s in stds.values()) / len(stds)) ** 0.5
    problems = []
    growth = curve[8] - curve[2]
    if growth < 0.05:
        problems.append(f"K=8 minus K=2 is {growth:+.4f} < 0.05")
    for lo, hi in zip(SWEEP_K, SWEEP_K[1:]):
        if curve[hi] < curve[lo] - pooled:
            problems.append(f"dip {curve[lo]:.4f} -> {curve[hi]:.4f} at K={hi} exceeds 1 pooled std")
    ok = not problems and elapsed < 1800
    curve_text = " ".join(f"K{k}={curve[k]:.3f}" for k in SWEEP_K)
    assert _report(7, "saving ratio grows with dimensions", ok, curve_text), (
        "with per-dimension independent demands, more dimensions only tighten the "
        "feasibility constraint; the saving curve stays flat at this demand scale: "
        + "; ".join(problems))


def test_criterion_8_heuristic_crossover(dims_sweep):
    _, all_rows, _, _ = dims_sweep
    hgr2 = _mean_metric(all_rows[2], "hgr", 60, "saving_ratio")
    mrg2 = _mean_metric(all_rows[2], "mrg", 60, "saving_ratio")
    hgr8 = _mean_metric(all_rows[8], "hgr", 60, "saving_ratio")
    mrg8 = _mean_metric(all_rows[8], "mrg", 60, "saving_ratio")
    ok = hgr2 >= mrg2 and mrg8 >= hgr8
    assert _report(8, "heuristic crossover across dimensions", ok,
                   f"K=2 hgr {hgr2:.4f} vs mrg {mrg2:.4f}; K=8 mrg {mrg8:.4f} vs hgr {hgr8:.4f}")


def test_criterion_9_runtime_ratio():
    topology = build_fat_tree(8)
    ratios, mrg_times, hgr_times = [], [], []
    for run in range(5):
        workload = generate_workload(topology, 120, 3, 0.02, 0.02, seed=run)
        start = time.perf_counter()
        route_mrg(topology, workload, seed=run)
        mrg_time = time.perf_counter() - start
        start = time.perf_counter()
        route_hgr(topology, workload)
        hgr_time = time.perf_counter() - start
        ratios.append(mrg_time / hgr_time)
        mrg_times.append(mrg_time)
        hgr_times.append(hgr_time)
    median = statistics.median(ratios)
    ok = median >= 20
    mrg_ms, hgr_ms = statistics.median(mrg_times) * 1e3, statistics.median(hgr_times) * 1e3
    assert _report(9, "hierarchical heuristic speedup", ok,
                   f"median ratio {median:.1f} over 5 runs (need >= 20); "
                   f"MRG median {mrg_ms:.2f} ms, HGR median {hgr_ms:.3f} ms")


def test_criterion_10_byte_identical_reruns(flow_sweep, dims_sweep, tmp_path):
    config, _, flow_csv, _ = flow_sweep
    dims_configs, _, dims_csv, _ = dims_sweep
    again = tmp_path / "flow_again.csv"
    write_results_csv(run_experiment(config), again)
    flows_identical = again.read_bytes() == flow_csv.read_bytes()
    again_dims = tmp_path / "dims_again.csv"
    write_results_csv([r for c in dims_configs for r in run_experiment(c)], again_dims)
    dims_identical = again_dims.read_bytes() == dims_csv.read_bytes()
    ok = flows_identical and dims_identical
    assert _report(10, "byte-identical reruns", ok,
                   f"flow sweep identical: {flows_identical}, dims sweep identical: {dims_identical}")
