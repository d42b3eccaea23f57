"""Metrics, exact small-instance oracles, and the multi-trial experiment harness."""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .baselines import route_mrsp, route_srg, route_srsp
from .hgr import route_hgr
from .mrg import CAP_TOL, RoutingSolution, route_mrg
from .topology import Topology, build_fat_tree
from .workload import Workload, generate_workload


@dataclass(frozen=True)
class Metrics:
    """Headline numbers for one routing run."""

    routed: int
    incomplete: int
    active_processors: int
    total_processors: int
    saving_ratio: float
    congested: int
    runtime_ms: float


def compute_metrics(topology: Topology, solution: RoutingSolution, runtime_ms: float = 0.0) -> Metrics:
    """Derive metrics from a solution; congestion is judged on full loads in every dimension."""
    total = len(topology.processor_ids)
    active = len(solution.active)
    congested = sum(
        1 for v in topology.processor_ids
        if any(c > 1.0 + CAP_TOL for c in solution.load[v])
    )
    return Metrics(
        routed=len(solution.paths),
        incomplete=len(solution.unrouted),
        active_processors=active,
        total_processors=total,
        saving_ratio=(total - active) / total,
        congested=congested,
        runtime_ms=runtime_ms,
    )


# -- exact oracles -----------------------------------------------------------------
# Exponential searches, deliberately small: they exist to certify the heuristics
# on instances where the truth is computable.

_MAX_ORACLE_PROCESSORS = 12
_MAX_ORACLE_FLOWS = 6
_MAX_ORACLE_ITEMS = 8


def _simple_paths(topology: Topology, allowed_interior: frozenset[int], s: int, t: int):
    adj = topology._adj
    path = [s]
    seen = {s}

    def walk(u):
        for v in adj[u]:
            if v == t:
                yield path + [t]
            elif v in allowed_interior and v not in seen:
                path.append(v)
                seen.add(v)
                yield from walk(v)
                path.pop()
                seen.remove(v)

    yield from walk(s)


def _subset_feasible(topology: Topology, subset: frozenset[int], flows, dims: int) -> bool:
    loads = {v: [0.0] * dims for v in subset}

    def place(i: int) -> bool:
        if i == len(flows):
            return True
        flow = flows[i]
        for path in _simple_paths(topology, subset, flow.src, flow.dst):
            on_path = path[1:-1]
            if any(loads[v][k] + flow.demand[k] > 1.0 + CAP_TOL
                   for v in on_path for k in range(dims)):
                continue
            for v in on_path:
                l = loads[v]
                for k in range(dims):
                    l[k] += flow.demand[k]
            if place(i + 1):
                return True
            for v in on_path:
                l = loads[v]
                for k in range(dims):
                    l[k] -= flow.demand[k]
        return False

    return place(0)


def oracle_min_active(topology: Topology, workload: Workload) -> int | None:
    """Exact minimum number of load-carrying processors, or ``None`` if infeasible.

    Every flow runs between two hosts (``Topology._check_hosts``).
    Enumerates processor subsets by increasing size and decides each by an
    exhaustive search over single paths through the subset, whose interior
    processors carry the flow's demand; hosts never relay. Refuses
    instances beyond 12 processors or 6 flows.
    """
    topology._check_hosts(workload.flows)
    procs = topology.processor_ids
    if len(procs) > _MAX_ORACLE_PROCESSORS:
        raise ValueError(f"instance too large: {len(procs)} processors (limit {_MAX_ORACLE_PROCESSORS})")
    if len(workload.flows) > _MAX_ORACLE_FLOWS:
        raise ValueError(f"instance too large: {len(workload.flows)} flows (limit {_MAX_ORACLE_FLOWS})")
    if not workload.flows:
        return 0
    for size in range(len(procs) + 1):
        for subset in itertools.combinations(procs, size):
            if _subset_feasible(topology, frozenset(subset), workload.flows, workload.dims):
                return size
    return None


def oracle_min_bins(items: Sequence[Sequence[float]]) -> int | None:
    """Exact minimum unit-bin count (at most 8 items); ``None`` if an item has a component above 1."""
    items = [tuple(float(c) for c in item) for item in items]
    if len(items) > _MAX_ORACLE_ITEMS:
        raise ValueError(f"instance too large: {len(items)} items (limit {_MAX_ORACLE_ITEMS})")
    for i, item in enumerate(items):
        if any(c <= 0 for c in item):
            raise ValueError(f"item {i} has a component that is not positive: {item}")
    if any(c > 1 for item in items for c in item):
        return None
    if not items:
        return 0
    dims = len(items[0])
    best = len(items)
    bins: list[list[float]] = []

    def search(i: int) -> None:
        nonlocal best
        if len(bins) >= best:
            return
        if i == len(items):
            best = len(bins)
            return
        item = items[i]
        for b in bins:
            if all(b[k] + item[k] <= 1.0 + CAP_TOL for k in range(dims)):
                for k in range(dims):
                    b[k] += item[k]
                search(i + 1)
                for k in range(dims):
                    b[k] -= item[k]
        if len(bins) + 1 < best:
            bins.append(list(item))
            search(i + 1)
            bins.pop()

    search(0)
    return best


# -- experiment harness ---------------------------------------------------------------

def _route_hgr_solution(topology: Topology, workload: Workload, seed: int = 0) -> RoutingSolution:
    return route_hgr(topology, workload)[0]


ROUTERS: dict[str, Callable[[Topology, Workload, int], RoutingSolution]] = {
    "mrg": route_mrg,
    "hgr": _route_hgr_solution,
    "srsp": route_srsp,
    "srg": route_srg,
    "mrsp": route_mrsp,
}

CSV_COLUMNS = ("algo", "z", "K", "M", "trial", "routed", "incomplete", "active",
               "total", "saving_ratio", "congested", "runtime_ms")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: every algorithm crossed with every flow count, ``trials`` times each.

    A cell is one (flow count, trial) workload, generated once and routed
    by every algorithm; ``jobs`` spreads the cells over worker processes.
    Runtime measurement is opt-in so that result files stay byte-identical
    across reruns; with it off, runtime_ms is written as 0.0.
    """

    z: int = 8
    dims: int = 5
    flow_counts: tuple[int, ...] = (20, 40, 60, 80, 100, 120)
    algorithms: tuple[str, ...] = ("mrg", "hgr", "srsp", "srg", "mrsp")
    trials: int = 20
    base_seed: int = 0
    mean: float = 0.02
    std: float = 0.02
    jobs: int = 1
    measure_runtime: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.flow_counts:
            raise ValueError("flow_counts must be nonempty")
        if not self.algorithms or len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"algorithms must be nonempty and distinct, got {list(self.algorithms)}")
        unknown = [a for a in self.algorithms if a not in ROUTERS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    algo: str
    z: int
    dims: int
    flows: int
    trial: str  # "0".."N-1", "mean", or "std"
    metrics: Metrics | None
    error: str | None = None

    def csv_values(self) -> list[str]:
        head = [self.algo, str(self.z), str(self.dims), str(self.flows), self.trial]
        if self.metrics is None:
            return head + ["error"] * len(fields(Metrics))
        return head + [str(v) for v in astuple(self.metrics)]


def cell_seed(base_seed: int, flow_count: int, trial: int) -> int:
    """Stable per-cell workload seed, identical across algorithms and platforms."""
    digest = hashlib.sha256(f"{base_seed}:{flow_count}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _summary_rows(trial_rows: list[ResultRow], trials: int) -> list[ResultRow]:
    good = [r.metrics for r in trial_rows if r.metrics is not None]
    proto = trial_rows[0]
    if not good:
        return [ResultRow(proto.algo, proto.z, proto.dims, proto.flows, "mean", None, "all trials failed")]

    n = len(good)

    def agg(fn) -> Metrics:
        return Metrics(*map(fn, zip(*map(astuple, good))))

    def pstd(xs: Sequence[float]) -> float:
        mu = sum(xs) / n
        return (sum((x - mu) ** 2 for x in xs) / n) ** 0.5

    mean = agg(lambda xs: sum(xs) / n)
    rows = [ResultRow(proto.algo, proto.z, proto.dims, proto.flows, "mean", mean)]
    if trials >= 2:
        rows.append(ResultRow(proto.algo, proto.z, proto.dims, proto.flows, "std", agg(pstd)))
    return rows


def _run_cell(config: ExperimentConfig, topology: Topology, flow_count: int, trial: int) -> list[ResultRow]:
    """Route one (flow count, trial) workload with every algorithm: one row each, in config order.

    The workload is generated here rather than passed in, so no worker is
    sent one and a sweep holds one at a time. A generation error propagates;
    only a router's exception becomes an error row.
    """
    seed = cell_seed(config.base_seed, flow_count, trial)
    workload = generate_workload(topology, flow_count, config.dims, config.mean, config.std, seed)
    rows: list[ResultRow] = []
    for algo in config.algorithms:
        try:
            start = time.perf_counter()
            solution = ROUTERS[algo](topology, workload, seed)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            metrics = compute_metrics(topology, solution,
                                      elapsed_ms if config.measure_runtime else 0.0)
            rows.append(ResultRow(algo, config.z, config.dims, flow_count, str(trial), metrics))
        except Exception as exc:
            rows.append(ResultRow(algo, config.z, config.dims, flow_count, str(trial), None, repr(exc)))
    return rows


def _run_share(args: tuple[ExperimentConfig, Topology, list[tuple[int, int]]]) -> list[list[ResultRow]]:
    """Run a share of the cells, in order, on one topology.

    A worker process gets one share, so it unpickles the fat-tree and
    builds its lazy tables once, not once per cell; the serial path runs
    every cell as one share on the parent's tree.
    """
    config, topology, cells = args
    return [_run_cell(config, topology, m, trial) for m, trial in cells]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the sweep and return rows in canonical (algorithm, flow count, trial) order.

    The fat-tree is built once; each (flow count, trial) cell routes its
    workload with every algorithm. Each (algorithm, flow count) block of
    trial rows is followed by its mean (and, with two or more trials, std) row.
    """
    topology = build_fat_tree(config.z)
    cells = [(m, trial) for m in config.flow_counts for trial in range(config.trials)]
    # more workers than cells or cores only adds start-up cost
    workers = min(config.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # worker i runs every workers-th cell from i, so each share mixes flow counts
        shares = [(config, topology, cells[i::workers]) for i in range(workers)]
        per_cell: list = [None] * len(cells)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, share_rows in enumerate(pool.map(_run_share, shares)):
                per_cell[i::workers] = share_rows
    else:
        per_cell = _run_share((config, topology, cells))
    rows: list[ResultRow] = []
    # per algorithm, its rows in (flow count, trial) order
    for algo_rows in zip(*per_cell):
        for i in range(0, len(algo_rows), config.trials):
            trial_rows = list(algo_rows[i:i + config.trials])
            rows.extend(trial_rows)
            rows.extend(_summary_rows(trial_rows, config.trials))
    return rows


def failure_report(rows: Sequence[ResultRow]) -> list[str]:
    """Lines reporting failed trials, for stderr; empty when every trial succeeded.

    Each failed trial gets a line with its algorithm, flow count, trial and
    message (the CSV keeps only ``error`` cells), and each cell with a
    failure a line saying how many trials its summary rows averaged.
    """
    cells: dict[tuple[str, int], list[ResultRow]] = {}
    for row in rows:
        if row.trial not in ("mean", "std"):
            cells.setdefault((row.algo, row.flows), []).append(row)
    lines = []
    for (algo, flows), trials in cells.items():
        failed = [r for r in trials if r.metrics is None]
        if not failed:
            continue
        for r in failed:
            lines.append(f"{algo} M={flows} trial {r.trial} failed: {r.error}")
        averaged = len(trials) - len(failed)
        lines.append(f"{algo} M={flows}: summary rows average {averaged} of {len(trials)} trials")
    return lines


def write_results_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.csv_values())
