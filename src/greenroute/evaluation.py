"""Metrics, exact small-instance oracles, and the multi-trial experiment harness."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .baselines import route_mrsp, route_srg, route_srsp
from .hgr import LayerCounts, route_hgr
from .mrg import online_departure, route_mrg
from .state import CAP_TOL, ResidualState, RoutingSolution
from .topology import Topology, build_fat_tree
from .workload import Workload, generate_workload, on_grid


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


def _chordless_paths(topology: Topology, s: int, t: int):
    """Every s-t path through relays (``Topology._inner_adj``) with no edge between two nonconsecutive nodes.

    Such a chord would shortcut the path to one whose interior is a strict
    subset, which wakes no more processors and loads none more (a float sum
    of nonnegative terms never grows when a term is dropped).
    """
    adj, inner = topology._adj, topology._inner_adj
    path = [s]
    banned = {s}  # the path and the neighbours of every node on it but the last

    def walk(u):
        if t in adj[u]:
            yield path + [t]
            return  # any longer path would have the chord u-t
        steps = [v for v in inner[u] if v not in banned]
        fresh = [w for w in adj[u] if w not in banned]
        banned.update(fresh)
        for v in steps:
            path.append(v)
            yield from walk(v)
            path.pop()
        banned.difference_update(fresh)

    yield from walk(s)


def oracle_min_active(topology: Topology, workload: Workload) -> int | None:
    """Exact minimum number of load-carrying processors, or ``None`` if infeasible.

    Every flow runs between two hosts (``Topology._check_hosts``). A branch
    and bound on a ``ResidualState``: each flow, in order, tries every
    chordless path (:func:`_chordless_paths`; hosts never relay) whose
    interior processors all ``fit`` its ``room``, the routers' rule, and
    skips a path that would wake as many processors as the best complete
    placement found so far. Idle processors with the same ``_adj`` row are
    twins: swapping two maps placements onto placements, so a path that
    wakes an idle processor is tried only if no idle twin with a lower id
    is left off it, and the minimum is unchanged. A branch is undone by
    :func:`online_departure`: loads are exact, so it drains to 0, and
    deactivates, exactly the processors that branch woke. Refuses instances
    beyond 12 processors or 6 flows.
    """
    topology._check_hosts(workload.flows)
    procs = topology.processor_ids
    if len(procs) > _MAX_ORACLE_PROCESSORS:
        raise ValueError(f"instance too large: {len(procs)} processors (limit {_MAX_ORACLE_PROCESSORS})")
    flows = workload.flows
    if len(flows) > _MAX_ORACLE_FLOWS:
        raise ValueError(f"instance too large: {len(flows)} flows (limit {_MAX_ORACLE_FLOWS})")
    state = ResidualState.fresh(topology, workload.dims)
    active, fits, commit = state.active, state.fits, state.commit
    options = [(flow, state.room(flow.demand), state.pack(flow.demand),
                [(path, path[1:-1]) for path in _chordless_paths(topology, flow.src, flow.dst)])
               for flow in flows]
    adj = topology._adj
    lower_twins = {v: [u for u in procs if u < v and adj[u] == adj[v]] for v in procs}
    best = len(procs) + 1  # no complete placement yet

    def place(i: int) -> None:
        nonlocal best
        if i == len(flows):
            best = len(active)
            return
        flow, room, demand, paths = options[i]
        for path, inner in paths:
            woken = [v for v in inner if v not in active]
            if len(active) + len(woken) >= best or not all(fits(v, room) for v in inner):
                continue
            if any(u not in active and u not in inner for v in woken for u in lower_twins[v]):
                continue  # a lower idle twin off the path gives the same placements
            commit(flow.id, path, demand)
            place(i + 1)
            online_departure(state, topology, flow, path)

    place(0)
    return best if best <= len(procs) else None


def oracle_min_bins(items: Sequence[Sequence[float]]) -> int | None:
    """Exact minimum unit-bin count (at most 8 items); ``None`` if an item fits no empty bin.

    A branch and bound over bins held as the processors of a
    ``ResidualState``: a bin takes an item when its load is within the
    item's room, by the routers' rule (``ResidualState.fits``), and a branch
    is undone by putting back the saved packed load.
    Items are rounded to the flows' demand grid (:func:`on_grid`) first, so an
    item fits no empty bin exactly when a rounded component exceeds 1 + CAP_TOL.
    """
    items = [on_grid(map(float, item)) for item in items]
    if len(items) > _MAX_ORACLE_ITEMS:
        raise ValueError(f"instance too large: {len(items)} items (limit {_MAX_ORACLE_ITEMS})")
    for i, item in enumerate(items):
        if any(not c > 0 for c in item):  # refuses NaN too
            raise ValueError(f"item {i} has a component that is not positive: {item}")
    if len(set(map(len, items))) > 1:  # a shorter item would leave the other dimensions unchecked
        raise ValueError("items must share one dimension count")
    if any(c > 1.0 + CAP_TOL for item in items for c in item):
        return None
    # bin j is processor j of a routing state; the first ``opened`` are open
    bins = ResidualState(dict.fromkeys(range(len(items)), 0), set(), len(items[0]) if items else 0)
    load, fits = bins.packed, bins.fits
    rooms = [bins.room(item) for item in items]
    packed = [bins.pack(item) for item in items]
    best = len(items)
    opened = 0

    def search(i: int) -> None:
        nonlocal best, opened
        if opened >= best:
            return
        if i == len(items):
            best = opened
            return
        item, room = packed[i], rooms[i]
        for j in range(opened):
            if fits(j, room):
                saved = load[j]
                load[j] = saved + item
                search(i + 1)
                load[j] = saved
        if opened + 1 < best:
            load[opened] = item
            opened += 1
            search(i + 1)
            opened -= 1
            load[opened] = 0

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

    A worker process gets one share, so it unpickles the fat-tree, with
    the tables :func:`build_fat_tree` set on it, once and not once per
    cell; the serial path runs every cell as one share on the parent's tree.
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
        # imported only here: it loads multiprocessing, about 1.7 MB of a process that never forks
        from concurrent.futures import ProcessPoolExecutor

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


def save_solution(solution: RoutingSolution, path: str | Path, counts: LayerCounts | None = None) -> None:
    """Dump a solution as JSON: per-flow paths, unrouted ids, active set, loads.

    With HGR's ``counts``, a ``layer_counts`` entry follows: the per-pod
    aggregation estimates, the core estimate and the activated switches.
    This is the whole ``route --out`` format.
    """
    doc = {
        "paths": {str(fid): list(p) for fid, p in sorted(solution.paths.items())},
        "unrouted": sorted(solution.unrouted),
        "active": sorted(solution.active),
        "load": {str(v): list(vec) for v, vec in sorted(solution.load.items())},
    }
    if counts is not None:
        doc["layer_counts"] = {"agg_per_pod": list(counts.agg_per_pod), "cores": counts.cores,
                               "activated": sorted(counts.activated)}
    Path(path).write_text(json.dumps(doc, separators=(", ", ": ")) + "\n")
