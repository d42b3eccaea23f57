#!/usr/bin/env python3
"""The greenroute benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; greenroute is imported from ``src/``. One
process runs one workload on one thread. It sets up its inputs from
``--seed``, makes whole passes over its inputs for about ``--seconds`` (at
least one pass), checks every routing output with the
independent checks in ``validate.py``, and prints a header, detail lines, a
digest of the outputs and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
each input is routed once untraced and once with spans installed around the
package's public functions, and the metrics are the per-layer ones.
``--workload all`` runs every workload, each in its own process. Workloads,
metrics and what each layer should move are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up takes milliseconds, less than the machine's speed swings last, so it
# is repeated for at least SETUP_S seconds and SETUP_REPS times.
SETUP_S = 2.0
SETUP_REPS = 15

END_TO_END_UNITS = {
    "flows_per_s": "1/s",
    "op_ms_p50": "ms",
    "saving_ratio": "share",
    "routed_share": "share",
    "uncongested_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def import_greenroute():
    """Import greenroute from the checkout's ``src/``, and from nowhere else."""
    if not (SRC / "greenroute" / "__init__.py").is_file():
        sys.exit(f"perfbench: no greenroute package under {SRC}")
    sys.path.insert(0, str(SRC))
    import greenroute
    import greenroute.cli  # noqa: F401  (the package does not import its CLI)
    if Path(greenroute.__file__).resolve().parent != (SRC / "greenroute").resolve():
        sys.exit(f"perfbench: imported greenroute from {greenroute.__file__}, not from {SRC}")
    return greenroute


gr = import_greenroute()
sys.path.insert(0, str(HERE))
from speed import Gauge  # noqa: E402
from tracing import Tracer  # noqa: E402
from validate import (  # noqa: E402
    TOL, adjacency, canonical, capable_path_exists, check_online_state, check_solution, path_errors,
)

# Routers are looked up on their module at call time, so installed spans apply.
ROUTER_FUNCS = {
    "mrg": (gr.mrg, "route_mrg"),
    "srg": (gr.baselines, "route_srg"),
    "hgr": (gr.hgr, "route_hgr"),
    "srsp": (gr.baselines, "route_srsp"),
    "mrsp": (gr.baselines, "route_mrsp"),
}
# Routers whose contract keeps every processor within capacity.
CAPACITY_CHECKED = {"mrg", "mrsp", "hgr"}


def call_router(algo: str, topology, workload, seed: int):
    """Route with ``algo``; return ``(solution, LayerCounts or None)``."""
    module, attr = ROUTER_FUNCS[algo]
    fn = getattr(module, attr)
    if algo == "hgr":
        return fn(topology, workload)
    return fn(topology, workload, seed), None


def derive_seed(seed: int, *salt) -> int:
    """A seed for one purpose, independent of the seeds for other purposes."""
    digest = hashlib.sha256(repr((seed,) + salt).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Bench:
    """One workload: set-up, a repeatable operation, output checks and metrics.

    ``pool`` is the number of distinct inputs; operation ``i`` uses input
    ``i % pool`` and runs are made of whole passes, so every input weighs the
    same in the metrics whatever the speed. Outputs are digested per input,
    and an input routed twice must give the same output both times. Times
    are taken with the run's speed gauge (``Gauge.timed``).
    """

    name = ""
    pool = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple, str] = {}
        self.gauge = Gauge()
        self._adj = None

    @property
    def adj(self):
        if self._adj is None:
            self._adj = adjacency(self.topology)
        return self._adj

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.name}: {message}", file=sys.stderr)

    def record(self, key: tuple, blob: bytes) -> None:
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            self.fail(f"output for {key} changed between two runs on the same input")

    def digest(self) -> str:
        lines = "".join(f"{key}={d}\n" for key, d in sorted(self.digests.items(), key=repr))
        return hashlib.sha256(lines.encode()).hexdigest()

    def check(self, algo: str, label: str, workload, solution, counts):
        out = check_solution(self.topology, self.adj, workload, solution,
                             capacity=algo in CAPACITY_CHECKED,
                             activated=None if counts is None else counts.activated)
        if out.errors:
            self.fail(f"{algo} {label}: {'; '.join(out.errors[:3])}")
        return out

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def details(self) -> list[str]:
        return []


class BatchBench(Bench):
    """Batch routers on a pool of generated workloads at one (z, M, K).

    Operation ``i`` routes pool workload ``i % pool`` with every router, in
    order. The first router is the primary one: ``op_ms_p50`` is its median
    call and ``saving_ratio`` the mean over its solutions.
    """

    def __init__(self, seed, name, z, flows, dims, routers, pool):
        super().__init__(seed)
        self.name, self.z, self.flows, self.dims = name, z, flows, dims
        self.routers, self.primary, self.pool = routers, routers[0], pool
        self.times = defaultdict(list)
        self.outcomes: dict[tuple, object] = {}

    def setup(self):
        self.topology = gr.topology.build_fat_tree(self.z)
        self.inputs = [gr.workload.generate_workload(self.topology, self.flows, self.dims,
                                                     seed=derive_seed(self.seed, self.name, "input", k))
                       for k in range(self.pool)]

    def op(self, i):
        k = i % self.pool
        workload = self.inputs[k]
        router_seed = derive_seed(self.seed, self.name, "router", k)
        for algo in self.routers:
            self.attempted += 1
            try:
                (solution, counts), elapsed = self.gauge.timed(call_router, algo, self.topology,
                                                               workload, router_seed)
            except Exception as exc:
                self.fail(f"{algo} on input {k} raised {exc!r}")
                continue
            self.times[algo].append(elapsed)
            self.outcomes[(k, algo)] = self.check(algo, f"on input {k}", workload, solution, counts)
            self.record((k, algo), canonical(solution))

    def flows_per_s(self, algo):
        return self.flows * len(self.times[algo]) / sum(self.times[algo])

    def metrics(self):
        rates = [self.flows_per_s(a) for a in self.routers]
        outs = self.outcomes.values()
        n_procs = len(self.topology.processor_ids)
        return {
            "flows_per_s": math.exp(statistics.fmean(map(math.log, rates))),
            "op_ms_p50": statistics.median(self.times[self.primary]) * 1e3,
            "saving_ratio": statistics.fmean(1.0 - o.active / n_procs
                                             for (_, a), o in self.outcomes.items() if a == self.primary),
            "routed_share": sum(o.routed for o in outs) / (self.flows * len(outs)),
            "uncongested_share": 1.0 - sum(o.congested for o in outs) / sum(o.active for o in outs),
        }

    def details(self):
        return [f"{a}: calls={len(ts)} median_ms={statistics.median(ts) * 1e3:.1f} "
                f"flows_per_s={self.flows_per_s(a):.1f}" for a, ts in self.times.items()]


class OnlineBench(Bench):
    """A churning stream of online arrivals and departures on live state.

    One operation is one stream over a pool workload: each flow arrives in
    order; once ``live_cap`` flows are live, a uniformly random live flow
    departs before each arrival. The benchmark keeps its own per-processor
    load, updated outside the timed calls: no accepted arrival may take a
    processor past capacity, and no rejected one may have a capable path.
    After the stream the state is checked, every live flow is drained, and
    the state must be back to all-idle.
    """

    name = "online-churn"
    z, dims, arrivals, mean, std, live_cap = 16, 3, 1500, 0.05, 0.05, 400
    pool = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.arrival_times: list[float] = []
        self.departure_times: list[float] = []
        self.quality: dict[int, dict[str, float]] = {}

    def setup(self):
        self.topology = gr.topology.build_fat_tree(self.z)
        self.inputs = [gr.workload.generate_workload(self.topology, self.arrivals, self.dims,
                                                     self.mean, self.std,
                                                     seed=derive_seed(self.seed, self.name, "input", k))
                       for k in range(self.pool)]

    def op(self, i):
        k = i % self.pool
        try:
            self._stream(k)
        except Exception as exc:
            self.fail(f"stream on input {k} raised {exc!r}")

    def _stream(self, k):
        topology, adj = self.topology, self.adj
        processors = set(topology.processor_ids)
        n_procs = len(processors)
        rng = random.Random(derive_seed(self.seed, self.name, "departures", k))
        arrive, depart = gr.mrg.online_arrival, gr.mrg.online_departure
        state = gr.mrg.ResidualState.fresh(topology, self.dims)
        live: dict[int, tuple] = {}
        live_ids: list[int] = []
        load = {v: [0.0] * self.dims for v in processors}
        trace = hashlib.sha256()
        idle = 0.0
        events = rejected = 0

        def timed(times, fn, *args):
            nonlocal idle, events
            self.attempted += 1
            result, elapsed = self.gauge.timed(fn, state, topology, *args)
            times.append(elapsed)
            events += 1
            idle += 1.0 - len(state.active) / n_procs
            return result

        def add_load(flow, path, sign):
            for v in path:
                if v in load:
                    row = load[v]
                    for j, d in enumerate(flow.demand):
                        row[j] += sign * d

        for flow in self.inputs[k].flows:
            if len(live_ids) >= self.live_cap:
                j = rng.randrange(len(live_ids))
                live_ids[j], live_ids[-1] = live_ids[-1], live_ids[j]
                fid = live_ids.pop()
                timed(self.departure_times, depart, *live[fid])
                add_load(*live.pop(fid), -1.0)
                trace.update(f"d{fid};".encode())
            path = timed(self.arrival_times, arrive, flow)
            trace.update(f"a{flow.id}:{path};".encode())
            if path is None:
                rejected += 1
                if capable_path_exists(adj, load, flow.demand, flow.src, flow.dst):
                    self.fail(f"flow {flow.id} rejected although a capable path exists")
                continue
            errors = path_errors(adj, processors, path, flow.src, flow.dst)
            add_load(flow, path, 1.0)
            if any(c > 1.0 + TOL for v in path if v in load for c in load[v]):
                errors.append(f"path {path} takes a processor past capacity")
            if errors:
                self.fail(f"flow {flow.id}: {errors[0]}")
            live[flow.id] = (flow, path)
            live_ids.append(flow.id)
        errors = check_online_state(topology, state, live)
        if errors:
            self.fail(f"stream on input {k}: {'; '.join(errors[:3])}")
        self.quality[k] = {
            "arrivals": len(self.inputs[k].flows),
            "rejected": rejected,
            "events": events,
            "idle": idle,
            "active": len(state.active),
            "over": sum(1 for row in load.values() if any(c > 1.0 + TOL for c in row)),
        }
        for fid in live_ids:
            self.attempted += 1
            depart(state, topology, *live[fid])
        full = [1.0] * self.dims
        if state.active or state.committed or any(r != full for r in state.residual.values()):
            self.fail(f"stream on input {k}: state not idle after draining every flow")
        self.record((k,), trace.digest())

    def events_per_s(self):
        events = len(self.arrival_times) + len(self.departure_times)
        return events / (sum(self.arrival_times) + sum(self.departure_times))

    def metrics(self):
        total = {key: sum(q[key] for q in self.quality.values()) for key in next(iter(self.quality.values()))}
        return {
            "flows_per_s": self.events_per_s(),
            "op_ms_p50": statistics.median(self.arrival_times) * 1e3,
            "saving_ratio": total["idle"] / total["events"],
            "routed_share": 1.0 - total["rejected"] / total["arrivals"],
            "uncongested_share": 1.0 - total["over"] / total["active"],
        }

    def details(self):
        n = len(self.arrival_times)
        cuts = statistics.quantiles(self.arrival_times, n=100)
        rejected = sum(q["rejected"] for q in self.quality.values())
        return [f"arrivals={n} arrival_ms_p99={cuts[98] * 1e3:.3f} "
                f"(samples beyond p99: {n - math.ceil(0.99 * n)})",
                f"departures={len(self.departure_times)} rejected_per_pass={rejected} "
                f"events_per_s={self.events_per_s():.1f}"]


class SweepBench(Bench):
    """The paper's evaluation sweep, run in-process through the CLI entry point.

    The sweep keeps the CLI's own seeding (``--seed`` is the workload seed).
    Its CSV is checked for internal consistency and must be the same bytes in
    every sweep of the run; after the timed sweeps every cell of every trial
    is routed again, and its solution checked and compared with its CSV row.
    """

    name = "sweep-z8"
    z, dims, flow_counts, trials = 8, 5, tuple(range(20, 121, 20)), 4
    algos = ("mrg", "hgr", "srsp", "srg", "mrsp")

    def __init__(self, seed):
        super().__init__(seed)
        self.times: list[float] = []
        self.rows: list[dict] = []

    def setup(self):
        self.topology = gr.topology.build_fat_tree(self.z)
        self.cells = {(m, t): gr.workload.generate_workload(self.topology, m, self.dims,
                                                            seed=gr.evaluation.cell_seed(self.seed, m, t))
                      for m in self.flow_counts for t in range(self.trials)}

    def argv(self, out: Path) -> list[str]:
        lo, hi = self.flow_counts[0], self.flow_counts[-1]
        step = self.flow_counts[1] - lo
        return ["experiment", "--z", str(self.z), "--dims", str(self.dims),
                "--flows", f"{lo}:{hi}:{step}", "--algos", ",".join(self.algos),
                "--trials", str(self.trials), "--seed", str(self.seed), "--jobs", "1",
                "--out", str(out)]

    def op(self, i):
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"sweep-{os.getpid()}.csv"
        argv = self.argv(out)
        self.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, elapsed = self.gauge.timed(gr.cli.main, argv)
            data = out.read_bytes()
        except Exception as exc:
            self.fail(f"experiment raised {exc!r}")
            return
        finally:
            out.unlink(missing_ok=True)
        self.times.append(elapsed)
        if code != 0:
            self.fail(f"experiment exited {code}: {sink.getvalue()[-300:]}")
        self.rows = list(csv.DictReader(io.StringIO(data.decode())))
        errors = self.csv_errors(data)
        if errors:
            self.fail(f"CSV: {'; '.join(errors[:3])}")
        self.record(("csv",), data)

    def csv_errors(self, data: bytes) -> list[str]:
        header = data.decode().splitlines()[0].split(",")
        if tuple(header) != gr.evaluation.CSV_COLUMNS:
            return [f"header {header}"]
        errors = []
        cells = defaultdict(list)
        for row in self.rows:
            cells[(row["algo"], int(row["M"]))].append(row)
        if list(cells) != [(a, m) for a in self.algos for m in self.flow_counts]:
            errors.append("cells are missing or out of order")
        total = len(self.topology.processor_ids)
        for (algo, m), rows in cells.items():
            if [r["trial"] for r in rows] != [str(t) for t in range(self.trials)] + ["mean", "std"]:
                errors.append(f"{algo} M={m}: unexpected trial labels")
                continue
            trial_rows = rows[:self.trials]
            for r in trial_rows:
                routed, incomplete, active = int(r["routed"]), int(r["incomplete"]), int(r["active"])
                if (routed + incomplete != m or int(r["total"]) != total or not 0 <= active <= total
                        or float(r["saving_ratio"]) != (total - active) / total
                        or not 0 <= int(r["congested"]) <= active or r["runtime_ms"] != "0.0"):
                    errors.append(f"{algo} M={m} trial {r['trial']}: inconsistent row")
            mean = rows[self.trials]
            for col in ("routed", "active", "saving_ratio", "congested"):
                if abs(float(mean[col]) - statistics.fmean(float(r[col]) for r in trial_rows)) > 1e-9:
                    errors.append(f"{algo} M={m}: mean {col} is not the trial mean")
        return errors

    def finish(self):
        rows = {(r["algo"], int(r["M"]), r["trial"]): r for r in self.rows}
        for algo in self.algos:
            for (m, t), workload in self.cells.items():
                self.attempted += 1
                try:
                    solution, counts = call_router(algo, self.topology, workload,
                                                   gr.evaluation.cell_seed(self.seed, m, t))
                except Exception as exc:
                    self.fail(f"{algo} M={m} trial {t} raised {exc!r}")
                    continue
                out = self.check(algo, f"M={m} trial {t}", workload, solution, counts)
                row = rows.get((algo, m, str(t)), {})
                seen = (row.get("routed"), row.get("incomplete"), row.get("active"), row.get("congested"))
                if seen != tuple(map(str, (out.routed, out.unrouted, out.active, out.congested))):
                    self.fail(f"{algo} M={m} trial {t}: CSV row {seen} disagrees with the checked solution")
                self.record(("cell", algo, m, t), canonical(solution))
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()  # only when no other run still uses it

    def metrics(self):
        trial_rows = [r for r in self.rows if r["trial"].isdigit()]
        offered = sum(int(r["M"]) for r in trial_rows)
        return {
            "flows_per_s": offered * len(self.times) / sum(self.times),
            "op_ms_p50": statistics.median(self.times) * 1e3,
            "saving_ratio": statistics.fmean(float(r["saving_ratio"]) for r in trial_rows
                                             if r["algo"] in ("mrg", "hgr")),
            "routed_share": sum(int(r["routed"]) for r in trial_rows) / offered,
            "uncongested_share": 1.0 - (sum(int(r["congested"]) for r in trial_rows)
                                        / sum(int(r["active"]) for r in trial_rows)),
        }

    def details(self):
        return [f"sweeps={len(self.times)} sweep_s=" + ",".join(f"{t:.3f}" for t in self.times)]


WORKLOADS = {
    "sweep-z8": SweepBench,
    "mrg-z16": lambda seed: BatchBench(seed, "mrg-z16", 16, 240, 5, ("mrg", "srg"), pool=3),
    "bulk-z16": lambda seed: BatchBench(seed, "bulk-z16", 16, 1440, 5, ("hgr", "srsp", "mrsp"), pool=6),
    "online-churn": OnlineBench,
}


def git_sha() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def measure_traced(bench: Bench) -> dict[str, float]:
    """Per-layer metrics: each input routed untraced, then traced, once."""
    now = bench.gauge.now
    tracer = Tracer(clock=now)
    with bench.gauge:
        with tracer:
            bench.setup()
        plain = traced = 0.0
        for i in range(bench.pool):
            start = now()
            bench.op(i)
            plain += now() - start
            with tracer:
                start = now()
                bench.op(i)
                traced += now() - start
    bench.finish()
    scale = bench.gauge.factor()
    metrics = {name: value * scale if layer_unit(name) == "s" else value
               for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_share"] = traced / plain - 1.0 if plain else 0.0
    return metrics


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics: repeated set-up, then whole passes over the inputs.

    A further pass starts only while it is expected to end within half a
    pass of ``seconds``.
    """
    now = bench.gauge.now
    with bench.gauge:
        setups = []
        start = now()
        while len(setups) < SETUP_REPS or now() - start < SETUP_S:
            setups.append(bench.gauge.timed(bench.setup)[1])
        start = now()
        while True:
            began = now()
            for i in range(bench.pool):
                bench.op(i)
            if now() - start + (now() - began) / 2 > seconds:
                break
    bench.finish()
    metrics = bench.metrics()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="greenroute benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} git_sha={git_sha()} "
          f"loadavg_start={loadavg()}")
    bench = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, unit = measure_traced(bench), layer_unit
    else:
        metrics, unit = measure(bench, args.seconds), END_TO_END_UNITS.__getitem__
    print(f"# speed gauge: {len(bench.gauge.samples)} kernel samples, "
          f"mean raw-to-reference factor {bench.gauge.factor():.4f}")
    for line in bench.details():
        print(f"# {line}")
    print(f"# digest sha256:{bench.digest()}")
    print(f"# loadavg_end={loadavg()}")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {unit(name)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
