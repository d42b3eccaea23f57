"""Spans around greenroute's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function wherever a greenroute
module namespace (or ``evaluation.ROUTERS``) holds it, so every caller that
looks the name up at call time reaches the wrapper; ``uninstall()`` restores
the originals. Spans are aggregated in memory per name: call count, summed
duration, and the part of that duration covered by directly nested spans,
which gives self time. The program is single-threaded, so nested spans
never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


# (module, attribute): span names are "<module>.<attribute>".
TRACED = (
    ("topology", "build_fat_tree"),
    ("workload", "generate_workload"),
    ("mrg", "route_mrg"),
    ("mrg", "is_connected"),
    ("mrg", "shortest_path"),
    ("mrg", "node_to_link_weights"),
    ("mrg", "assign_node_weights"),
    ("mrg", "online_arrival"),
    ("mrg", "online_departure"),
    ("baselines", "route_srg"),
    ("baselines", "route_srsp"),
    ("baselines", "route_mrsp"),
    ("hgr", "route_hgr"),
    ("hgr", "vbp_greedy"),
    ("evaluation", "run_experiment"),
    ("evaluation", "compute_metrics"),
    ("evaluation", "write_results_csv"),
    ("cli", "main"),
)


class Tracer:
    """Aggregated spans and counters for one traced pass, timed with ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._vbp_bins: list[int] = []

    # -- counters read from results --------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "mrg.is_connected" and result:
            c["is_connected.true"] += 1
        elif name in ("mrg.shortest_path", "mrg.online_arrival") and result is None:
            c[f"{name}.none"] += 1
        elif name == "hgr.vbp_greedy":
            c["vbp.items"] += len(args[0])
            self._vbp_bins.append(result.bin_count)
        elif name == "hgr.route_hgr":
            topology, counts = args[0], result[1]
            half = topology.z // 2
            c["vbp.bins"] += sum(self._vbp_bins)
            c["vbp.bins_kept"] += sum(min(b, half) for b in self._vbp_bins)
            self._vbp_bins.clear()
            woken = sum(1 for v in counts.activated
                        if topology.nodes[v].kind.value in ("aggregation", "core"))
            c["hgr.woken_beyond_estimate"] += woken - counts.estimate

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        observe = self._observe
        clock = self._clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total += elapsed
                stats.child += stack.pop()
                if stack:
                    stack[-1] += elapsed
            observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "greenroute" or n.startswith("greenroute."))]
        routers = sys.modules["greenroute.evaluation"].ROUTERS
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"greenroute.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
            for key, value in list(routers.items()):
                if value is original:
                    self._patches.append((routers, key, original))
                    routers[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-layer metrics --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; layers a workload never calls read 0."""
        c = self.counts

        def s(name: str) -> SpanStats:
            return self.spans.get(name, SpanStats())

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "topology.build_fat_tree.s": s("topology.build_fat_tree").total,
            "workload.generate_workload.s": s("workload.generate_workload").total,
            "mrg.route_mrg.s": s("mrg.route_mrg").total,
            "mrg.route_mrg.self_s": s("mrg.route_mrg").self_time,
            "mrg.is_connected.calls": s("mrg.is_connected").calls,
            "mrg.is_connected.s": s("mrg.is_connected").total,
            "mrg.is_connected.true_ratio": ratio(c["is_connected.true"], s("mrg.is_connected").calls),
            "mrg.shortest_path.calls": s("mrg.shortest_path").calls,
            "mrg.shortest_path.s": s("mrg.shortest_path").total,
            "mrg.shortest_path.none": c["mrg.shortest_path.none"],
            "mrg.node_to_link_weights.s": s("mrg.node_to_link_weights").total,
            "mrg.assign_node_weights.s": s("mrg.assign_node_weights").total,
            "mrg.online_arrival.s": s("mrg.online_arrival").total,
            "mrg.online_arrival.calls": s("mrg.online_arrival").calls,
            "mrg.online_arrival.rejected": c["mrg.online_arrival.none"],
            "mrg.online_departure.s": s("mrg.online_departure").total,
            "mrg.online_departure.calls": s("mrg.online_departure").calls,
            "baselines.route_srg.s": s("baselines.route_srg").total,
            "baselines.route_srg.self_s": s("baselines.route_srg").self_time,
            "baselines.route_srsp.s": s("baselines.route_srsp").total,
            "baselines.route_mrsp.s": s("baselines.route_mrsp").total,
            "hgr.route_hgr.s": s("hgr.route_hgr").total,
            "hgr.route_hgr.self_s": s("hgr.route_hgr").self_time,
            "hgr.vbp_greedy.s": s("hgr.vbp_greedy").total,
            "hgr.vbp_greedy.calls": s("hgr.vbp_greedy").calls,
            "hgr.vbp_greedy.items": c["vbp.items"],
            "hgr.vbp_greedy.bins_kept_ratio": ratio(c["vbp.bins_kept"], c["vbp.bins"]),
            "hgr.woken_beyond_estimate": c["hgr.woken_beyond_estimate"],
            "evaluation.run_experiment.s": s("evaluation.run_experiment").total,
            "evaluation.compute_metrics.s": s("evaluation.compute_metrics").total,
            "evaluation.write_results_csv.s": s("evaluation.write_results_csv").total,
            "cli.main.self_s": s("cli.main").self_time,
        }
