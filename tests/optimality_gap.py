"""The routers' active processors against the L1 lower bound over fixed seeds, one fresh process per checkout.

Each checkout's ``src`` routes fixed workloads (K=5 demand dimensions,
mean = std = 0.02) and prints two tables of means. Both give the gap
``active - oracle_helpers.l1_bound(topology, workload, routed)``; the
bound is a lower bound on the active processors of any routing of the
routed flows that keeps every processor within capacity.

- The gap table: every router in ``greenroute.evaluation.ROUTERS``
  (router seed 0), seeds 5000-5009, on a z=8 fat-tree at M = 40, 80 and
  120 flows and on a z=16 fat-tree at M = 480: per input and router, the
  mean active processors, unrouted flows and gap. SRSP and SRG keep only
  the first dimension within capacity, so their bound is taken over it.
- The HGR table: ``route_hgr`` on a z=16 fat-tree at M = 480, 960 and
  1440, seeds 5000-5029: per M, the mean active processors, unrouted
  flows, switches woken that carry no load (``activated - active``),
  cores in the phase-1 estimate (``counts.cores``), generic hop searches
  per call (``_sample_shortest`` calls, counted by wrapping
  ``greenroute.hgr._sample_shortest`` for this table alone), and gap.

    python tests/optimality_gap.py --src PARENT --src CHANGE

Each ``--src`` is a checkout (the directory holding ``src/greenroute``).
Not collected by pytest (the file name does not start with test_).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DIMS, FIRST_SEED = 5, 5000
GAP_INPUTS, GAP_SEEDS = ((8, 40), (8, 80), (8, 120), (16, 480)), 10  # (z, M)
FIRST_DIMENSION_ONLY = ("srsp", "srg")
HGR_Z, HGR_FLOWS, HGR_SEEDS = 16, (480, 960, 1440), 30


def measure() -> dict:
    """Both tables' means for the greenroute on the path: ``"gap"`` maps ``"z,M"`` to, per router,
    (active, unrouted, gap); ``"hgr"`` maps M to (active, unrouted, idle woken, cores, hop searches, gap).
    """
    from greenroute import build_fat_tree, generate_workload, hgr, route_hgr
    from greenroute.evaluation import ROUTERS
    from oracle_helpers import first_dimension, l1_bound

    gaps = {}
    for z, flows in GAP_INPUTS:
        topology = build_fat_tree(z)
        totals = {algo: [0, 0, 0] for algo in ROUTERS}
        for seed in range(FIRST_SEED, FIRST_SEED + GAP_SEEDS):
            workload = generate_workload(topology, flows, DIMS, seed=seed)
            for algo, router in ROUTERS.items():
                solution = router(topology, workload, 0)
                seen = first_dimension(workload) if algo in FIRST_DIMENSION_ONLY else workload
                total = totals[algo]
                total[0] += len(solution.active)
                total[1] += len(solution.unrouted)
                total[2] += len(solution.active) - l1_bound(topology, seen, set(solution.paths))
        gaps[f"{z},{flows}"] = {algo: [t / GAP_SEEDS for t in total] for algo, total in totals.items()}

    searches = []
    search = hgr._sample_shortest
    hgr._sample_shortest = lambda *args, **kwargs: searches.append(None) or search(*args, **kwargs)
    topology = build_fat_tree(HGR_Z)
    means = {}
    for flows in HGR_FLOWS:
        totals = [0, 0, 0, 0, 0, 0]
        for seed in range(FIRST_SEED, FIRST_SEED + HGR_SEEDS):
            workload = generate_workload(topology, flows, DIMS, seed=seed)
            solution, counts = route_hgr(topology, workload)
            totals[0] += len(solution.active)
            totals[1] += len(solution.unrouted)
            totals[2] += len(counts.activated - solution.active)
            totals[3] += counts.cores
            totals[4] += len(searches)
            totals[5] += len(solution.active) - l1_bound(topology, workload, set(solution.paths))
            searches.clear()
        means[flows] = [total / HGR_SEEDS for total in totals]
    hgr._sample_shortest = search
    return {"gap": gaps, "hgr": means}


def reading(checkout: Path) -> dict:
    """``measure`` run in a fresh process against ``checkout``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure"],
                           cwd=checkout, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"{checkout}: the measuring process failed (exit {child.returncode}):\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", type=Path, default=[],
                        help="a checkout to measure (repeat for each side)")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return
    if not args.src:
        parser.error("give at least one --src")
    checkouts = [p.resolve() for p in args.src]
    for checkout in checkouts:
        if not (checkout / "src" / "greenroute" / "__init__.py").is_file():
            parser.error(f"{checkout} is not a checkout: it has no src/greenroute/__init__.py")
    readings = {checkout: reading(checkout) for checkout in checkouts}
    print(f"K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + GAP_SEEDS - 1}, router seed 0: "
          "mean active, unrouted, active - L1 bound (srsp, srg: first dimension)")
    for checkout, tables in readings.items():
        for key, routers in tables["gap"].items():
            z, flows = key.split(",")
            for algo, (active, unrouted, gap) in routers.items():
                print(f"{checkout}: z={z} M={flows} {algo:4} active {active:.2f} unrouted {unrouted:.2f} "
                      f"gap to bound {gap:.2f}")
    print(f"z={HGR_Z} K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + HGR_SEEDS - 1}: mean active, unrouted, "
          "activated - active, estimated cores, hop searches per call, active - L1 bound")
    for checkout, tables in readings.items():
        for flows, (active, unrouted, idle, cores, searches, gap) in tables["hgr"].items():
            print(f"{checkout}: M={flows} active {active:.2f} unrouted {unrouted:.2f} idle woken {idle:.2f} "
                  f"cores {cores:.2f} hop searches {searches:.2f} gap to bound {gap:.2f}")


if __name__ == "__main__":
    main()
