"""Every router's gap to the L1 lower bound over fixed seeds, one fresh process per checkout.

Each checkout's ``src`` routes the same workloads with every router in
``greenroute.evaluation.ROUTERS`` (router seed 0): K=5 demand dimensions
(mean = std = 0.02), seeds 5000-5009, on a z=8 fat-tree at M = 40, 80 and
120 flows and on a z=16 fat-tree at M = 480. Per input and router it
prints the mean number of active processors, of unrouted flows, and of
``active - oracle_helpers.l1_bound(topology, workload, routed)``: the
bound is a lower bound on the active processors of any routing of the
routed flows that keeps every processor within capacity. SRSP and SRG
keep only the first dimension within capacity, so their bound is taken
over that dimension alone.

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

INPUTS = ((8, 40), (8, 80), (8, 120), (16, 480))  # (z, M)
DIMS, FIRST_SEED, SEEDS = 5, 5000, 10
FIRST_DIMENSION_ONLY = ("srsp", "srg")

Reading = dict[str, tuple[float, float, float]]  # per router: (active, unrouted, gap to the bound)


def measure() -> dict[str, Reading]:
    """Mean (active, unrouted, active - L1 bound) per input and router, keyed ``"z,M"``.

    Measures the greenroute on the path.
    """
    from greenroute import build_fat_tree, generate_workload
    from greenroute.evaluation import ROUTERS
    from oracle_helpers import first_dimension, l1_bound

    means = {}
    for z, flows in INPUTS:
        topology = build_fat_tree(z)
        totals = {algo: [0, 0, 0] for algo in ROUTERS}
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            workload = generate_workload(topology, flows, DIMS, seed=seed)
            for algo, router in ROUTERS.items():
                solution = router(topology, workload, 0)
                seen = first_dimension(workload) if algo in FIRST_DIMENSION_ONLY else workload
                total = totals[algo]
                total[0] += len(solution.active)
                total[1] += len(solution.unrouted)
                total[2] += len(solution.active) - l1_bound(topology, seen, set(solution.paths))
        means[f"{z},{flows}"] = {algo: tuple(t / SEEDS for t in total) for algo, total in totals.items()}
    return means


def reading(checkout: Path) -> dict[str, Reading]:
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
    print(f"K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + SEEDS - 1}, router seed 0: "
          "mean active, unrouted, active - L1 bound (srsp, srg: first dimension)")
    for checkout in checkouts:
        for key, routers in reading(checkout).items():
            z, flows = key.split(",")
            for algo, (active, unrouted, gap) in routers.items():
                print(f"{checkout}: z={z} M={flows} {algo:4} active {active:.2f} unrouted {unrouted:.2f} "
                      f"gap to bound {gap:.2f}")


if __name__ == "__main__":
    main()
