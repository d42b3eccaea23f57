"""HGR's routing quality over fixed seeds, one fresh process per checkout.

Each checkout's ``src`` routes the same workloads with ``route_hgr``: a
z=16 fat-tree, K=5 demand dimensions (mean = std = 0.02), M = 480, 960
and 1440 flows, seeds 5000-5029. Per M it prints the mean number of
active processors, of unrouted flows, of switches woken that carry no
load (``activated - active``), of cores in the phase-1 estimate
(``counts.cores``), of generic hop searches (``_sample_shortest``
calls, counted by wrapping ``greenroute.hgr._sample_shortest``), and the
gap from the active count to ``oracle_helpers.l1_bound`` over the routed
flows, a lower bound on the active processors of any routing of them.

    python tests/hgr_quality.py --src PARENT --src CHANGE

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

Z, DIMS, FLOWS, FIRST_SEED, SEEDS = 16, 5, (480, 960, 1440), 5000, 30


Reading = tuple[float, float, float, float, float, float]


def measure() -> dict[int, Reading]:
    """Mean (active, unrouted, activated - active, cores, hop searches, gap to the bound) per flow count.

    Measures the greenroute on the path; each ``route_hgr`` call's hop searches are counted.
    """
    from greenroute import build_fat_tree, generate_workload, hgr, route_hgr
    from oracle_helpers import l1_bound

    searches = []
    search = hgr._sample_shortest
    hgr._sample_shortest = lambda *args, **kwargs: searches.append(None) or search(*args, **kwargs)
    topology = build_fat_tree(Z)
    means = {}
    for flows in FLOWS:
        totals = [0, 0, 0, 0, 0, 0]
        for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
            workload = generate_workload(topology, flows, DIMS, seed=seed)
            solution, counts = route_hgr(topology, workload)
            totals[0] += len(solution.active)
            totals[1] += len(solution.unrouted)
            totals[2] += len(counts.activated - solution.active)
            totals[3] += counts.cores
            totals[4] += len(searches)
            totals[5] += len(solution.active) - l1_bound(topology, workload, set(solution.paths))
            searches.clear()
        means[flows] = tuple(total / SEEDS for total in totals)
    return means


def reading(checkout: Path) -> dict[int, Reading]:
    """``measure`` run in a fresh process against ``checkout``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure"],
                           cwd=checkout, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"{checkout}: the measuring process failed (exit {child.returncode}):\n{child.stderr}")
    return {int(flows): tuple(values) for flows, values in json.loads(child.stdout).items()}


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
    print(f"z={Z} K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + SEEDS - 1}: mean active, unrouted, "
          "activated - active, estimated cores, hop searches per call, active - L1 bound")
    for checkout in checkouts:
        for flows, (active, unrouted, idle, cores, searches, gap) in reading(checkout).items():
            print(f"{checkout}: M={flows} active {active:.2f} unrouted {unrouted:.2f} idle woken {idle:.2f} "
                  f"cores {cores:.2f} hop searches {searches:.2f} gap to bound {gap:.2f}")


if __name__ == "__main__":
    main()
