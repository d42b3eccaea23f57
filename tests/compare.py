"""Compare checkouts, such as a parent commit and a change, in fresh processes.

    python tests/compare.py KIND --src A [--src B] [--runs N] ...

Each reading is one child process with its working directory in one
``--src`` checkout and ``PYTHONPATH`` set to that checkout's ``src``, so
each side runs its own code, tests and benchmark. With several readings per
checkout, the checkouts take turns, one process at a time, and the order
flips each round, so drift on the machine falls on every side alike. A
child whose output holds no reading ends the tool with that output. A count
below 1, or a ``--src`` without the files KIND needs, exits 2 before any
child starts. pytest does not collect this file. KIND is one of:

- ``perfbench --src PARENT --src CHANGE --workloads W [W ...] --runs N
  --seconds T --seed S --out FILE``: N pairs of ``perfbench/run.py`` runs
  per workload, written to FILE (see ``perfbench``). Prints each metric's
  median and quartiles per side, and per metric the pairs the change won,
  next to the quartiles of the per-pair change/parent ratio, since win
  counts alone mislead when the two sides differ by 1-2%.
- ``criterion9 --src A [--src B ...] [--runs 40]``: the median ratio from
  the ``ACCEPTANCE  9`` line of ``TEST_9``. Prints its median, quartiles
  and minimum per checkout.
- ``tier1 --src A [--src B ...] [--runs 3]``: the whole suite with
  ``--durations=0 --durations-min=0``. A reading is the sum of every setup,
  call and teardown duration, the child's CPU seconds (user plus system) and
  its pass and fail counts; on a shared machine these two numbers swing
  less with load than wall time. A run with failing tests is a normal
  reading (Tier-1 has known failures). Prints the median, quartiles and
  minimum of both numbers per checkout, and its counts; then per checkout
  and test file, the median, quartiles and minimum of that file's summed
  durations, since one file's median moves by seconds between sets of runs
  of unchanged code.
- ``gap --src A [--src B ...]``: one run of ``measure`` per checkout; prints
  its two tables.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = "src/greenroute/__init__.py"


def child(checkout: Path, args: list[str], read):
    """``read`` of one ``python ARGS`` process run in ``checkout`` against its ``src``.
    When ``read`` finds no reading (returns None), the tool exits with the child's output."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    ran = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    reading = read(ran)
    if reading is None:
        sys.exit(f"{checkout}: no reading in the output of {' '.join(args)} (exit {ran.returncode}):\n"
                 f"{ran.stdout}{ran.stderr}")
    return reading


def rounds(sides: list, runs: int, reading, show) -> list[list]:
    """``runs`` rounds of one ``reading(side)`` per side, the order flipped each round: per round,
    its readings in ``sides`` order. After each round, ``show(round, readings)`` goes to stderr."""
    indices, done = range(len(sides)), []
    for run in range(runs):
        got = {i: reading(sides[i]) for i in (indices if run % 2 == 0 else reversed(indices))}
        done.append([got[i] for i in indices])
        print(show(run, done[-1]), file=sys.stderr)
    return done


def quartiles(values, spec: str) -> str:
    """``median M (quartiles Q1-Q3)`` of ``values``; one value stands for all three."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return f"median {median:{spec}} (quartiles {q1:{spec}}-{q3:{spec}})"


HEADER = re.compile(r"^# nproc=(\d+) python=(\S+) git_sha=(\S+)", re.M)
DIGEST = re.compile(r"^# digest (\S+)", re.M)
SIDES = ("parent", "change")


def bench_reading(ran: subprocess.CompletedProcess) -> dict | None:
    """One perfbench run's header, digest and last line; None if it failed or lacks either line."""
    header, digest = HEADER.search(ran.stdout), DIGEST.search(ran.stdout)
    if ran.returncode != 0 or header is None or digest is None:
        return None
    return {"nproc": int(header.group(1)), "python": header.group(2), "git_sha": header.group(3),
            "digest": digest.group(1), "last_line": json.loads(ran.stdout.strip().splitlines()[-1])}


def bench_summary(runs: list[dict]) -> list[str]:
    """Per workload and side, each metric's median (quartiles); per metric, pairs won and change/parent ratios."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["last_line"]["metrics"]
        for side in SIDES:
            for name in mine[0]["last_line"]["metrics"]:
                values = [r["last_line"]["metrics"][name]["value"] for r in mine if r["side"] == side]
                lines.append(f"{workload} {side} {name}: {quartiles(values, '.6g')}, {len(values)} runs")
        for name in mine[0]["last_line"]["metrics"]:
            both = [p for p in pairs.values() if len(p) == 2]
            higher = sum(p["change"][name]["value"] > p["parent"][name]["value"] for p in both)
            lower = sum(p["change"][name]["value"] < p["parent"][name]["value"] for p in both)
            ratios = [p["change"][name]["value"] / p["parent"][name]["value"]
                      for p in both if p["parent"][name]["value"]]
            ratio = f"change/parent {quartiles(ratios, '.4g')}" if ratios else "no change/parent ratio (parent reads 0)"
            lines.append(f"{workload} {name}: change higher in {higher}, lower in {lower} of {len(both)} pairs; "
                         + ratio)
    return lines


def perfbench(args) -> None:
    """Write ``description``, ``parent`` and ``change`` (each side's commit as perfbench reports it)
    and ``runs``, one entry per run with its workload, side, commit, seed, seconds, pair, whether it
    ran first, its digest and its raw last line. An existing ``--out`` for the same two commits
    keeps its runs and gains the new ones, numbered after its pairs of the same workload, so
    workloads can take different pair counts."""
    runs, shas, hosts = [], {}, set()
    for workload in args.workloads:
        cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        done = rounds(args.src, args.runs, lambda checkout: child(checkout, cmd, bench_reading),
                      lambda pair, got: "\n".join(
                          f"{workload} pair {pair + 1}/{args.runs} {side}: "
                          f"flows_per_s {r['last_line']['metrics']['flows_per_s']['value']:.6g}, "
                          f"op_ms_p50 {r['last_line']['metrics']['op_ms_p50']['value']:.6g}"
                          for side, r in zip(SIDES, got)))
        for pair, got in enumerate(done):
            for i, (side, result) in enumerate(zip(SIDES, got)):
                shas[side] = result["git_sha"]
                hosts.add(f"nproc {result['nproc']}, Python {result['python']}")
                runs.append({"workload": workload, "side": side, "git_sha": result["git_sha"],
                             "seed": args.seed, "seconds": args.seconds, "trace": 0, "pair": pair,
                             "ran_first": (i == 0) == (pair % 2 == 0), "digest": result["digest"],
                             "last_line": result["last_line"]})

    kept = []
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if (old["parent"], old["change"]) == (shas["parent"], shas["change"]):
            kept = old["runs"]
    pairs = Counter(r["workload"] for r in kept)  # two runs per pair
    for r in runs:
        r["pair"] += pairs[r["workload"]] // 2
    counts = Counter((r["workload"], r["seed"], r["seconds"]) for r in kept + runs)
    record = {
        "description": "perfbench/run.py --workload W --seed S --seconds T --trace 0 in each checkout, "
                       "parent and change alternating which runs first in each pair, one process at a time "
                       f"({'; '.join(sorted(hosts))}); pairs per workload: "
                       + ", ".join(f"{w} {n // 2} (seed {s}, {t:g} s)" for (w, s, t), n in counts.items())
                       + ". Written by tests/compare.py perfbench; last_line is the raw final JSON line"
                         " of each run.",
        "parent": shas["parent"], "change": shas["change"], "runs": kept + runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(bench_summary(record["runs"])))


TEST_9 = "tests/test_acceptance.py::test_criterion_9_runtime_ratio"
LINE_9 = re.compile(r"ACCEPTANCE\s+9 .*median ratio ([0-9.]+)")


def ratio_reading(ran: subprocess.CompletedProcess) -> float | None:
    """The median ratio from one run's ``ACCEPTANCE  9`` line; None if the output has no such line."""
    match = LINE_9.search(ran.stdout)
    return float(match[1]) if match else None


def criterion9(args) -> None:
    cmd = ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", TEST_9]
    done = rounds(args.src, args.runs, lambda checkout: child(checkout, cmd, ratio_reading),
                  lambda run, got: f"round {run + 1}/{args.runs}: "
                                   + ", ".join(f"{side.name} {r:.1f}" for side, r in zip(args.src, got)))
    for side, ratios in zip(args.src, zip(*done)):
        print(f"{side}: {quartiles(ratios, '.1f')}, min {min(ratios):.1f}, {args.runs} runs")


PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--durations=0", "--durations-min=0"]
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown) +([^:\s]+)", re.MULTILINE)
SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in [0-9.]+s", re.MULTILINE)


def suite_reading(ran: subprocess.CompletedProcess) -> tuple[dict, int, int] | None:
    """(summed durations per test file, passed, failed) of one Tier-1 run; None if its output has no
    pytest summary line."""
    summary = SUMMARY.findall(ran.stdout)
    if not summary:
        return None
    counts = {word: int(n) for n, word in (part.split() for part in summary[-1].split(", "))}
    files = Counter()
    for seconds, path in DURATION.findall(ran.stdout):
        files[path] += float(seconds)
    return files, counts.get("passed", 0), counts.get("failed", 0)


def tier1(args) -> None:
    def reading(checkout: Path) -> tuple[float, float, int, int, Counter]:
        start = resource.getrusage(resource.RUSAGE_CHILDREN)
        files, passed, failed = child(checkout, PYTEST, suite_reading)
        end = resource.getrusage(resource.RUSAGE_CHILDREN)
        return sum(files.values()), end.ru_utime + end.ru_stime - start.ru_utime - start.ru_stime, passed, failed, files

    done = rounds(args.src, args.runs, reading,
                  lambda run, got: f"round {run + 1}/{args.runs}: " + ", ".join(
                      f"{side.name} {r[0]:.2f} s summed, {r[1]:.2f} s CPU" for side, r in zip(args.src, got)))
    for side, readings in zip(args.src, zip(*done)):
        durations, cpu, passed, failed, files = zip(*readings)
        print(f"{side}: summed durations {quartiles(durations, '.2f')}, min {min(durations):.2f} s; "
              f"CPU {quartiles(cpu, '.2f')}, min {min(cpu):.2f} s; "
              f"passed {'/'.join(map(str, sorted(set(passed))))}, "
              f"failed {'/'.join(map(str, sorted(set(failed))))}, {args.runs} runs")
        for path in sorted(set().union(*files)):
            durations = [run[path] for run in files]
            print(f"{side}: {path} summed durations {quartiles(durations, '.2f')}, min {min(durations):.2f} s")


DIMS, FIRST_SEED = 5, 5000
GAP_INPUTS, GAP_SEEDS = ((8, 40), (8, 80), (8, 120), (16, 480)), 10  # (z, M)
FIRST_DIMENSION_ONLY = ("srsp", "srg")
HGR_Z, HGR_FLOWS, HGR_SEEDS = 16, (480, 960, 1440), 30


def measure() -> dict:
    """Both ``gap`` tables' means for the greenroute on the path, K=5 demand dimensions, mean = std =
    0.02. Each gap is ``active - oracle_helpers.l1_bound(topology, workload, routed)``; the bound is a
    lower bound on the active processors of any routing of the routed flows within capacity.

    - ``"gap"`` maps ``"z,M"`` (z=8 at M = 40, 80 and 120; z=16 at M = 480) to every router's mean
      (active, unrouted, gap), router seed 0, seeds 5000-5009. SRSP and SRG keep only the first
      dimension within capacity, so their bound is taken over it.
    - ``"hgr"`` maps M (480, 960 and 1440) to ``route_hgr``'s mean (active, unrouted, idle woken =
      ``activated - active``, ``counts.cores``, hop searches = ``_sample_shortest`` calls, gap) on
      a z=16 fat-tree, seeds 5000-5029.
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


def gap(args) -> None:
    if args.measure:
        print(json.dumps(measure()))
        return
    cmd = [str(Path(__file__).resolve()), "gap", "--measure"]
    readings = {checkout: child(checkout, [*cmd, "--src", str(checkout)],
                                lambda ran: json.loads(ran.stdout) if ran.returncode == 0 else None)
                for checkout in args.src}
    print(f"K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + GAP_SEEDS - 1}, router seed 0: "
          "mean active, unrouted, active - L1 bound (srsp, srg: first dimension)")
    for checkout, tables in readings.items():
        for key, routers in tables["gap"].items():
            z, flows = key.split(",")
            for algo, (active, unrouted, to_bound) in routers.items():
                print(f"{checkout}: z={z} M={flows} {algo:4} active {active:.2f} unrouted {unrouted:.2f} "
                      f"gap to bound {to_bound:.2f}")
    print(f"z={HGR_Z} K={DIMS}, seeds {FIRST_SEED}-{FIRST_SEED + HGR_SEEDS - 1}: mean active, unrouted, "
          "activated - active, estimated cores, hop searches per call, active - L1 bound")
    for checkout, tables in readings.items():
        for flows, (active, unrouted, idle, cores, searches, to_bound) in tables["hgr"].items():
            print(f"{checkout}: M={flows} active {active:.2f} unrouted {unrouted:.2f} idle woken {idle:.2f} "
                  f"cores {cores:.2f} hop searches {searches:.2f} gap to bound {to_bound:.2f}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--src", action="append", required=True, type=Path,
                     help="a checkout to measure (repeat for each side)")
    bench = kinds.add_parser("perfbench", parents=[src], help="paired perfbench runs, written as one JSON record")
    bench.add_argument("--workloads", required=True, nargs="+", help="perfbench workload names")
    bench.add_argument("--runs", type=int, required=True, help="pairs of runs per workload")
    bench.add_argument("--seconds", type=float, required=True, help="perfbench --seconds")
    bench.add_argument("--seed", type=int, required=True, help="perfbench --seed")
    bench.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    bench.set_defaults(run=perfbench, needs=(PACKAGE, "perfbench/run.py"))
    for run, runs, needs, help in ((criterion9, 40, TEST_9.split("::")[0], "criterion 9's median ratio"),
                                   (tier1, 3, "tests", "Tier-1's summed durations and CPU seconds")):
        sub = kinds.add_parser(run.__name__, parents=[src], help=help)
        sub.add_argument("--runs", type=int, default=runs, help=f"fresh processes per checkout (default {runs})")
        sub.set_defaults(run=run, needs=(PACKAGE, needs))
    sub = kinds.add_parser("gap", parents=[src], help="active processors against the L1 lower bound")
    sub.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    sub.set_defaults(run=gap, needs=(PACKAGE,), runs=1)
    args = parser.parse_args(argv)

    error = kinds.choices[args.kind].error
    if args.runs < 1:
        error(f"--runs must be at least 1, not {args.runs}")
    if args.kind == "perfbench" and len(args.src) != 2:
        error(f"give exactly two --src, PARENT and CHANGE, not {len(args.src)}")
    args.src = [p.resolve() for p in args.src]
    for checkout in args.src:
        for path in args.needs:
            if not (checkout / path).exists():
                error(f"{checkout} is not a checkout: it has no {path}")
    args.run(args)


if __name__ == "__main__":
    main()
