"""Paired perfbench runs of two checkouts, written as one ``BENCH_*.json`` record.

Each run is one ``perfbench/run.py`` process in one checkout, so each side
measures its own ``src`` with its own benchmark files. The sides alternate:
the parent runs first in even pairs, the change in odd ones, so drift on
the machine falls on both alike. Runs go one at a time.

    python tests/bench_pairs.py --parent PARENT --change CHANGE \\
        --workloads bulk-z16 sweep-z8 --pairs 10 --seconds 20 --seed 7 --out BENCH.json

writes ``description``, ``parent`` and ``change`` (each side's commit as
perfbench reports it) and ``runs``, one entry per run with its workload,
side, commit, seed, seconds, pair, whether it ran first, its digest and its
raw last line. An existing FILE for the same two commits keeps its runs and
gains the new ones, so workloads can take different pair counts. Prints,
per workload and side, the median and quartiles of every metric; and per
metric, how many pairs the change won, next to the median and quartiles of
the per-pair change/parent ratio, since win counts alone mislead when the
two sides differ by 1-2%. Not collected by pytest (the file name does not
start with test_).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HEADER = re.compile(r"^# nproc=(\d+) python=(\S+) git_sha=(\S+)", re.M)
DIGEST = re.compile(r"^# digest (\S+)", re.M)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench process in ``checkout``: its header, digest and last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"{checkout}: perfbench failed on {workload} (exit {child.returncode}):\n{child.stderr}")
    out = child.stdout
    header, digest = HEADER.search(out), DIGEST.search(out)
    if header is None or digest is None:
        raise RuntimeError(f"{checkout}: no header or digest line in perfbench's output:\n{out}")
    return {"nproc": int(header.group(1)), "python": header.group(2), "git_sha": header.group(3),
            "digest": digest.group(1), "last_line": json.loads(out.strip().splitlines()[-1])}


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile; one value stands for all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(runs: list[dict]) -> list[str]:
    """Per workload and side, each metric's median (quartiles); per metric, pairs won and change/parent ratios."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["last_line"]["metrics"]
        for side in ("parent", "change"):
            for name in mine[0]["last_line"]["metrics"]:
                values = [r["last_line"]["metrics"][name]["value"] for r in mine if r["side"] == side]
                q1, median, q3 = quartiles(values)
                lines.append(f"{workload} {side} {name}: median {median:.6g} "
                             f"(quartiles {q1:.6g}-{q3:.6g}), {len(values)} runs")
        for name in mine[0]["last_line"]["metrics"]:
            both = [p for p in pairs.values() if len(p) == 2]
            higher = sum(p["change"][name]["value"] > p["parent"][name]["value"] for p in both)
            lower = sum(p["change"][name]["value"] < p["parent"][name]["value"] for p in both)
            ratios = [p["change"][name]["value"] / p["parent"][name]["value"]
                      for p in both if p["parent"][name]["value"]]
            if ratios:
                q1, median, q3 = quartiles(ratios)
                ratio = f"change/parent median {median:.4g} (quartiles {q1:.4g}-{q3:.4g})"
            else:
                ratio = "no change/parent ratio (parent reads 0)"
            lines.append(f"{workload} {name}: change higher in {higher}, lower in {lower} of {len(both)} pairs; "
                         f"{ratio}")
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, nargs="+", help="perfbench workload names")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload")
    parser.add_argument("--seconds", type=float, required=True, help="perfbench --seconds")
    parser.add_argument("--seed", type=int, required=True, help="perfbench --seed")
    parser.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, not {args.pairs}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        for needed in ("src/greenroute/__init__.py", "perfbench/run.py"):
            if not (checkout / needed).is_file():
                parser.error(f"--{side} {checkout} is not a checkout: it has no {needed}")

    runs, shas, hosts = [], {}, set()
    for workload in args.workloads:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(sides[side], workload, args.seed, args.seconds)
                shas[side] = result["git_sha"]
                hosts.add(f"nproc {result['nproc']}, Python {result['python']}")
                runs.append({"workload": workload, "side": side, "git_sha": result["git_sha"],
                             "seed": args.seed, "seconds": args.seconds, "trace": 0, "pair": pair,
                             "ran_first": side == order[0], "digest": result["digest"],
                             "last_line": result["last_line"]})
                metrics = result["last_line"]["metrics"]
                print(f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                      f"flows_per_s {metrics['flows_per_s']['value']:.6g}, "
                      f"op_ms_p50 {metrics['op_ms_p50']['value']:.6g}", file=sys.stderr)

    record = {"parent": shas["parent"], "change": shas["change"], "runs": []}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if (old["parent"], old["change"]) == (record["parent"], record["change"]):
            record["runs"] = old["runs"]
    record["runs"] += runs
    counts = {}
    for r in record["runs"]:
        key = (r["workload"], r["seed"], r["seconds"])
        counts[key] = max(counts.get(key, 0), r["pair"] + 1)
    record = {
        "description": "perfbench/run.py --workload W --seed S --seconds T --trace 0 in each checkout, "
                       "parent and change alternating which runs first in each pair, one process at a time "
                       f"({'; '.join(sorted(hosts))}); pairs per workload: "
                       + ", ".join(f"{w} {n} (seed {s}, {t:g} s)" for (w, s, t), n in counts.items())
                       + ". Written by tests/bench_pairs.py; last_line is the raw final JSON line"
                         " of each run.",
        **record,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary(record["runs"])))


if __name__ == "__main__":
    main()
