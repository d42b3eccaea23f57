"""Tier-1's time per checkout, as summed test durations and CPU seconds, in fresh processes.

Each run is one pytest process over one checkout's whole suite, against
that checkout's ``src``, with ``--durations=0 --durations-min=0``. A
reading is the sum of every setup, call and teardown duration pytest
reports, the child's CPU seconds (user plus system, from
``resource.getrusage``), and its pass and fail counts. On a shared machine
the suite's wall time swings by tens of percent with load; these two
numbers swing less. The checkouts take turns, and the order flips each
round, as in ``criterion9_medians.py``, whose argument check, round loop
and summary this tool shares.

    python tests/tier1_durations.py --src PARENT --src CHANGE [--runs 3]

prints, per checkout, the median, the quartiles and the minimum of both
numbers, and the pass and fail counts. A run with failing tests is a
normal reading (Tier-1 has known failures); the tool exits with the
child's output only when that output has no pytest summary line. Each
``--src`` is a checkout (the directory holding ``src/greenroute`` and
``tests``). Not collected by pytest (the file name does not start with test_).
"""

from __future__ import annotations

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

from criterion9_medians import checkouts, rounds, spread

PYTEST = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--durations=0", "--durations-min=0"]
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown) ", re.MULTILINE)
SUMMARY = re.compile(r"^=*\s*(\d+ \w+(?:, \d+ \w+)*) in [0-9.]+s", re.MULTILINE)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reading(checkout: Path) -> tuple[float, float, int, int]:
    """One fresh-process Tier-1 run in ``checkout``: (summed durations, CPU seconds, passed, failed)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = cpu_seconds()
    child = subprocess.run([sys.executable, *PYTEST], cwd=checkout, env=env, capture_output=True, text=True)
    cpu = cpu_seconds() - start
    summary = SUMMARY.findall(child.stdout)
    if not summary:
        sys.exit(f"{checkout}: no pytest summary line in the suite's output (exit {child.returncode}):\n"
                 f"{child.stdout}{child.stderr}")
    counts = {word: int(n) for n, word in (part.split() for part in summary[-1].split(", "))}
    durations = sum(map(float, DURATION.findall(child.stdout)))
    return durations, cpu, counts.get("passed", 0), counts.get("failed", 0)


def main(argv: list[str] | None = None) -> None:
    sides, runs = checkouts(argv, __doc__.split("\n\n")[0], 3, ("src/greenroute/__init__.py", "tests"))
    readings = rounds(sides, runs, reading, lambda r: f"{r[0]:.2f} s summed, {r[1]:.2f} s CPU")
    for side in sides:
        durations, cpu, passed, failed = zip(*readings[side])
        print(f"{side}: summed durations {spread(durations, '.2f')} s; CPU {spread(cpu, '.2f')} s; "
              f"passed {'/'.join(map(str, sorted(set(passed))))}, "
              f"failed {'/'.join(map(str, sorted(set(failed))))}, {runs} runs")


if __name__ == "__main__":
    main()
