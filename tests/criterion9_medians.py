"""Criterion 9's median ratio, taken in many fresh processes per checkout.

Each run is one pytest process that runs
``tests/test_acceptance.py::test_criterion_9_runtime_ratio`` of one checkout
against that checkout's ``src``; the reading is the median ratio from the
test's own ``ACCEPTANCE  9`` line. The checkouts take turns, and the order
flips each round, so drift on the machine falls on every side alike.

    python tests/criterion9_medians.py --src PARENT --src CHANGE [--runs 40]

prints, per checkout, the median, the quartiles and the minimum of its
readings. Each ``--src`` is a checkout (the directory holding
``src/greenroute`` and ``tests``). ``tier1_durations.py`` shares its
argument check, round loop and summary. Not collected by pytest (the file
name does not start with test_).
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

TEST = "tests/test_acceptance.py::test_criterion_9_runtime_ratio"
LINE = re.compile(r"ACCEPTANCE\s+9 .*median ratio ([0-9.]+)")


def reading(checkout: Path) -> float:
    """One fresh-process run of the criterion-9 test in ``checkout``: its median ratio."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", TEST],
                           cwd=checkout, env=env, capture_output=True, text=True)
    match = LINE.search(child.stdout)
    if match is None:
        sys.exit(f"{checkout}: no ACCEPTANCE 9 line in the test's output (exit {child.returncode}):\n"
                 f"{child.stdout}{child.stderr}")
    return float(match.group(1))


def checkouts(argv: list[str] | None, description: str, runs: int,
              need: tuple[str, ...]) -> tuple[list[Path], int]:
    """The ``--src`` checkouts and the ``--runs`` count of ``argv``. A count
    below 1, or a checkout without one of the paths in ``need``, exits 2."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--src", action="append", required=True, type=Path,
                        help="a checkout to measure (repeat for each side)")
    parser.add_argument("--runs", type=int, default=runs, help=f"fresh processes per checkout (default {runs})")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, not {args.runs}")
    sides = [p.resolve() for p in args.src]
    for side in sides:
        for path in need:
            if not (side / path).exists():
                parser.error(f"{side} is not a checkout: it has no {path}")
    return sides, args.runs


def rounds(sides: list[Path], runs: int, reading, show) -> dict[Path, list]:
    """``runs`` readings per checkout, the order flipped each round; each
    round's readings go to stderr as ``show`` formats them."""
    readings: dict[Path, list] = {side: [] for side in sides}
    for run in range(runs):
        for side in sides if run % 2 == 0 else sides[::-1]:
            readings[side].append(reading(side))
        print(f"round {run + 1}/{runs}: "
              + ", ".join(f"{side.name} {show(readings[side][-1])}" for side in sides), file=sys.stderr)
    return readings


def spread(values, spec: str = ".1f") -> str:
    """The median, the quartiles and the minimum of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return f"median {median:{spec}} (quartiles {q1:{spec}}-{q3:{spec}}), min {min(values):{spec}}"


def main(argv: list[str] | None = None) -> None:
    need = ("src/greenroute/__init__.py", TEST.split("::")[0])
    sides, runs = checkouts(argv, __doc__.split("\n\n")[0], 40, need)
    readings = rounds(sides, runs, reading, "{:.1f}".format)
    for side in sides:
        print(f"{side}: {spread(readings[side])}, {runs} runs")


if __name__ == "__main__":
    main()
