#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root.

    python3 perfbench/selftest.py

For each workload: two traced runs with seed 7 must print the same output
digest and the same per-layer counts, an untraced run must print that digest
too, every run must report 0 failed operations, and the metric names and
units must be those in BENCHMARK.json. Finally the benchmark must exit
non-zero without a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Takes a few minutes; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180
SEED = 7


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split("sha256:")[1] for ln in lines if ln.startswith("# digest sha256:")), "")
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, digest, result


def check_result(label: str, result: dict | None, metrics_spec: list[dict]) -> list[str]:
    if result is None:
        return [f"{label}: no JSON result on the last line"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{label}: metric names or units differ from BENCHMARK.json")
    return errors


def counts(result: dict) -> dict:
    """Per-layer values that must repeat exactly: everything but times and the overhead."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_share"}


def main() -> int:
    errors: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, digest, result = run(workload, SEED, trace=0)
        if code != 0:
            errors.append(f"{workload}: exit code {code}")
        errors += check_result(f"{workload} untraced", result, SPEC["end_to_end"])
        if result and any(m["value"] <= 0 for m in result["metrics"].values()):
            errors.append(f"{workload}: an end-to-end metric is not positive")
        traced = [run(workload, SEED, trace=1) for _ in range(2)]
        for i, (_, _, res) in enumerate(traced):
            errors += check_result(f"{workload} traced #{i + 1}", res, SPEC["per_layer"])
        digests = {digest} | {d for _, d, _ in traced}
        if len(digests) != 1 or "" in digests:
            errors.append(f"{workload}: output digests differ: {sorted(digests)}")
        if all(res for _, _, res in traced) and counts(traced[0][2]) != counts(traced[1][2]):
            errors.append(f"{workload}: per-layer counts differ between two traced runs")
        print(f"{workload}: digest {digest[:16]} {'ok' if not errors else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run(SPEC["workloads"][0]["name"], SEED, trace=0, cwd=bare)
        if code == 0 or result is not None:
            errors.append("without the sources the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for error in errors:
        print(f"FAIL {error}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
