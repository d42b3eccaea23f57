"""The checkout comparison tool refuses bad arguments before any child process starts,
and shows why a child failed.

``compare.py`` runs one child process per reading. Its ``main`` is called here
in-process, with ``subprocess.run`` replaced: by a failure, so every
bad-argument case must stop at argument checking with argparse's exit code 2;
or by a child that exits 1, whose stderr the tool's exit message must carry
when it holds no reading. The case ids keep the names of the scripts the kinds
replaced: ``bench_pairs`` (``perfbench``), ``criterion9_medians``
(``criterion9``), ``optimality_gap`` (``gap``) and ``tier1_durations`` (``tier1``).
"""

import json
import subprocess
from pathlib import Path

import pytest

import compare

REPO = Path(__file__).resolve().parents[1]
TESTS = REPO / "tests"  # a directory, but not a checkout


@pytest.fixture(autouse=True)
def no_child_process(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail(f"a child process was started: {args}")

    monkeypatch.setattr(subprocess, "run", refuse)


def perfbench(*sides: Path, runs: int = 1, out: Path = Path("unwritten.json")) -> list[str]:
    return ["perfbench", *(arg for side in sides for arg in ("--src", str(side))), "--workloads", "bulk-z16",
            "--runs", str(runs), "--seconds", "1", "--seed", "7", "--out", str(out)]


@pytest.mark.parametrize("argv", [
    pytest.param(["gap"], id="optimality_gap-no-src"),
    pytest.param(["gap", "--src", str(TESTS)], id="optimality_gap-src-not-checkout"),
    pytest.param(["criterion9", "--src", str(REPO), "--runs", "0"], id="criterion9_medians-runs-0"),
    pytest.param(perfbench(REPO, REPO, runs=0), id="bench_pairs-pairs-0"),
    pytest.param(perfbench(TESTS, REPO), id="bench_pairs-parent-not-checkout"),
    pytest.param(perfbench(REPO, TESTS), id="bench_pairs-change-not-checkout"),
    pytest.param(perfbench(REPO), id="bench_pairs-one-src"),
    pytest.param(["tier1", "--src", str(TESTS)], id="tier1_durations-src-not-checkout"),
    pytest.param(["tier1", "--src", str(REPO), "--runs", "0"], id="tier1_durations-runs-0"),
])
def test_tool_refuses_bad_arguments(argv):
    with pytest.raises(SystemExit) as exit_:
        compare.main(argv)
    assert exit_.value.code == 2


def test_criterion9_medians_refuses_a_checkout_without_the_acceptance_tests(tmp_path):
    # the package is there, but not the test each run executes
    package = tmp_path / "src" / "greenroute"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    with pytest.raises(SystemExit) as exit_:
        compare.main(["criterion9", "--src", str(tmp_path), "--runs", "1"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(perfbench(REPO, REPO), id="bench_pairs"),
    pytest.param(["criterion9", "--src", str(REPO), "--runs", "1"], id="criterion9_medians"),
    pytest.param(["gap", "--src", str(REPO)], id="optimality_gap"),
    pytest.param(["tier1", "--src", str(REPO), "--runs", "1"], id="tier1_durations"),
])
def test_tool_exit_shows_a_failed_childs_stderr(monkeypatch, argv):
    failed = subprocess.CompletedProcess([], 1, stdout="", stderr="Traceback: the child's own error")
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: failed)
    with pytest.raises(SystemExit) as exit_:
        compare.main(argv)
    assert "Traceback: the child's own error" in str(exit_.value.code)


def test_tier1_durations_reads_a_run_with_failing_tests(monkeypatch, capsys):
    # a suite with failures exits 1, and its durations and counts still make a reading
    output = ("..F\n===== slowest durations =====\n1.50s call     tests/test_a.py::test_slow\n"
              "0.50s call     tests/test_b.py::test_other[a-b]\n0.25s setup    tests/test_a.py::test_slow\n"
              "0.00s teardown tests/test_a.py::test_fast\n1 failed, 2 passed in 2.01s\n")
    ran = subprocess.CompletedProcess([], 1, stdout=output, stderr="")
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: ran)
    compare.main(["tier1", "--src", str(REPO), "--runs", "1"])
    out = capsys.readouterr().out
    assert out.startswith(f"{REPO}: summed durations median 2.25 (quartiles 2.25-2.25), min 2.25 s;")
    assert out.endswith(f"passed 2, failed 1, 1 runs\n"
                        f"{REPO}: tests/test_a.py summed durations median 1.75 (quartiles 1.75-1.75), min 1.75 s\n"
                        f"{REPO}: tests/test_b.py summed durations median 0.50 (quartiles 0.50-0.50), min 0.50 s\n")


def test_perfbench_record_keeps_the_runs_of_the_same_two_commits(monkeypatch, tmp_path):
    # each checkout's canned perfbench output names the checkout as its commit
    sides = []
    for name in ("parent", "change"):
        for path in ("src/greenroute/__init__.py", "perfbench/run.py"):
            (tmp_path / name / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name / path).touch()
        sides.append(tmp_path / name)
    last = {"correct": True, "metrics": {"flows_per_s": {"value": 2.0, "unit": "1/s"},
                                         "op_ms_p50": {"value": 0.5, "unit": "ms"}}}

    def perfbench_run(cmd, cwd, **kwargs):
        out = f"# nproc=2 python=3.11.7 git_sha={Path(cwd).name} \n# digest sha256:d\n{json.dumps(last)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(subprocess, "run", perfbench_run)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"parent": "other", "change": "commits", "runs": [{"workload": "bulk-z16"}]}))
    compare.main(perfbench(*sides, out=out))
    assert len(json.loads(out.read_text())["runs"]) == 2  # the other commits' record was started afresh
    compare.main(perfbench(*sides, runs=2, out=out))
    record = json.loads(out.read_text())
    assert (record["parent"], record["change"]) == ("parent", "change")
    assert [(r["pair"], r["side"], r["ran_first"]) for r in record["runs"]] == [
        (0, "parent", True), (0, "change", False),  # the first run's pair
        (1, "parent", True), (1, "change", False), (2, "parent", False), (2, "change", True)]
    assert "pairs per workload: bulk-z16 3 (seed 7, 1 s)." in record["description"]
