"""The measurement tools refuse bad arguments before any child process starts,
and show why a child failed.

``bench_pairs``, ``criterion9_medians``, ``optimality_gap`` and
``tier1_durations`` each run one child process per reading. Their ``main``
is called here in-process, with ``subprocess.run`` replaced: by a failure,
so every bad-argument case must stop at argument checking with argparse's
exit code 2; or by a child that exits 1, whose stderr the tool's exit
message must carry when it holds no reading.
"""

import subprocess
from pathlib import Path

import pytest

import bench_pairs
import criterion9_medians
import optimality_gap
import tier1_durations

REPO = Path(__file__).resolve().parents[1]
TESTS = REPO / "tests"  # a directory, but not a checkout


@pytest.fixture(autouse=True)
def no_child_process(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail(f"a child process was started: {args}")

    monkeypatch.setattr(subprocess, "run", refuse)


def pairs(parent: Path, change: Path, count: int) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--workloads", "bulk-z16",
            "--pairs", str(count), "--seconds", "1", "--seed", "7", "--out", "unwritten.json"]


@pytest.mark.parametrize("tool, argv", [
    pytest.param(optimality_gap, [], id="optimality_gap-no-src"),
    pytest.param(optimality_gap, ["--src", str(TESTS)], id="optimality_gap-src-not-checkout"),
    pytest.param(criterion9_medians, ["--src", str(REPO), "--runs", "0"], id="criterion9_medians-runs-0"),
    pytest.param(bench_pairs, pairs(REPO, REPO, 0), id="bench_pairs-pairs-0"),
    pytest.param(bench_pairs, pairs(TESTS, REPO, 1), id="bench_pairs-parent-not-checkout"),
    pytest.param(bench_pairs, pairs(REPO, TESTS, 1), id="bench_pairs-change-not-checkout"),
    pytest.param(tier1_durations, ["--src", str(TESTS)], id="tier1_durations-src-not-checkout"),
    pytest.param(tier1_durations, ["--src", str(REPO), "--runs", "0"], id="tier1_durations-runs-0"),
])
def test_tool_refuses_bad_arguments(tool, argv):
    with pytest.raises(SystemExit) as exit_:
        tool.main(argv)
    assert exit_.value.code == 2


def test_criterion9_medians_refuses_a_checkout_without_the_acceptance_tests(tmp_path):
    # the package is there, but not the test each run executes
    package = tmp_path / "src" / "greenroute"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    with pytest.raises(SystemExit) as exit_:
        criterion9_medians.main(["--src", str(tmp_path), "--runs", "1"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("tool, argv", [
    pytest.param(bench_pairs, pairs(REPO, REPO, 1), id="bench_pairs"),
    pytest.param(criterion9_medians, ["--src", str(REPO), "--runs", "1"], id="criterion9_medians"),
    pytest.param(optimality_gap, ["--src", str(REPO)], id="optimality_gap"),
    pytest.param(tier1_durations, ["--src", str(REPO), "--runs", "1"], id="tier1_durations"),
])
def test_tool_exit_shows_a_failed_childs_stderr(monkeypatch, tool, argv):
    failed = subprocess.CompletedProcess([], 1, stdout="", stderr="Traceback: the child's own error")
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: failed)
    with pytest.raises(SystemExit) as exit_:
        tool.main(argv)
    assert "Traceback: the child's own error" in str(exit_.value.code)


def test_tier1_durations_reads_a_run_with_failing_tests(monkeypatch, capsys):
    # a suite with failures exits 1, and its durations and counts still make a reading
    output = ("..F\n===== slowest durations =====\n1.50s call     tests/test_a.py::test_slow\n"
              "0.25s setup    tests/test_a.py::test_slow\n0.00s teardown tests/test_a.py::test_fast\n"
              "1 failed, 2 passed in 2.01s\n")
    ran = subprocess.CompletedProcess([], 1, stdout=output, stderr="")
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: ran)
    tier1_durations.main(["--src", str(REPO), "--runs", "1"])
    out = capsys.readouterr().out
    assert out.startswith(f"{REPO}: summed durations median 1.75 (quartiles 1.75-1.75), min 1.75 s;")
    assert out.endswith("passed 2, failed 1, 1 runs\n")
