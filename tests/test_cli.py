import csv
import json
import os
import subprocess
import sys

import pytest

import greenroute
from greenroute import (
    Flow,
    Workload,
    build_fat_tree,
    build_star_reduction,
    cell_seed,
    oracle_min_active,
    route_mrg,
    save_topology,
    save_workload,
)
from greenroute.cli import main
from greenroute.evaluation import ROUTERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def saved_workload(tmp_path, flows, dims=1, z=None):
    """A workload file of ``flows``; returns its path."""
    path = tmp_path / "w.jsonl"
    save_workload(Workload(tuple(flows), dims, z=z), path)
    return path


def saved_star(tmp_path, n, **fields):
    """A dump of the ``n``-item star reduction's topology, top-level ``fields`` replaced; returns its path."""
    path = tmp_path / "star.json"
    save_topology(build_star_reduction(n).topology, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return path


def route_input_error(capsys, tmp_path, record, **header):
    """``route``'s stderr on a file of one header (K=1 and z=4 unless ``header``
    says otherwise) and one flow ``record`` line, which it must refuse with exit 2."""
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"K": 1, "z": 4, "seed": 0, "mean": 0, "std": 0, **header}) + f"\n{record}\n")
    code, _, err = run_cli(capsys, "route", "--algo", "mrg", "--workload", str(path))
    assert code == 2
    return err


def test_topo_summary_line(capsys):
    code, out, err = run_cli(capsys, "topo", "--z", "8")
    assert code == 0
    assert out.strip() == "208 nodes (128 hosts, 80 processors)"
    assert "[config]" in err and "z=8" in err


def test_topo_dump(capsys, tmp_path):
    out_path = tmp_path / "topo.json"
    code, _, _ = run_cli(capsys, "topo", "--z", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["z"] == 2 and len(doc["nodes"]) == 7
    # a dump into a missing directory is an input error
    code, _, err = run_cli(capsys, "topo", "--z", "2", "--out", str(tmp_path / "missing" / "topo.json"))
    assert code == 2 and "No such file or directory" in err


def test_odd_arity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "topo", "--z", "3")
    assert code == 1
    assert "even" in err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["topo", "--bogus", "1"])
    assert exc.value.code == 1


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_workload_route_round_trip(capsys, tmp_path):
    wpath = tmp_path / "w.jsonl"
    code, _, err = run_cli(capsys, "workload", "--z", "4", "--flows", "12", "--dims", "3",
                           "--seed", "5", "--out", str(wpath))
    assert code == 0
    assert "seed=5" in err

    spath = tmp_path / "s.json"
    code, out, _ = run_cli(capsys, "route", "--algo", "mrg", "--workload", str(wpath),
                           "--out", str(spath))
    assert code == 0
    line = out.strip()
    assert line.startswith("algo=mrg routed=12 incomplete=0")
    dump = json.loads(spath.read_text())
    assert len(dump["paths"]) == 12
    assert dump["unrouted"] == []


def test_route_refuses_an_unwritable_out_before_routing(capsys, monkeypatch, tmp_path):
    # The same check, messages and exit code as experiment's --out.
    def unrouted(*args):
        pytest.fail("the workload was routed")

    for algo in ROUTERS:
        monkeypatch.setitem(ROUTERS, algo, unrouted)
    monkeypatch.setattr("greenroute.cli.route_hgr", unrouted)
    wpath = saved_workload(tmp_path, [Flow(0, 0, 4, (0.1,))], z=4)
    missing = tmp_path / "missing" / "x.json"
    for algo in ("mrg", "hgr"):
        for out, why in ((missing, f"no directory {missing.parent}"), (tmp_path, "it is a directory")):
            code, stdout, err = run_cli(capsys, "route", "--algo", algo, "--workload", str(wpath),
                                        "--out", str(out))
            assert (code, stdout) == (2, "")
            assert f"cannot write {out}: {why}" in err


def test_route_hgr_dump_includes_layer_counts(capsys, tmp_path):
    wpath = tmp_path / "w.jsonl"
    run_cli(capsys, "workload", "--z", "4", "--flows", "6", "--dims", "2", "--out", str(wpath))
    spath = tmp_path / "s.json"
    code, _, _ = run_cli(capsys, "route", "--algo", "hgr", "--workload", str(wpath),
                         "--out", str(spath))
    assert code == 0
    dump = json.loads(spath.read_text())
    counts = dump["layer_counts"]
    assert len(counts["agg_per_pod"]) == 4
    assert type(counts["cores"]) is int
    assert set(counts) == {"agg_per_pod", "cores", "activated"}


def test_route_empty_workload(capsys, tmp_path):
    wpath = saved_workload(tmp_path, (), dims=3, z=4)
    code, out, _ = run_cli(capsys, "route", "--algo", "mrg", "--workload", str(wpath))
    assert code == 0
    assert "routed=0" in out and "saving_ratio=1.0" in out


def test_route_without_z_is_input_error(capsys, tmp_path):
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (0.5,))])
    code, out, err = run_cli(capsys, "route", "--algo", "mrg", "--workload", str(wpath))
    assert code == 2 and out == ""
    assert "header has no z" in err


def test_route_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "route", "--algo", "mrg", "--workload", "no/such/file.jsonl")
    assert code == 2


def test_route_corrupt_file_is_input_error(capsys, tmp_path):
    assert "line 2" in route_input_error(capsys, tmp_path, "not json", K=2)


def test_route_non_finite_demand_is_input_error(capsys, tmp_path):
    err = route_input_error(capsys, tmp_path, '{"id": 0, "src": 0, "dst": 4, "demand": [NaN]}')
    assert "line 2" in err and "finite" in err


def test_route_non_number_demand_is_input_error(capsys, tmp_path):
    err = route_input_error(capsys, tmp_path, '{"id": 0, "src": 0, "dst": 4, "demand": [true]}')
    assert "line 2" in err and "demand component must be a number" in err


def test_route_bad_arity_is_input_error(capsys, tmp_path):
    err = route_input_error(capsys, tmp_path, '{"id": 0, "src": 0, "dst": 4, "demand": [0.1]}', z=5)
    assert "line 1" in err and "even integer" in err


def test_route_non_integer_host_is_input_error(capsys, tmp_path):
    err = route_input_error(capsys, tmp_path, '{"id": 0, "src": 0.9, "dst": 4, "demand": [0.1]}')
    assert "line 2" in err and "src must be an integer" in err


def test_oracle_non_integer_topology_is_input_error(capsys, tmp_path):
    tpath = saved_star(tmp_path, 2, edges=[[0.2, 2.8]])
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (0.5,))])
    code, _, err = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath),
                           "--topo", str(tpath))
    assert code == 2
    assert "edge end must be an integer" in err


def test_experiment_rerun_is_byte_identical(capsys, tmp_path):
    args = ("experiment", "--z", "4", "--dims", "2", "--flows", "4:8:4",
            "--algos", "mrg,hgr", "--trials", "2", "--seed", "3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "algo,z,K,M,trial,routed,incomplete,active,total,saving_ratio,congested,runtime_ms"


def test_experiment_bad_sweep_spec(capsys, tmp_path):
    for spec in ("nope", "4:8:-1", "8:4:1"):  # not a count, a step below 1, a sweep that runs backwards
        code, _, err = run_cli(capsys, "experiment", "--dims", "2", "--flows", spec,
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert f"--flows must be an integer or A:B:STEP, got {spec!r}" in err


def test_experiment_refuses_a_missing_out_directory_before_routing(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("greenroute.cli.run_experiment", lambda config: pytest.fail("the sweep ran"))
    missing = tmp_path / "missing" / "x.csv"
    for out, why in ((missing, f"no directory {missing.parent}"), (tmp_path, "it is a directory")):
        code, _, err = run_cli(capsys, "experiment", "--z", "4", "--dims", "2", "--flows", "4", "--out", str(out))
        assert code == 2
        assert f"cannot write {out}: {why}" in err


@pytest.mark.parametrize("algos", ("", "mrg,mrg"))
def test_experiment_rejects_empty_or_repeated_algos(capsys, tmp_path, algos):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "experiment", "--z", "4", "--dims", "2", "--flows", "4",
                           "--trials", "1", "--algos", algos, "--out", str(out))
    assert code == 1
    assert "nonempty and distinct" in err
    assert not out.exists()


def test_oracle_vbp_mode(capsys, tmp_path):
    items = [(0.6, 0.3), (0.5, 0.5), (0.4, 0.6), (0.3, 0.2)]
    wpath = saved_workload(tmp_path, [Flow(i, 0, 1, d) for i, d in enumerate(items)], dims=2)
    code, out, _ = run_cli(capsys, "oracle", "--mode", "vbp", "--input", str(wpath))
    assert code == 0 and out.strip() == "2"


def test_oracle_eemr_mode_with_star_topology(capsys, tmp_path):
    tpath = saved_star(tmp_path, 4)
    items = [(0.6, 0.3), (0.5, 0.5), (0.4, 0.6), (0.3, 0.2)]
    wpath = saved_workload(tmp_path, [Flow(i, 0, 1, d) for i, d in enumerate(items)], dims=2)
    code, out, _ = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath),
                           "--topo", str(tpath))
    assert code == 0 and out.strip() == "2"


def test_oracle_eemr_mode_on_the_header_fat_tree(capsys, tmp_path):
    # no --topo: the optimum is taken on the z=2 fat-tree the header names
    flows = (Flow(0, 0, 1, (0.3, 0.6)), Flow(1, 1, 0, (0.4, 0.2)), Flow(2, 0, 1, (0.2, 0.1)))
    wpath = saved_workload(tmp_path, flows, dims=2, z=2)
    code, out, _ = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath))
    assert code == 0
    assert out.strip() == str(oracle_min_active(build_fat_tree(2), Workload(flows, 2, z=2))) == "5"


def test_oracle_eemr_mode_without_z_or_topology_is_input_error(capsys, tmp_path):
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (0.5,))])
    code, out, err = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath))
    assert code == 2 and out == ""
    assert "header has no z and no --topo was given" in err


def test_oracle_eemr_infeasible(capsys, tmp_path):
    tpath = saved_star(tmp_path, 2)
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (1.5,))])
    code, out, _ = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath),
                           "--topo", str(tpath))
    assert code == 0 and out.strip() == "infeasible"


def test_oracle_vbp_infeasible(capsys, tmp_path):
    # the same item as the eemr case: no unit bin holds a component of 1.5
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (1.5,))])
    code, out, _ = run_cli(capsys, "oracle", "--mode", "vbp", "--input", str(wpath))
    assert code == 0 and out.strip() == "infeasible"


def test_oracle_topology_whose_z_does_not_match_graph_is_input_error(capsys, tmp_path):
    tpath = saved_star(tmp_path, 5, z=2)
    wpath = saved_workload(tmp_path, [Flow(0, 0, 1, (0.5,))])
    code, out, err = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath),
                             "--topo", str(tpath))
    assert code == 2 and out == ""
    assert "graph is not the z=2 fat-tree" in err


@pytest.mark.parametrize("src, dst, message", ((99, 1, "unknown node id 99"), (-1, 1, "unknown node id -1"),
                                               (0, 2, "node 2 is not a host")))
def test_oracle_endpoint_that_is_not_a_host_is_input_error(capsys, tmp_path, src, dst, message):
    # the oracle, like every router, routes flows between hosts of its
    # topology; node 2 is one of the star's middle (edge) switches
    tpath = saved_star(tmp_path, 3)
    wpath = saved_workload(tmp_path, [Flow(0, src, dst, (0.5,))])
    code, out, err = run_cli(capsys, "oracle", "--mode", "eemr", "--input", str(wpath),
                             "--topo", str(tpath))
    assert code == 2 and out == ""
    assert f"{wpath}: {message}" in err


def test_console_script_installed():
    # the subprocess must import the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(greenroute.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-m", "greenroute.cli", "topo", "--z", "2"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "7 nodes" in result.stdout


def test_experiment_reports_failed_trials(capsys, monkeypatch, tmp_path):
    flaky_seed = cell_seed(3, 8, 1)

    def flaky(topology, workload, seed):
        if seed == flaky_seed:
            raise RuntimeError("router exploded")
        return route_mrg(topology, workload, seed)

    def broken(topology, workload, seed):
        raise ValueError("always")

    monkeypatch.setitem(ROUTERS, "flaky", flaky)
    monkeypatch.setitem(ROUTERS, "broken", broken)
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "experiment", "--z", "4", "--dims", "2", "--flows", "4:8:4",
                           "--algos", "flaky,broken", "--trials", "3", "--seed", "3",
                           "--out", str(out))
    assert code == 0
    report = [line for line in err.splitlines() if not line.startswith("[config]")]
    assert report == [
        "greenroute: flaky M=8 trial 1 failed: RuntimeError('router exploded')",
        "greenroute: flaky M=8: summary rows average 2 of 3 trials",
        "greenroute: broken M=4 trial 0 failed: ValueError('always')",
        "greenroute: broken M=4 trial 1 failed: ValueError('always')",
        "greenroute: broken M=4 trial 2 failed: ValueError('always')",
        "greenroute: broken M=4: summary rows average 0 of 3 trials",
        "greenroute: broken M=8 trial 0 failed: ValueError('always')",
        "greenroute: broken M=8 trial 1 failed: ValueError('always')",
        "greenroute: broken M=8 trial 2 failed: ValueError('always')",
        "greenroute: broken M=8: summary rows average 0 of 3 trials",
    ]
    rows = list(csv.reader(out.read_text().splitlines()))
    flaky_rows = [r for r in rows if r[0] == "flaky" and r[3] == "8"]
    assert [r[4] for r in flaky_rows] == ["0", "1", "2", "mean", "std"]
    assert flaky_rows[1][5:] == ["error"] * 7  # the CSV layout is unchanged
    assert "error" not in flaky_rows[3]


def test_experiment_without_failures_reports_nothing(capsys, tmp_path):
    code, _, err = run_cli(capsys, "experiment", "--z", "4", "--dims", "2", "--flows", "4",
                           "--algos", "mrg", "--trials", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert [line for line in err.splitlines() if not line.startswith("[config]")] == []
