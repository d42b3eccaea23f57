import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from greenroute import (
    Flow,
    ParseError,
    Workload,
    build_star_reduction,
    generate_workload,
    load_workload,
    save_workload,
)
from greenroute.topology import Node, NodeKind, Topology
from greenroute.workload import on_grid


def test_generate_default_scale(tree8):
    w = generate_workload(tree8, 60, 5, 0.02, 0.02, seed=7)
    assert len(w.flows) == 60
    assert w.dims == 5 and w.z == 8 and w.seed == 7
    hosts = set(tree8.host_ids)
    for flow in w.flows:
        assert flow.src in hosts and flow.dst in hosts and flow.src != flow.dst
        assert len(flow.demand) == 5
        assert all(0 < c <= 1 for c in flow.demand)


def test_zero_std_degenerates_to_mean(tree4):
    w = generate_workload(tree4, 5, 3, mean=0.25, std=0.0, seed=1)
    for flow in w.flows:
        assert flow.demand == (0.25, 0.25, 0.25)


def test_seeded_determinism(tree4):
    a = generate_workload(tree4, 40, 4, seed=123)
    b = generate_workload(tree4, 40, 4, seed=123)
    assert a == b
    c = generate_workload(tree4, 40, 4, seed=124)
    assert a != c


def test_generate_rejects_bad_parameters(tree4):
    with pytest.raises(ValueError):
        generate_workload(tree4, 0, 3)
    with pytest.raises(ValueError):
        generate_workload(tree4, 5, 0)
    # a bool or float is not a count: True flows once made one flow, and 2.5 a TypeError
    for flow_count, dims in ((3, True), (3, 2.0), (True, 2), (False, 2), (2.5, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            generate_workload(tree4, flow_count, dims)
    with pytest.raises(ValueError):
        generate_workload(tree4, 5, 3, mean=0.0)
    with pytest.raises(ValueError):
        generate_workload(tree4, 5, 3, std=-0.1)
    for bad in (math.nan, math.inf):  # rejected up front, not by an exhausted sampler
        with pytest.raises(ValueError, match="mean must be finite"):
            generate_workload(tree4, 5, 3, mean=bad)
        with pytest.raises(ValueError, match="std must be finite"):
            generate_workload(tree4, 5, 3, std=bad)
    with pytest.raises(ValueError, match="rejection sampling with mean=5, std=0.001 did not converge"):
        generate_workload(tree4, 5, 3, mean=5, std=0.001)
    one_host = Topology([Node(0, NodeKind.HOST, None, 0), Node(1, NodeKind.EDGE, None, 0)], [(0, 1)])
    with pytest.raises(ValueError):
        generate_workload(one_host, 1, 1)


TICK = 2.0**-40


def test_on_grid_rounds_to_the_nearest_step_and_at_least_one():
    assert on_grid((1e-15, 0.5, 1e-10)) == (TICK, 0.5, 110 * TICK)
    assert on_grid((4096.0, 5000.5)) == (4096.0, 5000.5)  # on the grid already
    assert on_grid((0.5 * TICK, 1.5 * TICK, 2.5 * TICK)) == (TICK, 2 * TICK, 2 * TICK)  # ties to even, never 0


@given(st.floats(1e-15, 5000.0))
def test_on_grid_is_the_nearest_multiple_and_idempotent(c):
    (rounded,) = on_grid((c,))
    if c < 4096.0:
        assert rounded == max(round(c * 2**40), 1) * TICK
    else:
        assert rounded == c
    assert on_grid((rounded,)) == (rounded,)


def test_flows_store_grid_demands_that_survive_the_file_format(tmp_path):
    raw = ((0.1, 1e-13), (0.3, 1.0 + 1e-9))
    flows = tuple(Flow(i, 0, 1, demand) for i, demand in enumerate(raw))
    assert [flow.demand for flow in flows] == list(map(on_grid, raw))
    assert flows[0].demand != raw[0]
    workload = Workload(flows, 2)
    save_workload(workload, tmp_path / "w.jsonl")
    loaded = load_workload(tmp_path / "w.jsonl")
    assert loaded == workload
    assert [flow.demand for flow in loaded.flows] == list(map(on_grid, raw))


def test_flow_validation():
    with pytest.raises(ValueError):
        Flow(0, 3, 3, (0.1,))
    with pytest.raises(ValueError):
        Flow(0, 0, 1, (0.0,))
    with pytest.raises(ValueError):
        Flow(0, 0, 1, ())
    # a bool is an int subclass but not a node id
    for src, dst in ((0, True), (False, 15), (0, 1.0), ("0", 1)):
        with pytest.raises(ValueError, match="int node ids"):
            Flow(0, src, dst, (0.1,))
    # nor is a bool a flow id or a demand component
    for fid in (True, False, 1.0, "0"):
        with pytest.raises(ValueError, match="flow id must be an int"):
            Flow(fid, 0, 1, (0.1,))
    for demand in ((True,), (0.1, False), (True, 0.5)):
        with pytest.raises(ValueError, match="strictly positive"):
            Flow(0, 0, 1, demand)
    Flow(0, 0, 1, (1, 0.5))  # an int demand component is still a number


def test_round_trip_empty_and_single(tmp_path):
    path = tmp_path / "w.jsonl"
    empty = Workload((), 3, z=4)
    save_workload(empty, path)
    assert load_workload(path) == empty
    # a workload with dims True once saved "K": true, which load_workload refuses
    for dims in (True, 1.0):
        with pytest.raises(ValueError, match="dims must be an int"):
            Workload((), dims)
    with pytest.raises(ValueError, match="flow ids must be dense from 0, got id 1 at index 0"):
        Workload((Flow(1, 0, 5, (0.125,)),), 1)
    with pytest.raises(ValueError, match="flow 0: expected 2 demand components, got 1"):
        Workload((Flow(0, 0, 5, (0.125,)),), 2)

    one = Workload((Flow(0, 0, 5, (0.125, 0.25)),), 2, z=4, seed=9, mean=0.02, std=0.02)
    save_workload(one, path)
    assert load_workload(path) == one


def test_round_trip_fuzz(tmp_path, tree8):
    # full-precision floats must survive save/load bit for bit
    for seed in range(100):
        w = generate_workload(tree8, 200, 3, seed=seed)
        path = tmp_path / f"w{seed}.jsonl"
        save_workload(w, path)
        assert load_workload(path) == w


def test_components_always_in_unit_interval(tree4):
    rng = random.Random(5)
    for _ in range(30):
        mean = rng.uniform(0.005, 0.9)
        std = rng.uniform(0.0, 0.5)
        w = generate_workload(tree4, 20, 4, mean, std, seed=rng.randrange(10**6))
        for flow in w.flows:
            assert all(0 < c <= 1 for c in flow.demand)


def test_rejection_mean_matches_truncated_normal(tree2):
    # >= 1e5 draws at (0.02, 0.02); rejection at zero shifts the mean up
    w = generate_workload(tree2, 25_000, 4, 0.02, 0.02, seed=11)
    draws = [c for flow in w.flows for c in flow.demand]
    assert len(draws) == 100_000
    sample_mean = sum(draws) / len(draws)
    assert 0.02 <= sample_mean <= 0.04
    a, b = (0 - 0.02) / 0.02, (1 - 0.02) / 0.02
    expected = stats.truncnorm.mean(a, b, loc=0.02, scale=0.02)
    assert abs(sample_mean - expected) / expected < 0.05


def _write(path, text):
    path.write_text(text)
    return path


def test_parse_error_names_line(tmp_path):
    header = '{"K": 2, "z": 4, "seed": 0, "mean": 0.02, "std": 0.02}'
    good = '{"id": 0, "src": 0, "dst": 1, "demand": [0.1, 0.2]}'

    p = _write(tmp_path / "bad_json.jsonl", header + "\n" + good + "\nnot json\n")
    with pytest.raises(ParseError, match="line 3"):
        load_workload(p)

    p = _write(tmp_path / "bad_k.jsonl",
               header + "\n" + '{"id": 0, "src": 0, "dst": 1, "demand": [0.1]}\n')
    with pytest.raises(ParseError, match="line 2"):
        load_workload(p)

    p = _write(tmp_path / "bad_host.jsonl",
               header + "\n" + '{"id": 0, "src": 0, "dst": 99, "demand": [0.1, 0.2]}\n')
    with pytest.raises(ParseError, match="unknown host"):
        load_workload(p)

    p = _write(tmp_path / "bad_ids.jsonl",
               header + "\n" + '{"id": 1, "src": 0, "dst": 1, "demand": [0.1, 0.2]}\n')
    with pytest.raises(ParseError, match="dense"):
        load_workload(p)

    p = _write(tmp_path / "k0.jsonl", header.replace('"K": 2', '"K": 0') + "\n")
    with pytest.raises(ParseError, match="line 1: header K must be >= 1, got 0"):
        load_workload(p)

    p = _write(tmp_path / "no_header.jsonl", "")
    with pytest.raises(ParseError):
        load_workload(p)


@pytest.mark.parametrize("z", ("5", "1", "0", "4.5"))
def test_bad_fat_tree_arity_rejected_at_load(tmp_path, z):
    p = _write(tmp_path / "bad_z.jsonl",
               '{"K": 1, "z": %s, "seed": 0, "mean": 0.02, "std": 0.02}\n'
               '{"id": 0, "src": 0, "dst": 1, "demand": [0.1]}\n' % z)
    with pytest.raises(ParseError, match="line 1.*even integer"):
        load_workload(p)


@pytest.mark.parametrize("bad", (1.5, True, "4"))
@pytest.mark.parametrize("line, key", ((1, "K"), (1, "seed"), (2, "id"), (2, "src"), (2, "dst")))
def test_non_integer_fields_rejected_at_load(tmp_path, line, key, bad):
    # a float, bool or string is never truncated or coerced to an integer
    header = {"K": 1, "z": 4, "seed": 0, "mean": 0.02, "std": 0.02}
    record = {"id": 0, "src": 0, "dst": 4, "demand": [0.1]}
    (header if line == 1 else record)[key] = bad
    p = _write(tmp_path / "bad.jsonl", json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match=f"line {line}.*{key} must be an integer"):
        load_workload(p)


@pytest.mark.parametrize("bad", ("NaN", "Infinity", "-Infinity"))
def test_non_finite_demand_rejected_at_load(tmp_path, bad):
    header = '{"K": 2, "z": 4, "seed": 0, "mean": 0.02, "std": 0.02}'
    p = _write(tmp_path / "bad.jsonl",
               header + "\n" + '{"id": 0, "src": 0, "dst": 1, "demand": [0.1, %s]}\n' % bad)
    with pytest.raises(ParseError, match="line 2.*finite"):
        load_workload(p)
    with pytest.raises(ValueError, match="finite"):
        Flow(0, 0, 1, (0.1, float(bad)))


@pytest.mark.parametrize("bad", ("true", '"0.5"', "null"))
def test_non_number_demand_rejected_at_load(tmp_path, bad):
    # a bool, string or null is never coerced to a demand component
    header = '{"K": 2, "z": 4, "seed": 0, "mean": 0.02, "std": 0.02}'
    p = _write(tmp_path / "bad.jsonl",
               header + "\n" + '{"id": 0, "src": 0, "dst": 1, "demand": [0.1, %s]}\n' % bad)
    with pytest.raises(ParseError, match="line 2.*demand component must be a number"):
        load_workload(p)


@pytest.mark.parametrize("bad", ("true", '"0.5"', "1" + "0" * 400), ids=("bool", "string", "huge int"))
@pytest.mark.parametrize("key", ("mean", "std"))
def test_non_number_header_stats_rejected_at_load(tmp_path, key, bad):
    header = json.dumps({"K": 1, "z": 4, "seed": 0, "mean": 0.02, "std": 0.02})
    header = header.replace('"%s": 0.02' % key, '"%s": %s' % (key, bad))
    p = _write(tmp_path / "bad.jsonl", header + "\n" + '{"id": 0, "src": 0, "dst": 1, "demand": [0.1]}\n')
    with pytest.raises(ParseError, match=f"line 1.*{key} must be a number"):
        load_workload(p)


def test_integer_header_stats_load_as_floats(tmp_path):
    p = _write(tmp_path / "ints.jsonl",
               '{"K": 1, "z": 4, "seed": 0, "mean": 0, "std": 1}\n'
               '{"id": 0, "src": 0, "dst": 1, "demand": [1]}\n')
    w = load_workload(p)
    assert (w.mean, w.std, w.flows[0].demand) == (0.0, 1.0, (1.0,))
    assert all(type(x) is float for x in (w.mean, w.std, *w.flows[0].demand))


def test_star_reduction_workload_without_z(tmp_path):
    # z=null headers skip host validation, so star fixtures round-trip
    star = build_star_reduction(3)
    w = Workload((Flow(0, star.src, star.dst, (0.5, 0.5)),), 2, z=None)
    path = tmp_path / "star.jsonl"
    save_workload(w, path)
    assert load_workload(path) == w
