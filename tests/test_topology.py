import json

import pytest

from greenroute import (
    NodeKind,
    build_fat_tree,
    build_star_reduction,
    load_topology,
    save_topology,
)
from greenroute.mrg import is_connected

from oracle_helpers import all_simple_paths


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_layer_counts_match_formulas(z):
    t = build_fat_tree(z)
    kinds = [t.kind(v) for v in range(len(t))]
    assert kinds.count(NodeKind.HOST) == z**3 // 4
    assert kinds.count(NodeKind.EDGE) == z**2 // 2
    assert kinds.count(NodeKind.AGGREGATION) == z**2 // 2
    assert kinds.count(NodeKind.CORE) == z**2 // 4


def test_counts_z8_match_reported_network(tree8):
    # 208 nodes: 128 end-hosts plus 80 packet processors
    assert len(tree8) == 208
    assert len(tree8.host_ids) == 128
    assert len(tree8.processor_ids) == 80


def test_counts_z2_smallest_tree(tree2):
    assert len(tree2.host_ids) == 2
    assert sum(1 for v in tree2.processor_ids if tree2.kind(v) is NodeKind.EDGE) == 2
    assert sum(1 for v in tree2.processor_ids if tree2.kind(v) is NodeKind.AGGREGATION) == 2
    assert sum(1 for v in tree2.processor_ids if tree2.kind(v) is NodeKind.CORE) == 1


def test_counts_z4(tree4):
    assert len(tree4) == 36
    assert len(tree4.host_ids) == 16


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_degrees(z):
    t = build_fat_tree(z)
    for h in t.host_ids:
        assert len(t.neighbors(h)) == 1
    for v in t.processor_ids:
        assert len(t.neighbors(v)) == z


def test_edge_switch_wiring(tree4):
    for v in tree4.processor_ids:
        if tree4.kind(v) is not NodeKind.EDGE:
            continue
        nbrs = tree4.neighbors(v)
        hosts = [u for u in nbrs if tree4.is_host(u)]
        aggs = [u for u in nbrs if tree4.kind(u) is NodeKind.AGGREGATION]
        assert len(hosts) == 2 and len(aggs) == 2
        pod = tree4.nodes[v].pod
        assert all(tree4.nodes[a].pod == pod for a in aggs)
        assert all(tree4.pod_of_host(h) == pod for h in hosts)


def test_aggregation_core_group_wiring(tree4):
    for v in tree4.processor_ids:
        if tree4.kind(v) is not NodeKind.AGGREGATION:
            continue
        pos_in_pod = tree4.nodes[v].pos % 2
        cores = [u for u in tree4.neighbors(v) if tree4.kind(u) is NodeKind.CORE]
        assert sorted(cores) == list(tree4.core_ids()[pos_in_pod * 2:pos_in_pod * 2 + 2])
        assert all(tree4.core_group(c) == pos_in_pod for c in cores)


@pytest.mark.parametrize("z", [3, 0, -2, 1])
def test_invalid_arity_rejected(z):
    with pytest.raises(ValueError):
        build_fat_tree(z)


def test_deterministic_construction():
    a, b = build_fat_tree(4), build_fat_tree(4)
    assert a.nodes == b.nodes
    assert a.edges == b.edges
    assert a._adj == b._adj


@pytest.mark.parametrize("z", [2, 4])
def test_all_host_pairs_connected(z):
    t = build_fat_tree(z)
    everything = set(range(len(t)))
    for s in t.host_ids:
        for u in t.host_ids:
            if s < u:
                assert is_connected(t, everything, s, u)


def test_neighbors_z2_core(tree2):
    core = [v for v in tree2.processor_ids if tree2.kind(v) is NodeKind.CORE][0]
    aggs = {v for v in tree2.processor_ids if tree2.kind(v) is NodeKind.AGGREGATION}
    assert tree2.neighbors(core) == aggs


def test_neighbors_symmetric(tree4):
    for a in range(len(tree4)):
        for b in tree4.neighbors(a):
            assert a in tree4.neighbors(b)


def test_neighbors_unknown_id(tree4):
    with pytest.raises(KeyError):
        tree4.neighbors(999)
    with pytest.raises(KeyError):
        tree4.neighbors(-1)


def test_star_reduction_single_middle():
    star = build_star_reduction(1)
    assert all_simple_paths(star.topology, star.src, star.dst) == [[0, 2, 1]]


def test_star_reduction_paths_have_one_middle():
    star = build_star_reduction(3)
    paths = all_simple_paths(star.topology, star.src, star.dst)
    assert len(paths) == 3
    middles = set(star.middle_ids)
    for p in paths:
        assert len(p) == 3 and p[1] in middles


@pytest.mark.parametrize("count", [0, -3])
def test_star_reduction_invalid_count(count):
    with pytest.raises(ValueError):
        build_star_reduction(count)


def test_topology_dump_round_trip(tmp_path, tree4):
    path = tmp_path / "topo.json"
    save_topology(tree4, path)
    loaded = load_topology(path)
    assert loaded.nodes == tree4.nodes
    assert loaded.edges == tree4.edges
    assert loaded.z == tree4.z

    star = build_star_reduction(4).topology
    save_topology(star, path)
    loaded = load_topology(path)
    assert loaded.nodes == star.nodes
    assert loaded.edges == star.edges
    assert loaded.z is None


@pytest.mark.parametrize("bad", (1.5, True, "4"))
@pytest.mark.parametrize("field", ("z", "node id", "node pod", "node pos", "edge end"))
def test_load_topology_rejects_non_integer_fields(tmp_path, tree2, field, bad):
    path = tmp_path / "topo.json"
    save_topology(tree2, path)
    doc = json.loads(path.read_text())
    if field == "z":
        doc["z"] = bad
    elif field == "edge end":
        doc["edges"][0][1] = bad
    else:  # node 2 is an edge switch, so its pod is set
        doc["nodes"][2][("node id", "", "node pod", "node pos").index(field)] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        load_topology(path)


def test_fat_tree_helpers(tree4):
    assert tree4.hosts_per_pod == 4
    assert tree4.pod_of_host(0) == 0
    assert tree4.pod_of_host(15) == 3
    assert tree4.host_index_in_pod(5) == 1
    assert tree4.edge_of_host(0) == 16
    assert tree4.aggregation_id(0, 0) == 24
    assert tree4.aggregation_ids(1) == (26, 27)
    assert tree4.core_id(0, 0) == 32
    assert tree4.core_ids() == (32, 33, 34, 35)
    assert tree4.core_group(34) == 1
    with pytest.raises(ValueError):
        tree4.pod_of_host(20)  # not a host
