import json
import pickle
import random
import re

import pytest

from greenroute import (
    Flow,
    Node,
    NodeKind,
    Topology,
    Workload,
    build_fat_tree,
    build_star_reduction,
    load_topology,
    route_hgr,
    save_topology,
)
from greenroute.mrg import is_connected

from oracle_helpers import all_simple_paths, graph_with_leaves, with_hosts


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_layer_counts_match_formulas(z):
    t = build_fat_tree(z)
    kinds = [nd.kind for nd in t.nodes]
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
    kinds = [tree2.nodes[v].kind for v in tree2.processor_ids]
    assert kinds.count(NodeKind.EDGE) == 2
    assert kinds.count(NodeKind.AGGREGATION) == 2
    assert kinds.count(NodeKind.CORE) == 1


def test_counts_z4(tree4):
    assert len(tree4) == 36
    assert len(tree4.host_ids) == 16


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_degrees(z):
    t = build_fat_tree(z)
    for h in t.host_ids:
        assert len(t._adj[h]) == 1
    for v in t.processor_ids:
        assert len(t._adj[v]) == z


def test_edge_switch_wiring(tree4):
    nodes = tree4.nodes
    for v in tree4.processor_ids:
        if nodes[v].kind is not NodeKind.EDGE:
            continue
        nbrs = tree4._adj[v]
        hosts = [u for u in nbrs if nodes[u].kind is NodeKind.HOST]
        aggs = [u for u in nbrs if nodes[u].kind is NodeKind.AGGREGATION]
        assert len(hosts) == 2 and len(aggs) == 2
        pod = nodes[v].pod
        assert all(nodes[a].pod == pod for a in aggs)
        assert all(h // 4 == pod for h in hosts)  # hosts 4p..4p+3 live in pod p


def test_aggregation_core_group_wiring(tree4):
    nodes = tree4.nodes
    for v in tree4.processor_ids:
        if nodes[v].kind is not NodeKind.AGGREGATION:
            continue
        pos_in_pod = nodes[v].pos % 2
        cores = [u for u in tree4._adj[v] if nodes[u].kind is NodeKind.CORE]
        assert cores == list(range(32 + pos_in_pod * 2, 34 + pos_in_pod * 2))
        assert all(nodes[c].pos // 2 == pos_in_pod for c in cores)  # core group g = pos // (z/2)


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_fat_tree_tables_match_graph(z):
    t = build_fat_tree(z)
    nodes, adj, half = t.nodes, t._adj, z // 2
    per_pod = {}
    for h in t.host_ids:
        (edge,) = adj[h]
        assert nodes[edge].kind is NodeKind.EDGE and t._host_edge[h] == edge
        assert t._host_pod[h] == nodes[edge].pod
        per_pod.setdefault(t._host_pod[h], []).append(h)
    assert sorted(per_pod) == list(range(z))
    for hosts in per_pod.values():
        assert hosts == sorted(hosts)
    assert len(t._edge_ids) == len(t._agg_ids) == z
    for p, (edges, aggs) in enumerate(zip(t._edge_ids, t._agg_ids)):
        in_pod = [v for v in t.processor_ids
                  if nodes[v].kind is NodeKind.EDGE and nodes[v].pod == p]
        assert list(edges) == sorted(in_pod, key=lambda v: nodes[v].pos)
        assert {t._host_edge[h] for h in per_pod[p]} == set(edges)
        in_pod = [v for v in t.processor_ids
                  if nodes[v].kind is NodeKind.AGGREGATION and nodes[v].pod == p]
        assert list(aggs) == sorted(in_pod, key=lambda v: nodes[v].pos)
        assert all(a in adj[e] for e in edges for a in aggs)
    cores = [v for v in t.processor_ids if nodes[v].kind is NodeKind.CORE]
    assert len(t._core_groups) == half
    for g, group in enumerate(t._core_groups):
        # group g: exactly the cores behind every pod's aggregation switch at position g, in id order
        assert list(group) == [c for c in cores if all(c in adj[t._agg_ids[p][g]] for p in range(z))]
        assert all(set(adj[t._agg_ids[p][g]]) & set(cores) == set(group) for p in range(z))
    assert t._core_ids == tuple(c for group in t._core_groups for c in group)
    assert sorted(t._core_ids) == cores


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
    kinds = {v: tree2.nodes[v].kind for v in tree2.processor_ids}
    (core,) = [v for v, kind in kinds.items() if kind is NodeKind.CORE]
    aggs = [v for v, kind in kinds.items() if kind is NodeKind.AGGREGATION]
    assert list(tree2._adj[core]) == aggs


def test_neighbors_symmetric(tree4):
    for a in range(len(tree4)):
        for b in tree4._adj[a]:
            assert a in tree4._adj[b]


def test_relay_table_lists_processor_neighbours_of_degree_two_or_more():
    # Topology._inner_adj, the table every path search steps along: a host
    # never relays a flow, and a node of degree 1 lies inside no simple path
    rng = random.Random(67)
    graphs = [build_fat_tree(z) for z in (2, 4, 8)] + [with_hosts(graph_with_leaves(rng), rng) for _ in range(200)]
    for t in graphs:
        relays = {v for v in t.processor_ids if len(t._adj[v]) >= 2}
        assert t._inner_adj == tuple(tuple(sorted(relays.intersection(row))) for row in t._adj)
    assert sum(any(len(t._adj[h]) >= 2 for h in t.host_set) for t in graphs) > 50


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


@pytest.mark.parametrize("count", [0, -3, True, 2.0])  # a bool or float is not a count
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


def _tables(topology):
    return (topology.z, topology._host_edge, topology._host_pod, topology._edge_ids,
            topology._agg_ids, topology._core_groups, topology._core_ids)


def test_fat_tree_tables_survive_load_and_pickle(tmp_path, tree4):
    # the routers read the tables, not the graph; `experiment --jobs` pickles the tree to its workers
    path = tmp_path / "topo.json"
    save_topology(tree4, path)
    assert _tables(load_topology(path)) == _tables(tree4)
    assert _tables(pickle.loads(pickle.dumps(tree4))) == _tables(tree4)


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


@pytest.mark.parametrize("z", (2, 4, 3, 0, -2, 10**6))
def test_load_topology_rejects_z_that_does_not_match_graph(tmp_path, z):
    # HGR reads z's fat-tree tables, so a star labelled as a fat-tree would be routed as one
    path = tmp_path / "topo.json"
    save_topology(build_star_reduction(5).topology, path)
    doc = json.loads(path.read_text())
    doc["z"] = z
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: graph is not the z={z} fat-tree")):
        load_topology(path)


def test_topology_and_its_loader_refuse_a_malformed_graph(tmp_path):
    nodes = [Node(i, NodeKind.EDGE, None, 0) for i in (0, 1)]
    with pytest.raises(ValueError, match="node ids must be dense from 0, got id 0 at index 1"):
        Topology(nodes[:1] * 2, [])
    with pytest.raises(ValueError, match="self-loop at node 1"):
        Topology(nodes, [(1, 1)])
    with pytest.raises(ValueError, match=re.escape("edge (0, 2) references an unknown node")):
        Topology(nodes, [(0, 2)])
    path = tmp_path / "topo.json"
    path.write_text("not json")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not valid JSON")):
        load_topology(path)


def test_load_topology_rejects_fat_tree_with_other_z_or_edges(tmp_path):
    path = tmp_path / "topo.json"
    save_topology(build_fat_tree(4), path)
    doc = json.loads(path.read_text())
    doc["z"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="graph is not the z=2 fat-tree"):
        load_topology(path)
    doc["z"] = 4
    del doc["edges"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="graph is not the z=4 fat-tree"):
        load_topology(path)


def test_only_build_fat_tree_sets_z():
    # Topology takes no z: a star cannot be labelled a fat-tree and routed as one
    star = build_star_reduction(5).topology
    with pytest.raises(TypeError):
        Topology(star.nodes, star.edges, z=2)
    tree = build_fat_tree(4)
    assert Topology(tree.nodes, tree.edges).z is None
    assert Topology(star.nodes, star.edges).z is None
    with pytest.raises(ValueError, match="requires a fat-tree"):
        route_hgr(Topology(tree.nodes, tree.edges), Workload((Flow(0, 0, 4, (0.1,)),), 1))


def test_fat_tree_helpers(tree4):
    assert tree4._host_pod[0] == 0
    assert tree4._host_pod[15] == 3
    assert tree4._host_edge[0] == 16
    assert tree4._agg_ids[0][0] == 24
    assert tree4._agg_ids[1] == (26, 27)
    assert tree4._core_groups == ((32, 33), (34, 35))
    assert tree4._core_ids == (32, 33, 34, 35)
    assert 20 not in tree4._host_pod  # node 20 is an edge switch, not a host
