import math
import random

import pytest

from greenroute import (
    CAP_TOL,
    Flow,
    Workload,
    build_fat_tree,
    build_star_reduction,
    dimension_weights,
    oracle_min_bins,
    route_hgr,
    route_mrg,
    vbp_greedy,
)
from greenroute.workload import generate_workload, on_grid

from oracle_helpers import layer_items, min_bins_by_subset_dp, reference_l1_count, state_with

TOL = 1e-9


# -- dimension weights -----------------------------------------------------------

def test_dimension_weights_example():
    alphas = dimension_weights([(0.2, 0.2), (0.2, 0.4)])
    assert alphas == pytest.approx((0.4, 0.6), abs=TOL)


def test_dimension_weights_single_dimension():
    assert dimension_weights([(0.3,), (0.7,)]) == (1.0,)


def test_dimension_weights_symmetric_items():
    alphas = dimension_weights([(0.2, 0.2, 0.2)] * 4)
    assert alphas == pytest.approx((1 / 3,) * 3, abs=TOL)
    assert sum(alphas) == pytest.approx(1.0, abs=TOL)


def test_dimension_weights_empty_instance():
    with pytest.raises(ValueError):
        dimension_weights([])


@pytest.mark.parametrize("items", ([(0.0,)], [(-0.5,), (0.5,)], [(float("nan"),)], [(0.2, 0.0)],
                                   [(float("inf"), 0.1)]))
def test_dimension_weights_rejects_components_not_finite_and_positive(items):
    # a zero mass divides by zero, a zero or negative one gives a weight outside (0, 1)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        dimension_weights(items)


# -- greedy packing ---------------------------------------------------------------

def test_vbp_single_item():
    result = vbp_greedy([(0.4, 0.9)])
    assert result.bin_count == 1
    assert result.assignment == {0: 1}


def test_vbp_four_item_example_hits_optimum():
    items = [(0.6, 0.3), (0.5, 0.5), (0.4, 0.6), (0.3, 0.2)]
    result = vbp_greedy(items)
    assert result.bin_count == 2 == min_bins_by_subset_dp(items)
    blocks = {}
    for item, bin_no in result.assignment.items():
        blocks.setdefault(bin_no, set()).add(item)
    assert set(map(frozenset, blocks.values())) == {frozenset({0, 2}), frozenset({1, 3})}


def test_vbp_pairwise_incompatible_items():
    result = vbp_greedy([(0.51,)] * 5)
    assert result.bin_count == 5


def test_vbp_rejects_oversized_items():
    # the range check visits items in order, so a refusal names the first bad item
    for bad in [(1.5, 0.2), (1.0 + 2 * CAP_TOL,), (0.0, 0.2), (math.nan, 0.2), (math.inf,), (0.2, -0.1)]:
        with pytest.raises(ValueError, match=r"^item 1 does not fit a unit bin"):
            vbp_greedy([(0.5,) * len(bad), bad, (2.0,) * len(bad)])


def test_vbp_empty_instance():
    result = vbp_greedy([])
    assert result.bin_count == 0 and result.assignment == {}


def test_vbp_never_beats_oracle_and_loads_fit():
    rng = random.Random(31)
    ties = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        dims = rng.randint(1, 3)
        items = [tuple(rng.uniform(0.05, 1.0) for _ in range(dims)) for _ in range(n)]
        result = vbp_greedy(items)
        # every item assigned exactly once, bins dense from 1, none empty
        assert sorted(result.assignment) == list(range(n))
        used = set(result.assignment.values())
        assert used == set(range(1, result.bin_count + 1))
        for bin_no in used:
            load = [0.0] * dims
            for item, b in result.assignment.items():
                if b == bin_no:
                    for k in range(dims):
                        load[k] += items[item][k]
            assert all(c <= 1 + TOL for c in load)
            assert result.bin_residuals[bin_no - 1] == pytest.approx(
                tuple(1 - c for c in load), abs=1e-6)
        optimum = min_bins_by_subset_dp(items)
        assert result.bin_count >= optimum
        ties += result.bin_count == optimum
    assert ties >= 30


def test_vbp_decides_fit_by_the_routers_rule_on_the_boundary():
    # Items 1, 0 and 3 fill the first bin to 0.90031635...; item 2 would take
    # it to 1 + 1100 grid steps, one past the most a bin holds (1 + 1099
    # steps <= 1 + CAP_TOL), so it opens a second bin, as the routers and
    # oracle_min_bins decide.
    items = [(0.33995741261596757,), (0.4254422998171266,), (0.09968364743832597,), (0.1349166411285799,)]
    result = vbp_greedy(items)
    assert result.bin_count == 2 == oracle_min_bins(items)
    assert result.assignment == {1: 1, 0: 1, 3: 1, 2: 2}


# -- core layer ----------------------------------------------------------------------

def test_hgr_sizes_the_core_layer_by_its_l1_bound(tree4):
    # z=4: hosts 4p..4p+3 in pod p, four cores. The core layer is not packed:
    # it wakes the inter-pod flows' largest per-dimension demand sum, rounded
    # up, and at most (z/2)^2 = 4 cores.
    def cores(*flows, dims=1):
        _, counts = route_hgr(tree4, Workload(flows, dims, z=4))
        return counts.cores

    # flows that stay in their pod need no core
    assert cores(Flow(0, 0, 2, (0.5,)), Flow(1, 4, 7, (0.5,)), Flow(2, 9, 8, (0.3,))) == 0
    # two small inter-pod flows share one core, whichever hosts they leave from
    for first, second in [((0, 4), (1, 8)), ((0, 4), (2, 12)), ((1, 9), (3, 13)), ((6, 10), (2, 6)),
                          ((5, 14), (14, 1))]:
        assert cores(Flow(0, *first, (0.1,)), Flow(1, *second, (0.1,))) == 1
    # a sum of exactly 1 with rounding noise (0.34 + 0.56 + 0.1 is 1 + 2**-40 on the grid) takes one
    assert cores(Flow(0, 0, 4, (0.34,)), Flow(1, 1, 8, (0.56,)), Flow(2, 2, 12, (0.1,))) == 1
    # one dimension summing past 1 takes two, however small the others are
    assert cores(Flow(0, 0, 4, (0.6, 0.1)), Flow(1, 9, 13, (0.5, 0.1)), dims=2) == 2
    # a heavy workload is capped at the layer's four cores
    heavy = generate_workload(tree4, 60, 2, 0.4, 0.1, seed=1)
    _, counts = route_hgr(tree4, heavy)
    assert counts.cores == 4


# -- hierarchical routing --------------------------------------------------------------

def test_hgr_intra_rack_only(tree4):
    # hosts 0 and 1 share edge 16, hosts 4 and 5 share edge 18
    flows = (Flow(0, 0, 1, (0.3, 0.3)), Flow(1, 5, 4, (0.2, 0.2)))
    sol, counts = route_hgr(tree4, Workload(flows, 2, z=4))
    assert counts.agg_per_pod == (0, 0, 0, 0)
    assert counts.cores == 0
    assert sol.active == {16, 18}
    assert len(sol.paths) == 2


def test_hgr_single_inter_pod_flow(tree4):
    for src, dst in [(0, 4), (1, 9), (3, 14)]:
        sol, counts = route_hgr(tree4, Workload((Flow(0, src, dst, (0.2,)),), 1, z=4))
        path = sol.paths[0]
        assert len(path) == 7
        assert len(sol.active) == 5
        kinds = [tree4.nodes[v].kind.value for v in path]
        assert kinds == ["host", "edge", "aggregation", "core", "aggregation", "edge", "host"]


def test_hgr_estimate_never_exceeds_activated(tree4):
    for seed in range(25):
        w = generate_workload(tree4, 20, 3, seed=seed)
        sol, counts = route_hgr(tree4, w)
        touched_edges = {v for v in counts.activated if tree4.nodes[v].kind.value == "edge"}
        assert counts.estimate + len(touched_edges) <= len(counts.activated)
        assert sol.active <= counts.activated


def test_hgr_sizes_each_pod_by_its_l1_bound(tree4):
    # flow 0 leaves pod 0 for pod 1, flow 1 stays in pod 0 across racks;
    # pod 0 counts both demands, pod 1 only the first
    flows = (Flow(0, 0, 4, (0.6,)), Flow(1, 0, 2, (0.6,)))
    _, counts = route_hgr(tree4, Workload(flows, 1, z=4))
    assert counts.agg_per_pod[0] == reference_l1_count([(0.6,), (0.6,)], 2) == 2
    assert counts.agg_per_pod[1] == reference_l1_count([(0.6,)], 2) == 1
    assert counts.agg_per_pod[2:] == (0, 0)
    assert counts.cores == 1


def test_hgr_pod_estimate_is_the_l1_bound_where_the_packer_opens_more_bins():
    # z=12, so pod 0 has six edge switches (432-437) and six aggregation
    # switches (504-509). Three intra-pod flows on six distinct edge switches,
    # every pair incompatible: the packer needs 3 bins, the L1 bound is 2.
    tree12 = build_fat_tree(12)
    flows = (Flow(0, 0, 6, (0.7,)), Flow(1, 12, 18, (0.7,)), Flow(2, 24, 30, (0.6,)))
    assert vbp_greedy([flow.demand for flow in flows]).bin_count == 3
    sol, counts = route_hgr(tree12, Workload(flows, 1, z=12))
    assert counts.agg_per_pod[0] == 2 and counts.cores == 0
    # the third flow fits neither estimated switch: it escalates and wakes exactly the third
    edges = {432, 433, 434, 435, 436, 437}
    phase1 = edges | set(tree12._agg_ids[0][:2])
    assert counts.activated - phase1 == {tree12._agg_ids[0][2]}
    assert sol.paths[2] == (24, 436, 506, 437, 30)
    assert not sol.unrouted
    assert sol.active == edges | {504, 505, 506}


def test_hgr_counts_clamped_to_layer_width(tree4):
    # four incompatible inter-rack flows in pod 0 need 4 bins, but only z/2=2 switches exist
    flows = tuple(Flow(i, 0, 2, (0.6,)) for i in range(4))
    sol, counts = route_hgr(tree4, Workload(flows, 1, z=4))
    assert counts.agg_per_pod[0] == 2
    assert len(sol.unrouted) == 3  # the shared edge switch fits only the first flow


def test_hgr_reports_oversize_flows_unrouted_like_every_router(tree4):
    # a demand component above 1 + CAP_TOL fits no switch: HGR leaves it out
    # of the estimate and reports it unrouted, as the greedy router does. One
    # within the tolerance (flow 3, pod 2 -> pod 3) fits an idle switch and counts.
    flows = (Flow(0, 0, 4, (0.3, 1.5)), Flow(1, 0, 2, (0.2, 0.2)), Flow(2, 1, 0, (2.0, 0.1)),
             Flow(3, 8, 12, (1.0 + 5e-10, 0.1)))
    workload = Workload(flows, 2, z=4)
    sol, counts = route_hgr(tree4, workload)
    assert sol.unrouted == route_mrg(tree4, workload).unrouted == {0, 2}
    assert set(sol.paths) == {1, 3}
    assert counts.agg_per_pod == (1, 0, 1, 1) and counts.cores == 1


def test_hgr_escalation_wakes_only_the_switches_of_its_path(tree4):
    # z=4: hosts 4p..4p+3 in pod p, pod p's aggregation switches 24+2p (position 0)
    # and 25+2p (position 1), cores 32, 33 (behind position 0) and 34, 35.
    # The last flow, 1 -> 7 (pod 0 -> pod 1, demand 0.48), follows the fillers; the
    # estimate wakes the lowest cores, as many as the inter-pod demand sum rounded
    # up. Every pod packs into one bin (position 0) unless noted.
    f0 = Flow(0, 0, 4, (0.5,))     # pod 0 -> pod 1 via 24, 32, 26
    f1 = Flow(1, 8, 12, (0.4,))    # pod 2 -> pod 3 via 28, 32, 30: core 32 left with 0.1
    f2 = Flow(2, 10, 14, (0.55,))  # pod 2 -> pod 3 via 28, 33, 30: core 33 left with 0.45
    x = Flow(3, 5, 6, (0.3,))      # inside pod 1 via 26 (left with 0.2); pod 1 now packs into two bins
    edges = {16, 18, 19, 20, 22}

    def route_last(*fillers):
        flows = fillers + (Flow(len(fillers), 1, 7, (0.48,)),)
        sol, counts = route_hgr(tree4, Workload(flows, 1, z=4))
        assert not sol.unrouted
        return sol.paths[len(fillers)], counts.activated

    # the inter-pod demands sum to 1.38, so 32 and 33 wake: core 32 is full for the flow,
    # 33 carries it, nothing wakes
    assert route_last(f0, f1) == ((1, 16, 24, 33, 26, 19, 7), edges | {24, 26, 28, 30, 32, 33})
    # with f2 they sum to 1.93, still two cores, and 32 and 33 are both full: the flow
    # escalates to the lex-min path over every switch, at position 1, and wakes only
    # pod 0's agg 25 and core 34 on it; core 35 stays asleep
    assert route_last(f0, f1, f2, x) == (
        (1, 16, 25, 34, 27, 19, 7), edges | {21, 23, 24, 26, 27, 28, 30, 32, 33} | {25, 34})
    # without x, pod 1 has one agg: the same path wakes pod 1's agg 27 as well
    assert route_last(f0, f1, f2) == (
        (1, 16, 25, 34, 27, 19, 7), edges | {21, 23, 24, 26, 28, 30, 32, 33} | {25, 27, 34})


def test_hgr_escalation_takes_the_lowest_position_path():
    # z=6, so a pod has three aggregation switches: pod 0's are 72-74, pod 1's 75-77,
    # cores 90-92 sit behind position 0 and 93-95 behind position 1. Flow 0 stays in
    # pod 1 via 75 and leaves it 0.4; pod 1 packs into two bins (75, 76), pod 0 into
    # one (72). Flow 1 (demand 0.5) is blocked at 75. Flows 2 (pod 2 -> 3) and 3
    # (pod 4 -> 5) are small: the inter-pod demands sum to 0.7, so the estimate
    # wakes one core, 90.
    tree6 = build_fat_tree(6)
    flows = (Flow(0, 9, 12, (0.6,)), Flow(1, 1, 15, (0.5,)), Flow(2, 18, 27, (0.1,)),
             Flow(3, 38, 45, (0.1,)))
    sol, counts = route_hgr(tree6, Workload(flows, 1, z=6))
    assert counts.cores == 1
    estimated = {54, 57, 58, 59, 60, 63, 66, 69} | {72, 75, 76, 78, 81, 84, 87} | {90}
    # position 1 is the lowest open to flow 1: its path wakes pod 0's agg 73 and core 93
    # and runs through pod 1's estimated agg 76, so pod 1's agg 77 stays asleep
    assert counts.activated == estimated | {93, 73}
    assert sol.paths[1] == (1, 54, 73, 93, 76, 59, 15)


@pytest.mark.parametrize("z", (4, 8))
def test_hgr_wakes_beyond_phase_1_only_switches_that_carry_load(z):
    topology = build_fat_tree(z)
    # light loads: heavier ones saturate the estimates at z/2 switches per layer
    flows = 40 if z == 4 else 120
    escalated = 0
    for seed in range(40):
        mean = (0.05, 0.1)[seed % 2]
        workload = generate_workload(topology, flows, 3, mean, mean / 2, seed=seed)
        sol, counts = route_hgr(topology, workload)
        # the core estimate is the L1 bound of the inter-pod flows that fit a switch
        crossing = layer_items(topology, [f for f in workload.flows if max(f.demand) <= 1.0 + CAP_TOL])[2]
        assert counts.cores == reference_l1_count(crossing, (z // 2) ** 2)
        # phase 1 wakes every flow's edge switches and the estimated aggregation and core switches
        phase1 = layer_items(topology, workload.flows)[0]
        phase1.update(v for aggs, n in zip(topology._agg_ids, counts.agg_per_pod) for v in aggs[:n])
        phase1.update(topology._core_ids[:counts.cores])
        woken = counts.activated - phase1
        assert woken <= sol.active
        escalated += bool(woken)
    assert escalated >= 10  # inputs on which phase 2 woke switches


def test_hgr_flow_with_full_edge_switch_is_unrouted_and_wakes_nothing(tree4):
    # flow 0 fills edge switch 16 exactly; flow 1 leaves through it and flow 2
    # enters through it, so neither fits, and phase 2 wakes nothing for them
    flows = (Flow(0, 0, 1, (1.0,)), Flow(1, 0, 4, (0.5,)), Flow(2, 5, 1, (0.5,)))
    sol, counts = route_hgr(tree4, Workload(flows, 1, z=4))
    assert sol.unrouted == {1, 2} and sol.paths == {0: (0, 16, 1)}
    # flows 1 and 2 cross pods with demands summing to 1.0: one core
    assert (counts.agg_per_pod, counts.cores) == ((1, 1, 0, 0), 1)
    # the phase-1 set: every flow's edge switches, then the estimates' aggregation switches and cores
    assert counts.activated == {16, 18} | {24, 26} | {32}


def test_hgr_wakes_cores_its_paths_reach(tree4):
    # The only inter-pod flow leaves from host 1, its rack's second host, and
    # its demand rounds up to one core: the lowest, 32, behind the position-0
    # aggregation switches 24 and 26 that the estimate wakes too. The flow
    # rides it and nothing else wakes.
    sol, counts = route_hgr(tree4, Workload((Flow(0, 1, 4, (0.2,)),), 1, z=4))
    assert sol.paths[0] == (1, 16, 24, 32, 26, 18, 4)
    assert counts.activated == {16, 18, 24, 26, 32}
    assert counts.cores == 1


def test_hgr_rejects_non_fat_tree():
    star = build_star_reduction(2)
    with pytest.raises(ValueError):
        route_hgr(star.topology, Workload((Flow(0, 0, 1, (0.1,)),), 1))


def _random_tree_state(rng, topology, dims):
    """Loads and an activated set for the path rule: light, near-full, or open at few positions per pod."""
    kind = rng.randrange(3)
    if kind == 0:  # light and near-full switches mixed
        load = {v: [rng.choice([0.0, rng.uniform(0, 1)]) for _ in range(dims)] for v in topology.processor_ids}
    elif kind == 1:  # mostly near full
        full = rng.choice((0.3, 0.5, 0.7))
        load = {v: [rng.uniform(0.5, 1.0) if rng.random() < full else rng.uniform(0, 0.3) for _ in range(dims)]
                for v in topology.processor_ids}
    else:  # each pod open at one or two aggregation positions, so detours chain through third pods
        half = topology.z // 2
        load = {v: [rng.choice([0.0, rng.uniform(0, 0.4)]) for _ in range(dims)] for v in topology.processor_ids}
        for aggs in topology._agg_ids:
            open_at = rng.sample(range(half), rng.randint(1, min(2, half)))
            for g, a in enumerate(aggs):
                if g not in open_at:
                    load[a][rng.randrange(dims)] = 1.0
    share = rng.uniform(0.2, 1.0) if kind == 0 else rng.uniform(0.6, 1.0)
    activated = {v for v in topology.processor_ids if rng.random() < share}
    return load, activated


def test_constructive_path_matches_generic_search():
    # the structural fat-tree path picker must agree with the generic
    # hop-shortest lexicographic search on arbitrary capability states in
    # which both edge switches are activated and fit the flow, as route_hgr
    # guarantees before it asks: fixed shapes, 10-hop detours through one
    # third pod, longer ones, and "no path"
    from greenroute.hgr import _tree_router
    from greenroute.mrg import shortest_path

    rng = random.Random(7)
    dims = 3
    lengths = {}
    for z in (4, 6, 8):
        topology = build_fat_tree(z)
        tried = 0
        while tried < 400:
            load, activated = _random_tree_state(rng, topology, dims)
            src, dst = rng.sample(topology.host_ids, 2)
            edges = {topology._host_edge[src], topology._host_edge[dst]}
            activated |= edges
            state = state_with(load)
            room = state.room(on_grid(rng.uniform(0.01, 0.6) for _ in range(dims)))
            allowed = {v for v in activated if state.fits(v, room)}
            if not edges <= allowed:
                continue
            tried += 1
            constructive = _tree_router(topology, state, activated)(room, src, dst)
            generic = shortest_path(topology, allowed, None, src, dst)
            assert constructive == generic
            length = None if generic is None else len(generic)
            lengths[length] = lengths.get(length, 0) + 1
    # every shape, the one-pod detour, a longer detour and "no path" are exercised
    assert all(lengths.get(n, 0) > 0 for n in (3, 5, 7, 11, 15, None)), lengths


def test_hgr_leaves_the_hop_search_to_long_detours(tree4, monkeypatch):
    # route_hgr reaches the generic hop search only for detours through two
    # or more third pods and for "no path": never on criterion 9's inputs, and
    # never for an intra-pod flow whose pod has no aggregation switch that fits
    import greenroute.hgr as hgr

    searches = []
    search = hgr._sample_shortest
    monkeypatch.setattr(hgr, "_sample_shortest", lambda *args: searches.append(args) or search(*args))
    tree8 = build_fat_tree(8)
    for run in range(5):
        route_hgr(tree8, generate_workload(tree8, 120, 3, 0.02, 0.02, seed=run))
    # z=4: pod 0's edge switches are 16 (hosts 0, 1) and 17 (hosts 2, 3), its
    # aggregation switches 24 and 25. Flows 0 and 1 leave both racks through 24
    # and fill its first dimension; flows 2 and 3 then leave through 25 and fill
    # its second. Both edge switches keep room for flows 4 and 5, which cross
    # racks inside pod 0, but neither aggregation switch does: no path.
    flows = (Flow(0, 0, 4, (0.475, 0.01)), Flow(1, 2, 8, (0.475, 0.01)),
             Flow(2, 0, 12, (0.1, 0.475)), Flow(3, 2, 14, (0.1, 0.475)),
             Flow(4, 0, 2, (0.1, 0.1)), Flow(5, 3, 1, (0.1, 0.1)))
    sol, _ = route_hgr(tree4, Workload(flows, 2, z=4))
    assert [sol.paths[f][2] for f in range(4)] == [24, 24, 25, 25]
    assert sol.unrouted == {4, 5}
    assert searches == []
