"""Energy-aware multi-resource flow routing on fat-tree data center networks.

A library plus CLI for routing K-dimensional flow demands so that per-node
loads stay within capacity while as few packet processors as possible carry
traffic: a greedy multi-resource router, a hierarchical heuristic sized by
vector-packing bounds, the paper's vector bin packer, shortest-path and
single-resource baselines, exact small-instance oracles, and a seeded
experiment harness.
"""

from .baselines import route_mrsp, route_srg, route_srsp
from .evaluation import (
    ExperimentConfig,
    Metrics,
    ResultRow,
    cell_seed,
    compute_metrics,
    oracle_min_active,
    oracle_min_bins,
    run_experiment,
    save_solution,
    write_results_csv,
)
from .hgr import LayerCounts, VbpResult, dimension_weights, route_hgr, vbp_greedy
from .mrg import (
    CAP_TOL,
    ResidualState,
    RoutingSolution,
    assign_node_weights,
    inv_count,
    is_connected,
    node_to_link_weights,
    online_arrival,
    online_departure,
    route_mrg,
    shortest_path,
)
from .topology import (
    Node,
    NodeKind,
    StarReduction,
    Topology,
    build_fat_tree,
    build_star_reduction,
    load_topology,
    save_topology,
)
from .workload import Flow, ParseError, Workload, generate_workload, load_workload, save_workload

__version__ = "0.1.0"
