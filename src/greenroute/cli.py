"""Command-line entry point: topo, workload, route, experiment, oracle.

Exit codes: 0 success, 1 usage error, 2 input error. Every run echoes its
fully resolved configuration (defaults included) to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .evaluation import (
    ExperimentConfig,
    ROUTERS,
    compute_metrics,
    failure_report,
    oracle_min_active,
    oracle_min_bins,
    run_experiment,
    save_solution,
    write_results_csv,
)
from .hgr import route_hgr
from .topology import build_fat_tree, load_topology, save_topology
from .workload import generate_workload, load_workload, save_workload


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    pass


def _echo(args: argparse.Namespace) -> None:
    resolved = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func")
    print(f"[config] {resolved}", file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="greenroute", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("topo", help="build a fat-tree and print a summary")
    p.add_argument("--z", type=int, default=8, help="fat-tree arity (even)")
    p.add_argument("--out", default=None, help="optional topology dump path")
    p.set_defaults(func=_cmd_topo)

    p = sub.add_parser("workload", help="generate a random workload file")
    p.add_argument("--z", type=int, default=8)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--mean", type=float, default=0.02)
    p.add_argument("--std", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="workload.jsonl")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser("route", help="route a workload file and print metrics")
    p.add_argument("--algo", choices=sorted(ROUTERS), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional solution dump path")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("experiment", help="run a multi-trial sweep and write a CSV")
    p.add_argument("--z", type=int, default=8)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--flows", required=True, help="sweep as A:B:STEP (inclusive) or a single count")
    p.add_argument("--algos", default="mrg,hgr,srsp,srg,mrsp", help="comma-separated subset")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean", type=float, default=0.02)
    p.add_argument("--std", type=float, default=0.02)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--measure-runtime", action="store_true",
                   help="record wall-clock runtimes (breaks byte-identical reruns)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="exact optimum for a small instance")
    p.add_argument("--mode", choices=("eemr", "vbp"), required=True)
    p.add_argument("--input", required=True, help="workload file; demands are the items for vbp")
    p.add_argument("--topo", default=None,
                   help="topology dump for eemr mode (default: fat-tree from the workload header)")
    p.set_defaults(func=_cmd_oracle)
    return parser


def _load_workload(path: str):
    try:
        return load_workload(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _check_out(out: str) -> None:
    """Refuse an output path that cannot be written, before any routing rather than after it."""
    folder = Path(out).parent
    if not folder.is_dir():
        raise _InputError(f"cannot write {out}: no directory {folder}")
    if Path(out).is_dir():
        raise _InputError(f"cannot write {out}: it is a directory")


def _cmd_topo(args) -> int:
    topology = build_fat_tree(args.z)
    if args.out:
        save_topology(topology, args.out)
    n_hosts = len(topology.host_ids)
    n_procs = len(topology.processor_ids)
    print(f"{len(topology)} nodes ({n_hosts} hosts, {n_procs} processors)")
    return 0


def _cmd_workload(args) -> int:
    topology = build_fat_tree(args.z)
    workload = generate_workload(topology, args.flows, args.dims, args.mean, args.std, args.seed)
    save_workload(workload, args.out)
    print(f"wrote {len(workload.flows)} flows to {args.out}")
    return 0


def _cmd_route(args) -> int:
    workload = _load_workload(args.workload)
    if workload.z is None:
        raise _InputError(f"{args.workload}: header has no z; route needs a fat-tree workload")
    if args.out:
        _check_out(args.out)
    topology = build_fat_tree(workload.z)
    start = time.perf_counter()
    if args.algo == "hgr":
        solution, counts = route_hgr(topology, workload)
    else:
        solution, counts = ROUTERS[args.algo](topology, workload, args.seed), None
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if args.out:
        save_solution(solution, args.out, counts)
    m = compute_metrics(topology, solution, runtime_ms)
    print(f"algo={args.algo} routed={m.routed} incomplete={m.incomplete} "
          f"active={m.active_processors} total={m.total_processors} "
          f"saving_ratio={m.saving_ratio} congested={m.congested} "
          f"runtime_ms={m.runtime_ms:.3f}")
    return 0


def _parse_sweep(spec: str) -> tuple[int, ...]:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return (int(parts[0]),)
        if len(parts) == 3:
            lo, hi, step = (int(p) for p in parts)
            if step < 1 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1, step))
    except ValueError:
        pass
    raise _InputError(f"--flows must be an integer or A:B:STEP, got {spec!r}")


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        z=args.z,
        dims=args.dims,
        flow_counts=_parse_sweep(args.flows),
        algorithms=tuple(a.strip() for a in args.algos.split(",") if a.strip()),
        trials=args.trials,
        base_seed=args.seed,
        mean=args.mean,
        std=args.std,
        jobs=args.jobs,
        measure_runtime=args.measure_runtime,
    )
    _check_out(args.out)
    rows = run_experiment(config)
    for line in failure_report(rows):
        print(f"greenroute: {line}", file=sys.stderr)
    write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    workload = _load_workload(args.input)
    if args.mode == "vbp":
        opt = oracle_min_bins([f.demand for f in workload.flows])
    else:
        topology = _oracle_topology(args, workload)
        try:
            topology._check_hosts(workload.flows)
        except (KeyError, ValueError) as exc:
            raise _InputError(f"{args.input}: {exc.args[0]}") from exc
        opt = oracle_min_active(topology, workload)
    print("infeasible" if opt is None else opt)
    return 0


def _oracle_topology(args, workload):
    if args.topo:
        try:
            return load_topology(args.topo)
        except (OSError, ValueError) as exc:
            raise _InputError(f"cannot load topology {args.topo}: {exc}") from exc
    if workload.z is None:
        raise _InputError(f"{args.input}: header has no z and no --topo was given")
    return build_fat_tree(workload.z)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _echo(args)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"greenroute: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # invalid parameter values reaching library code are usage errors
        print(f"greenroute: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"greenroute: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
