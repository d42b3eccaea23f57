"""Flow demand generation, storage, and loading.

Demands follow the evaluation protocol: endpoints drawn uniformly at random
from the hosts (dst redrawn on collision with src), each demand component
drawn per dimension from a normal law and rejection-resampled until it lands
in (0, 1]. Generation is seeded and fully deterministic. A :class:`Flow`
rounds each component once to the nearest multiple of 2**-40 (:func:`on_grid`):
sums of such numbers below 2**13 are exact in binary64 (Goldberg, 1991), so
loads do not depend on the order flows commit in.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .topology import Topology, _json_int

_MAX_RESAMPLES = 100_000


class ParseError(ValueError):
    """A workload file line that cannot be parsed or fails validation."""


def _json_number(value, name: str) -> float:
    """``value`` as a float if it is a JSON number within a float's range, else ValueError."""
    if type(value) in (int, float):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def on_grid(vec) -> tuple[float, ...]:
    """``vec`` with each component in (0, 4096) rounded to the nearest multiple of 2**-40, ties to even.

    One that would round to 0 becomes 2**-40. Binary64 numbers in [2**12, 2**13)
    are 2**-40 apart, so adding 4096 rounds to the grid and subtracting it is
    exact. Components >= 4096 are on the grid; others are left for the caller to refuse.
    """
    return tuple([((c + 4096.0) - 4096.0) or 2.0**-40 if 0.0 < c < 4096.0 else c for c in vec])


@dataclass(frozen=True)
class Flow:
    """One flow: endpoints plus a per-dimension resource demand vector.

    Components are finite and strictly positive; the generator keeps them
    <= 1 (normalized node capacity) but hand-built instances may exceed
    that, e.g. to probe infeasibility. The stored demand is the given one after :func:`on_grid`.
    """

    id: int
    src: int
    dst: int
    demand: tuple[float, ...]

    def __post_init__(self):
        if type(self.id) is not int:  # a bool is not an id
            raise ValueError(f"flow id must be an int, got {self.id!r}")
        if type(self.src) is not int or type(self.dst) is not int:  # nor a node id
            raise ValueError(f"flow {self.id}: src and dst must be int node ids")
        if self.src == self.dst:
            raise ValueError(f"flow {self.id}: src and dst must differ")
        if not self.demand:
            raise ValueError(f"flow {self.id}: empty demand vector")
        if not all(type(c) is not bool and 0 < c < math.inf for c in self.demand):  # also rejects NaN
            raise ValueError(f"flow {self.id}: demand components must be finite and strictly positive")
        object.__setattr__(self, "demand", on_grid(self.demand))


@dataclass(frozen=True)
class Workload:
    """An ordered set of flows sharing one dimension count, plus generation metadata."""

    flows: tuple[Flow, ...]
    dims: int
    z: int | None = None
    seed: int | None = None
    mean: float | None = None
    std: float | None = None

    def __post_init__(self):
        if type(self.dims) is not int:  # a bool is not a count
            raise ValueError(f"dims must be an int, got {self.dims!r}")
        for i, flow in enumerate(self.flows):
            if flow.id != i:
                raise ValueError(f"flow ids must be dense from 0, got id {flow.id} at index {i}")
            if len(flow.demand) != self.dims:
                raise ValueError(f"flow {flow.id}: expected {self.dims} demand components, got {len(flow.demand)}")


def _draw_component(rng: random.Random, mean: float, std: float) -> float:
    for _ in range(_MAX_RESAMPLES):
        x = rng.gauss(mean, std)
        if 0.0 < x <= 1.0:
            return x
    raise ValueError(f"rejection sampling with mean={mean}, std={std} did not converge")


def generate_workload(
    topology: Topology,
    flow_count: int,
    dims: int,
    mean: float = 0.02,
    std: float = 0.02,
    seed: int = 0,
) -> Workload:
    """Generate ``flow_count`` seeded random flows on ``topology``.

    Endpoints are uniform over hosts with src != dst; every demand component
    is an independent truncated-normal draw in (0, 1]. Identical arguments
    produce bit-identical workloads.
    """
    if type(flow_count) is not int or flow_count < 1:  # a bool or float is not a count
        raise ValueError(f"flow_count must be an integer >= 1, got {flow_count!r}")
    if type(dims) is not int or dims < 1:
        raise ValueError(f"dims must be an integer >= 1, got {dims!r}")
    if not 0 < mean < math.inf:  # also rejects NaN, which the sampler would never accept
        raise ValueError(f"mean must be finite and > 0, got {mean}")
    if not 0 <= std < math.inf:
        raise ValueError(f"std must be finite and >= 0, got {std}")
    hosts = topology.host_ids
    if len(hosts) < 2:
        raise ValueError("topology must have at least 2 hosts")
    rng = random.Random(seed)
    flows = []
    for fid in range(flow_count):
        src = hosts[rng.randrange(len(hosts))]
        dst = src
        while dst == src:
            dst = hosts[rng.randrange(len(hosts))]
        demand = tuple(_draw_component(rng, mean, std) for _ in range(dims))
        flows.append(Flow(fid, src, dst, demand))
    return Workload(tuple(flows), dims, z=topology.z, seed=seed, mean=mean, std=std)


# -- file format ---------------------------------------------------------------
# JSON lines. First line is a header {"K":, "z":, "seed":, "mean":, "std":},
# then one record {"id":, "src":, "dst":, "demand": [...]} per flow, in order.
# Floats are written at full precision, and on_grid keeps them, so load(save(w)) == w exactly.

def save_workload(workload: Workload, path: str | Path) -> None:
    lines = [json.dumps({
        "K": workload.dims,
        "z": workload.z,
        "seed": workload.seed,
        "mean": workload.mean,
        "std": workload.std,
    })]
    for flow in workload.flows:
        lines.append(json.dumps({
            "id": flow.id,
            "src": flow.src,
            "dst": flow.dst,
            "demand": list(flow.demand),
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_workload(path: str | Path) -> Workload:
    raw_lines = Path(path).read_text().splitlines()
    lines = [(i + 1, line) for i, line in enumerate(raw_lines) if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header line")

    def fail(lineno: int, msg: str) -> ParseError:
        return ParseError(f"{path}, line {lineno}: {msg}")

    lineno, header_text = lines[0]
    try:
        header = json.loads(header_text)
        dims = _json_int(header["K"], "K")
        z = header["z"]
        seed = header.get("seed")
        if seed is not None:
            _json_int(seed, "seed")
        mean, std = (None if header.get(key) is None else _json_number(header[key], key)
                     for key in ("mean", "std"))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise fail(lineno, f"malformed header: {exc}") from None
    if dims < 1:
        raise fail(lineno, f"header K must be >= 1, got {dims}")
    # z must be a fat-tree arity, or build_fat_tree fails later on it
    if z is not None and not (type(z) is int and z >= 2 and z % 2 == 0):
        raise fail(lineno, f"header z must be null or an even integer >= 2, got {z!r}")
    n_hosts = None if z is None else z**3 // 4

    flows = []
    for lineno, text in lines[1:]:
        try:
            rec = json.loads(text)
            fid, src, dst = (_json_int(rec[key], key) for key in ("id", "src", "dst"))
            demand = tuple(_json_number(c, "demand component") for c in rec["demand"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise fail(lineno, f"malformed flow record: {exc}") from None
        if fid != len(flows):
            raise fail(lineno, f"flow ids must be dense from 0, got {fid}")
        if len(demand) != dims:
            raise fail(lineno, f"expected {dims} demand components, got {len(demand)}")
        if n_hosts is not None and not (0 <= src < n_hosts and 0 <= dst < n_hosts):
            raise fail(lineno, f"unknown host id in ({src}, {dst}) for z={z}")
        try:
            flows.append(Flow(fid, src, dst, demand))
        except ValueError as exc:
            raise fail(lineno, str(exc)) from None
    return Workload(tuple(flows), dims, z=z, seed=seed, mean=mean, std=std)
