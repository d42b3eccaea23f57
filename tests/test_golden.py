"""Golden-output pin: sha256 of CLI artifacts that refactors must leave unchanged.

Covers a small ``greenroute experiment`` CSV, the ``route --out`` dump of
every algorithm on a light workload (most flows ride already-active nodes)
and on a near-saturation one (flows go unrouted, many nodes wake up), an HGR
dump whose layer counts sit strictly between 1 and the layer widths, the
path trace of a stream of online arrivals and departures, and the vector
bin packer's packings of seeded item families. A change that moves any
path, unrouted set, load or packing on these inputs changes a hash; a
change meant to alter such output updates the hashes and says why in
CHANGES.md.

``PYTHONPATH=src python tests/test_golden.py`` prints every artifact's
current digest as a ``GOLDEN`` entry, marking those that moved.
"""

import contextlib
import hashlib
import random
import sys
import tempfile
from pathlib import Path

import pytest

from greenroute import (
    ResidualState,
    build_fat_tree,
    generate_workload,
    online_arrival,
    online_departure,
    vbp_greedy,
)
from greenroute.cli import main

ALGOS = ("hgr", "mrg", "mrsp", "srg", "srsp")

WORKLOADS = {
    "light": ("--z", "8", "--flows", "120", "--dims", "3", "--seed", "11"),
    "heavy": ("--z", "4", "--flows", "60", "--dims", "3", "--mean", "0.15", "--std", "0.1",
              "--seed", "12"),
}

# HGR's L1 bounds here give the pods 3-4 of their z/2 = 4 aggregation switches
# and the core layer 12 of its 16, so the bounds decide the output (light
# layers need one switch; heavy ones cap at the layer's width)
MID_HGR = ("--z", "8", "--flows", "480", "--dims", "5", "--seed", "13")

EXPERIMENT = ("experiment", "--z", "4", "--dims", "3", "--flows", "10:40:15", "--trials", "3",
              "--mean", "0.1", "--std", "0.1", "--seed", "9")

GOLDEN = {
    "experiment.csv": "d9d8861f7e5ec07f439facb6d923b137ef9904d8851d131cf4491feb39a30f07",
    "light-hgr": "4843618e47bbd40456d88fd0b6bd5b72480be4e115adcecb50cda23f2317e300",
    "light-mrg": "ef361f7fb51c9c74b6a50290db99b78726f3f741abe16f757a227c791f2b77bd",
    "light-mrsp": "83ce2035c323744880ec499c74e6740a92a3ee3e78eb3b4bf166d69dac2aae10",
    "light-srg": "2372cda0ea5d0283234be3dfca54fe2dda3a48055f493eecf7c8f5dc6931617f",
    "light-srsp": "83ce2035c323744880ec499c74e6740a92a3ee3e78eb3b4bf166d69dac2aae10",
    "heavy-hgr": "cbc19a9d80b1d04159717b1819a66e17fa715d772cd6635033e04d6c338eb35a",
    "heavy-mrg": "02e122feef2104d7d7c91bb64d7fc47a4d2bc514e2ee3ae06cabd03affc1423b",
    "heavy-mrsp": "7ea4d97d00f39d8bbd9a0a8d4951d2d0634894913532bfd603b761806e2c8298",
    "heavy-srg": "214bce1f600a76c3bd31bbd9e18a4cf1564502136d344bb9006a644c8ebd7815",
    "heavy-srsp": "02a8ca65d724c4166aa14dad60e21e28d74b66b9f464cd874abb72bd7456f1f1",
    "mid-hgr": "1271147ff9d947efbed51d332ec54f5af4b8cb8dae512172c5afffcf36e9c9f3",
    "online-z8": "08748455bddb9f6ade85d8a9abc7b96ec5c87b6d42b62dc5114ce0542a4f7da2",
    "vbp": "ffee22a1ad245c0f51dbf114acd00da25d8e7e0fcc9059339bddf56a71d5f53b",
}


def _run(*argv: str) -> None:
    if main(list(argv)) != 0:
        raise AssertionError(f"greenroute {' '.join(argv)} failed")


def online_trace_digest() -> str:
    """sha256 of the trace of 600 online arrivals at z=8, with 120 flows live at most.

    Once 120 flows are live, a seeded random one departs before each
    arrival. About one arrival in seven is rejected, so both the
    active-subnetwork and the fallback routes run.
    """
    topology = build_fat_tree(8)
    workload = generate_workload(topology, 600, 3, 0.06, 0.06, seed=21)
    state = ResidualState.fresh(topology, 3)
    rng = random.Random(22)
    live = []
    trace = hashlib.sha256()
    for flow in workload.flows:
        if len(live) >= 120:
            gone, path = live.pop(rng.randrange(len(live)))
            online_departure(state, topology, gone, path)
            trace.update(f"d{gone.id};".encode())
        path = online_arrival(state, topology, flow)
        trace.update(f"a{flow.id}:{path};".encode())
        if path is not None:
            live.append((flow, path))
    return trace.hexdigest()


QUANTA = (0.1, 0.2, 0.25, 0.3, 0.5)


def _uniform_items(rng, n, dims):
    return [tuple(rng.uniform(0.001, 1.0) for _ in range(dims)) for _ in range(n)]


def _tied_items(rng, n, dims):
    return [tuple(rng.choice(QUANTA) for _ in range(dims)) for _ in range(n)]


def _duplicated_items(rng, n, dims):
    base = _uniform_items(rng, rng.randint(1, 4), dims)
    return [rng.choice(base) for _ in range(n)]


def _exact_fill_items(rng, n, dims):
    # groups of eighths that sum to exactly 1.0 in every dimension, so a bin
    # residual can equal an item and score 0
    items = []
    while len(items) < n:
        size = rng.randint(1, 4)
        columns = []
        for _ in range(dims):
            cuts = sorted(rng.sample(range(1, 8), size - 1))
            columns.append([(b - a) / 8 for a, b in zip([0] + cuts, cuts + [8])])
        items.extend(zip(*columns))
    rng.shuffle(items)
    return items[:n]


def vbp_digest() -> str:
    """sha256 of ``vbp_greedy``'s packings of 100 seeded instances per item family.

    Each instance has n log-uniform over 1..150 items of K in 1..6
    dimensions. The tied and exact-fill families make equal scores (won by
    the lowest index) and zero scores common. Bin counts, assignments and
    bin residuals are hashed, the residuals by ``repr``, so bit for bit.
    """
    digest = hashlib.sha256()
    for family in (_uniform_items, _tied_items, _duplicated_items, _exact_fill_items):
        rng = random.Random(family.__name__)
        for _ in range(100):
            n = int(150 ** rng.random())  # log-uniform over 1..150: mostly small, some large
            result = vbp_greedy(family(rng, n, rng.randint(1, 6)))
            digest.update(f"{result.bin_count};{sorted(result.assignment.items())};"
                          f"{result.bin_residuals!r};".encode())
    return digest.hexdigest()


def _route_digest(workdir, name: str, algo: str) -> str:
    out = workdir / f"{name}-{algo}.json"
    _run("route", "--algo", algo, "--workload", str(workdir / f"{name}.jsonl"), "--seed", "5",
         "--out", str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def golden_digests(workdir) -> dict[str, str]:
    """Produce every pinned artifact under ``workdir`` and return its sha256 by name."""
    digests = {}
    csv_path = workdir / "experiment.csv"
    _run(*EXPERIMENT, "--out", str(csv_path))
    digests["experiment.csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    for name, spec in {**WORKLOADS, "mid": MID_HGR}.items():
        _run("workload", *spec, "--out", str(workdir / f"{name}.jsonl"))
    for name in WORKLOADS:
        for algo in ALGOS:
            digests[f"{name}-{algo}"] = _route_digest(workdir, name, algo)
    digests["mid-hgr"] = _route_digest(workdir, "mid", "hgr")
    digests["online-z8"] = online_trace_digest()
    digests["vbp"] = vbp_digest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_output_matches_golden_hash(digests, artifact):
    assert digests[artifact] == GOLDEN[artifact]


def test_parallel_experiment_matches_golden_hash(tmp_path):
    csv_path = tmp_path / "experiment.csv"
    _run(*EXPERIMENT, "--jobs", "2", "--out", str(csv_path))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == GOLDEN["experiment.csv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        current = golden_digests(Path(tmp))
    for name, digest in sorted(current.items()):
        print(f'    "{name}": "{digest}",' + ("" if GOLDEN.get(name) == digest else "  # moved"))
