"""Golden-output pin: sha256 of CLI artifacts that refactors must leave unchanged.

Covers a small ``greenroute experiment`` CSV, the ``route --out`` dump of
every algorithm on a light workload (most flows ride already-active nodes)
and on a near-saturation one (flows go unrouted, many nodes wake up), an HGR
dump whose layer counts sit strictly between 1 and the layer widths, the
path trace of a stream of online arrivals and departures, and the vector
bin packer's packings of seeded item families. A change that moves any
path, unrouted set, load or packing on these inputs changes a hash; a
change meant to alter such output updates the hashes and says why in
CHANGES.md. Each route dump is also pinned with its loads left out (the
``-routing`` entries), so a change that moves only loads shows as such.

``PYTHONPATH=src python tests/test_golden.py`` prints every artifact's
current digest as a ``GOLDEN`` entry, marking those that moved.
"""

import contextlib
import hashlib
import json
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
    "light-hgr": "beb52964965978944f62d2fdbbda58e60e8a6e4b727e7fc8233508364e42ec52",
    "light-mrg": "58fa8f44bc9d78305f7ee90e086074143c49f06ebf86915be58cf739e424c43e",
    "light-mrsp": "84d7afe962b8e0cc5bd80480ed66241b1d0028c8de0764c5f1780cb506b4f0d7",
    "light-srg": "bc8e589baea191c339f70e41d924f14fb5608c9833ef10112f9d662aca635133",
    "light-srsp": "84d7afe962b8e0cc5bd80480ed66241b1d0028c8de0764c5f1780cb506b4f0d7",
    "heavy-hgr": "b96478bf3959277976e34ccafed0916c8744037a3dd91278e57ee39e83113798",
    "heavy-mrg": "f7b5a67a6d706f8fe057e9cae09649d55db0e39f65c8b4a030e6495a050bc9a5",
    "heavy-mrsp": "d9e1e99fe16ecb61714b93db69cd4ef4bed287305b4fa0f9ccd71408c065fe3e",
    "heavy-srg": "32254f62c8c4910bbe07b5c7c6c6f1acc19c86c573e090aa98e827180d07a7ca",
    "heavy-srsp": "f97a3e6f1b154850ba32667042ec40572bdb35ba0dc7b14ecd4a31b65e64b906",
    "mid-hgr": "84e690858f4468c05da9aee7d816c28ece067f7393159d3472a18069170ed6c9",
    "online-z8": "08748455bddb9f6ade85d8a9abc7b96ec5c87b6d42b62dc5114ce0542a4f7da2",
    "vbp": "516da79a9cf80113f01315ae9a0c64a4f0842d5e2d94df759e2b0740db30ff76",
    # the route dumps without their loads
    "light-hgr-routing": "38c4076a129df83ecd3ab1b75bacad199314b464b4d57b355fa6fe56aad1a43b",
    "light-mrg-routing": "9e15c6a190fec8520a300395a34bfafa937c58703fbf42546209d493665652ad",
    "light-mrsp-routing": "9ef441897f68313ff416f8a6d14635d770bd1481aee64267546006fb88bff1c7",
    "light-srg-routing": "18b3436b09decb89aad955b15c533ac336821a1d93ef7886e6ef2a8d0ffe0176",
    "light-srsp-routing": "9ef441897f68313ff416f8a6d14635d770bd1481aee64267546006fb88bff1c7",
    "heavy-hgr-routing": "3c3aeccd32c8ef12dddb91921787547b19224a59dd445509695ec35319550817",
    "heavy-mrg-routing": "7906760c5dc97118b1de2a81df4d31678e412a2e47f58b3f24a005a138db6eea",
    "heavy-mrsp-routing": "e2c308f874f5570b88606e85b466ae99997ac9d4eb2b01f76d5cd7ae964478c8",
    "heavy-srg-routing": "d73c68ae06a3794bb02115f11351fe9fdd029b74c7f778a80354c54294a9c1a0",
    "heavy-srsp-routing": "efbfbef653fbf7a717f5de4df0cd400072af061f6ac60bb9f2bdbca2bf44d6b4",
    "mid-hgr-routing": "0a78e11d41f9f301957008894e6b7c9b17f5e1cf1cc778f810817da26ed75e72",
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


def _route_digests(workdir, name: str, algo: str) -> dict[str, str]:
    """sha256 of the ``route --out`` dump, and of its routing entries alone (``load`` dropped)."""
    out = workdir / f"{name}-{algo}.json"
    _run("route", "--algo", algo, "--workload", str(workdir / f"{name}.jsonl"), "--seed", "5",
         "--out", str(out))
    dump = out.read_bytes()
    routing = {key: value for key, value in json.loads(dump).items() if key != "load"}
    return {f"{name}-{algo}": hashlib.sha256(dump).hexdigest(),
            f"{name}-{algo}-routing": hashlib.sha256(json.dumps(routing, sort_keys=True).encode()).hexdigest()}


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
            digests.update(_route_digests(workdir, name, algo))
    digests.update(_route_digests(workdir, "mid", "hgr"))
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
