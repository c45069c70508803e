"""The benchmark's workloads and the seeded generation of their inputs.

Every workload has one Alice set and a fixed pool of Bob replicas.  A
replica is a fresh noise draw of Alice's shared points (uniform noise of
radius ``NOISE`` per coordinate) plus ``TRUE_K`` points of its own, so
each sync has a true difference of ``TRUE_K`` points per side on top of
the noise.  Everything is drawn from the workload seed; the program only
ever sees the generated points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler

DELTA = 1 << 16
K = 16
TRUE_K = 8
NOISE = 2
REPLICAS = 12
#: Closed-loop client connections: one per CPU of the 2-CPU reference box.
CONNECTIONS = 2
#: Points per store write, both the pre-logged WAL batches and each ingest.
BATCH_POINTS = 1_000
PRELOGGED_BATCHES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dimension: int
    backend: str
    variants: tuple[str, ...]
    why: str
    shards: int = 1
    store: bool = False
    #: Server starts per untraced run (``setup_s`` is their median): many
    #: where a start is cheap, few where it replays a WAL at n=1e5.
    setups: int = 7


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "small-mixed", 400, 2, "numpy", ("one-round", "adaptive", "rateless"),
            "per-sync fixed costs dominate: handshake, framing, session "
            "machines and adaptive's hash construction; grid and IBLT work "
            "is small",
        ),
        Workload(
            "highdim", 400, 64, "auto", ("one-round", "adaptive", "rateless"),
            "the paper's dimension claim at d=64: 1,108-bit keys force the "
            "pure backend, the big-int codec and bit I/O, and large frames",
        ),
        Workload(
            "store-ingest", 100_000, 2, "auto", ("one-round", "sharded"),
            "a restarted store-backed server at n=1e5 taking fsynced writes "
            "between syncs: WAL replay, ingest, and grid, IBLT and peel at "
            "large n",
            shards=4, store=True, setups=3,
        ),
    )
}


def _stream(*words: int) -> np.random.Generator:
    return np.random.default_rng(list(words))


def _workload_id(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


def _as_points(array: np.ndarray) -> list[tuple[int, ...]]:
    return list(map(tuple, array.tolist()))


@dataclass
class Inputs:
    """One workload's generated inputs for one seed."""

    workload: Workload
    seed: int
    #: Alice's points before any write: shared points plus her own.
    base: list
    #: Writes already in the store's WAL when the benchmark restarts it.
    prelogged: list
    replicas: list

    @property
    def alice(self) -> list:
        """Alice's points at set-up (the base plus the pre-logged writes)."""
        return self.base + self.prelogged

    def config(self) -> ProtocolConfig:
        w = self.workload
        return ProtocolConfig(
            delta=DELTA, dimension=w.dimension, k=K, seed=self.seed,
            backend=w.backend, shards=w.shards,
        )

    def ingest_batch(self, index: int) -> list:
        """The ``index``-th write of the run: fresh points for both sides."""
        rng = _stream(_workload_id(self.workload.name), self.seed, 1, index)
        return _as_points(
            rng.integers(0, DELTA, size=(BATCH_POINTS, self.workload.dimension))
        )

    def bob(self, replica: int, ingested: list) -> list:
        """Bob's points: a replica plus every write so far, verbatim."""
        return self.replicas[replica] + self.prelogged + ingested

    def digest(self) -> str:
        """A hash of every generated point (determinism self-test)."""
        h = hashlib.sha256()
        for block in (self.base, self.prelogged, *self.replicas):
            h.update(repr(block).encode())
        return h.hexdigest()


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Draw a workload's inputs from ``seed`` (same seed, same points)."""
    rng = _stream(_workload_id(workload.name), seed)
    d = workload.dimension
    shared = rng.integers(0, DELTA, size=(workload.n, d))
    base = _as_points(shared) + _as_points(
        rng.integers(0, DELTA, size=(TRUE_K, d))
    )
    prelogged = []
    if workload.store:
        prelogged = _as_points(
            rng.integers(0, DELTA, size=(PRELOGGED_BATCHES * BATCH_POINTS, d))
        )
    replicas = []
    for _ in range(REPLICAS):
        noisy = np.clip(
            shared + rng.integers(-NOISE, NOISE + 1, size=shared.shape),
            0, DELTA - 1,
        )
        replicas.append(
            _as_points(noisy)
            + _as_points(rng.integers(0, DELTA, size=(TRUE_K, d)))
        )
    return Inputs(workload, seed, base, prelogged, replicas)


def resolved_backend(inputs: Inputs) -> str:
    """The IBLT backend a workload's config resolves to on this machine."""
    config = inputs.config()
    reconciler = HierarchicalReconciler(config)
    table = reconciler.level_table(inputs.base[:1], config.sketch_levels[0])
    return table.backend_name
