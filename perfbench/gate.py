"""Correctness gate and repair quality.

Every TCP sync is compared with a simulated run of the same variant on
the same inputs (``reconcile``, ``reconcile_adaptive``,
``reconcile_rateless`` or ``reconcile_sharded``): the repaired multisets
must be equal.  On ``store-ingest`` the server's payload after each
ingest must also equal a from-scratch encode of the acknowledged points.

Quality is the paper's guarantee: for each replica and variant,
``emd(S_A, S'_B) / predicted_emd_bound(emd_k(S_A, S_B), k, d)``; a ratio
above 1 means the bound broke.
"""

from __future__ import annotations

import multiprocessing

from repro import (
    emd,
    emd_k,
    reconcile,
    reconcile_adaptive,
    reconcile_rateless,
    reconcile_sharded,
)
from repro.core.bounds import predicted_emd_bound
from repro.net.channel import SimulatedChannel

from perfbench.serving import repaired_digest
from perfbench.workloads import K

SIMULATED = {
    "one-round": reconcile,
    "adaptive": reconcile_adaptive,
    "rateless": reconcile_rateless,
    "sharded": reconcile_sharded,
}
#: Variants whose first message is Alice's whole payload.
ONE_WAY = ("one-round", "sharded")


def _ingested(inputs, cycle) -> list:
    """The points written to the store by the end of ``cycle``."""
    points: list = []
    for index in range(0 if cycle is None else cycle + 1):
        points.extend(inputs.ingest_batch(index))
    return points


def simulate(inputs, variant: str, replica: int, cycle):
    """One simulated run: Bob's repaired multiset (sorted, or only its
    fingerprint on the store workload, n=1e5 per set) and Alice's payload
    for the one-way variants."""
    ingested = _ingested(inputs, cycle)
    channel = SimulatedChannel()
    result = SIMULATED[variant](
        inputs.alice + ingested, inputs.bob(replica, ingested),
        inputs.config(), channel=channel,
    )
    repaired = (
        repaired_digest(result.repaired) if inputs.workload.store
        else sorted(result.repaired)
    )
    payload = channel.messages[0].payload if variant in ONE_WAY else None
    return repaired, payload


_WORKER_INPUTS = None


def _init_worker(inputs) -> None:
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs


def _simulate_key(key):
    return key, simulate(_WORKER_INPUTS, *key)


class References:
    """Simulated runs, each computed once and shared by every sync on the
    same inputs (a run repeats each (variant, replica) pair many times)."""

    def __init__(self, inputs):
        self.inputs = inputs
        self._repaired: dict[tuple, object] = {}
        self._payloads: dict[tuple, bytes] = {}

    @staticmethod
    def key(variant: str, replica: int, cycle) -> tuple:
        # Cycle -1 (before any write) and None (no store) mean no writes.
        return variant, replica, None if cycle is None or cycle < 0 else cycle

    def _keep(self, key, repaired, payload) -> None:
        self._repaired[key] = repaired
        if payload is not None:
            self._payloads[(key[0], key[2])] = payload

    def prefetch(self, keys, workers: int = 2) -> None:
        """Compute the missing simulated runs in forked worker processes."""
        todo = sorted(
            {k for k in keys if k not in self._repaired},
            key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2]),
        )
        if not todo:
            return
        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(workers, _init_worker, (self.inputs,))
        try:
            for key, (repaired, payload) in pool.imap_unordered(
                _simulate_key, todo
            ):
                self._keep(key, repaired, payload)
        finally:
            pool.close()
            pool.join()

    def repaired(self, variant: str, replica: int, cycle=None):
        """Bob's repaired multiset from a simulated run (see simulate)."""
        key = self.key(variant, replica, cycle)
        if key not in self._repaired:
            self._keep(key, *simulate(self.inputs, *key))
        return self._repaired[key]

    def matches(self, record) -> bool:
        """True when a TCP sync repaired exactly what the simulation did."""
        if record.error:
            return False
        expected = self.repaired(record.variant, record.replica, record.cycle)
        if not isinstance(expected, bytes):
            expected = repaired_digest(expected)
        return record.digest == expected

    def payload_mismatches(self, payloads: dict) -> list[str]:
        """Cycles whose served payload differs from a from-scratch encode
        of the acknowledged points: Alice's message in the simulated run
        of the same cycle."""
        bad = []
        for cycle, served in sorted(payloads.items()):
            for variant, payload in served.items():
                if (variant, cycle) not in self._payloads:
                    self.repaired(variant, 0, cycle)
                if payload != self._payloads[(variant, cycle)]:
                    bad.append(f"cycle {cycle} {variant}")
        return bad


def quality(inputs, references: References) -> dict[tuple[int, str], float]:
    """``emd / predicted bound`` per (replica, variant)."""
    d = inputs.workload.dimension
    ratios = {}
    for replica, bob in enumerate(inputs.replicas):
        bound = predicted_emd_bound(emd_k(inputs.alice, bob, K), K, d)
        for variant in inputs.workload.variants:
            repaired = references.repaired(variant, replica)
            distance = emd(inputs.alice, repaired)
            ratios[(replica, variant)] = (
                distance / bound if bound else float(distance > 0)
            )
    return ratios
