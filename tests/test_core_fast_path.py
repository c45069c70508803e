"""Differential tests: the vectorized one-round path against the reference.

``backend="numpy"`` runs the fast path (one key pass per sync, surplus-cell
repair planning); ``backend="pure"`` runs the pure-Python reference path.
Both must produce the same payload bytes, the same probe order and level,
the same edit script and the same repaired list, in order.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import HierarchicalReconciler, reconcile
from repro.core.sketch import HierarchySketch, build_level_sketches
from repro.errors import ConfigError, ReconciliationFailure
from repro.scale import ShardedReconciler, reconcile_sharded
from repro.workloads import clustered_pair, perturbed_pair

try:
    import numpy  # noqa: F401
except ImportError:  # pragma: no cover - the no-numpy CI leg
    pytest.skip("numpy unavailable: no fast path to compare", allow_module_level=True)

N = 300
K = 8
TRUE_K = 4
SEED = 11


def _workload(kind: str, noise: float):
    if kind == "uniform":
        return perturbed_pair(SEED, N, 1 << 10, 2, TRUE_K, noise)
    if kind == "clustered":
        return clustered_pair(SEED, N, 1 << 10, 2, TRUE_K, noise)
    # duplicate-heavy: 300 points on a 16 x 16 grid share cells at every level.
    return perturbed_pair(SEED, N, 16, 2, TRUE_K, noise)


def _config(workload, backend: str, **overrides) -> ProtocolConfig:
    return ProtocolConfig(
        delta=workload.delta, dimension=workload.dimension, k=K, seed=SEED,
        backend=backend, **overrides,
    )


def _reconcilers(workload):
    fast = HierarchicalReconciler(_config(workload, "numpy"))
    reference = HierarchicalReconciler(_config(workload, "pure"))
    levels = fast.config.sketch_levels
    assert fast.grid.vectorized(fast.config.backend, levels)
    assert not reference.grid.vectorized(reference.config.backend, levels)
    return fast, reference


@pytest.mark.parametrize("kind", ["uniform", "clustered", "duplicate-heavy"])
@pytest.mark.parametrize("noise", [0, 2])
@pytest.mark.parametrize("strategy", ["occurrence", "centroid"])
@pytest.mark.parametrize("probe", ["binary", "linear"])
def test_fast_path_matches_reference(kind, noise, strategy, probe):
    workload = _workload(kind, noise)
    fast, reference = _reconcilers(workload)
    payload = reference.encode(workload.alice)
    assert fast.encode(workload.alice) == payload
    expected = reference.decode_and_repair(payload, workload.bob, strategy, probe)
    result = fast.decode_and_repair(payload, workload.bob, strategy, probe)
    assert result.level == expected.level
    assert result.levels_probed == expected.levels_probed
    assert result.plan == expected.plan
    assert result.repaired == expected.repaired
    assert (result.alice_surplus, result.bob_surplus) == (
        expected.alice_surplus, expected.bob_surplus,
    )


@pytest.mark.parametrize("kind", ["uniform", "duplicate-heavy"])
def test_sharded_fast_path_matches_reference(kind):
    workload = _workload(kind, 2)
    with ShardedReconciler(_config(workload, "numpy", shards=3)) as fast, \
            ShardedReconciler(_config(workload, "pure", shards=3)) as reference:
        payload = reference.encode(workload.alice)
        assert fast.encode(workload.alice) == payload
        expected = reference.decode_and_repair(payload, workload.bob)
        result = fast.decode_and_repair(payload, workload.bob)
    assert result.levels_probed == expected.levels_probed
    assert result.plans == expected.plans
    assert result.repaired == expected.repaired


def _corrupt_payload(reconciler, bob, key):
    """A sketch whose only level-0 difference is one Bob-surplus ``key``.

    Alice's tables are Bob's own, with ``key`` deleted at level 0 and the
    header count one lower, so level 0 peels, balances and names ``key``.
    """
    config, grid = reconciler.config, reconciler.grid
    levels = build_level_sketches(config, grid, bob)
    assert levels[0].level == 0
    levels[0].table.delete(key)
    return HierarchySketch(n_points=len(bob) - 1, levels=levels).to_bytes()


@pytest.mark.parametrize("defect", ["empty-cell", "occurrence-past-bucket"])
def test_corrupt_bob_surplus_key_fails_on_both_paths(defect):
    workload = _workload("uniform", 0)
    fast, reference = _reconcilers(workload)
    grid = fast.grid
    bob = workload.bob
    if defect == "empty-cell":
        held = set(bob)
        empty = next(
            (x, y) for x in range(workload.delta) for y in range(workload.delta)
            if (x, y) not in held
        )
        key = grid.pack_key(grid.cell(empty, 0), 0, 0)
        message = "names empty cell"
    else:
        cell = grid.cell(bob[0], 0)
        held = sum(1 for point in bob if grid.cell(point, 0) == cell)
        key = grid.pack_key(cell, held + 2, 0)
        message = "exceeds Bob's"
    payload = _corrupt_payload(reference, bob, key)
    for reconciler in (fast, reference):
        with pytest.raises(ReconciliationFailure, match=message):
            reconciler.decode_and_repair(payload, bob)


def test_unknown_strategy_is_a_config_error_on_both_drivers():
    workload = _workload("uniform", 0)
    with pytest.raises(ConfigError):
        reconcile(workload.alice, workload.bob, _config(workload, "numpy"),
                  strategy="nonsense")
    with pytest.raises(ConfigError):
        reconcile_sharded(workload.alice, workload.bob,
                          _config(workload, "numpy", shards=2),
                          strategy="nonsense")
