"""Differential tests: the vectorized paths against the reference.

``backend="numpy"`` runs the fast path (one key pass per sync, surplus-cell
repair planning); ``backend="pure"`` runs the pure-Python reference path.
Both must produce the same payload bytes, the same probe order and level,
the same edit script and the same repaired list, in order.  The adaptive
variant is also checked against a run with numpy hidden altogether.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.adaptive import AdaptiveReconciler
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


def _workload(kind: str, noise: float, dimension: int = 2):
    if kind == "uniform":
        return perturbed_pair(SEED, N, 1 << 10, dimension, TRUE_K, noise)
    if kind == "clustered":
        return clustered_pair(SEED, N, 1 << 10, dimension, TRUE_K, noise)
    # duplicate-heavy: at d=2, 300 points on a 16 x 16 grid share cells at
    # every level.
    return perturbed_pair(SEED, N, 16, dimension, TRUE_K, noise)


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


# ------------------------------------------------------------------ adaptive

ADAPTIVE_CASES = [
    (kind, noise, dimension)
    for kind in ("uniform", "clustered", "duplicate-heavy")
    for noise in (0, 2)
    for dimension in (2, 64)
]

#: Runs every adaptive case in a child interpreter whose ``import numpy``
#: fails, and prints the results as JSON.
_HIDDEN_NUMPY_RUN = """
import json, sys
from repro.core.adaptive import AdaptiveReconciler
from repro.core.config import ProtocolConfig
from repro.iblt.backends import available_backends
from repro.workloads import clustered_pair, perturbed_pair

assert available_backends() == ["pure"], available_backends()
N, K, TRUE_K, SEED = {n}, {k}, {true_k}, {seed}
out = []
for kind, noise, dimension in {cases!r}:
    if kind == "uniform":
        w = perturbed_pair(SEED, N, 1 << 10, dimension, TRUE_K, noise)
    elif kind == "clustered":
        w = clustered_pair(SEED, N, 1 << 10, dimension, TRUE_K, noise)
    else:
        w = perturbed_pair(SEED, N, 16, dimension, TRUE_K, noise)
    config = ProtocolConfig(delta=w.delta, dimension=w.dimension, k=K,
                            seed=SEED, backend="auto")
    reconciler = AdaptiveReconciler(config)
    request = reconciler.bob_request(w.bob)
    response = reconciler.alice_respond(request, w.alice)
    result = reconciler.bob_finish(response, w.bob)
    out.append([request.hex(), response.hex(), result.repaired])
json.dump(out, sys.stdout)
"""


def _adaptive_run(workload, backend: str):
    """Request bytes, response bytes and repaired list of one adaptive run."""
    reconciler = AdaptiveReconciler(_config(workload, backend))
    request = reconciler.bob_request(workload.bob)
    response = reconciler.alice_respond(request, workload.alice)
    result = reconciler.bob_finish(response, workload.bob)
    return request.hex(), response.hex(), result.repaired


@pytest.fixture(scope="module")
def hidden_numpy_runs(tmp_path_factory):
    stub = tmp_path_factory.mktemp("hidden-numpy")
    (stub / "numpy.py").write_text('raise ImportError("numpy hidden")\n')
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub), str(src)]))
    script = _HIDDEN_NUMPY_RUN.format(
        n=N, k=K, true_k=TRUE_K, seed=SEED, cases=ADAPTIVE_CASES
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    runs = json.loads(completed.stdout)
    return {
        case: (request, response, [tuple(point) for point in repaired])
        for case, (request, response, repaired) in zip(ADAPTIVE_CASES, runs)
    }


@pytest.mark.parametrize("kind,noise,dimension", ADAPTIVE_CASES)
def test_adaptive_bytes_equal_across_backends(
    kind, noise, dimension, hidden_numpy_runs
):
    """numpy (``auto`` at d=64, whose level keys are too wide for the numpy
    backend; its 40-bit estimator tables still run there), pure, and numpy
    hidden: the same request, response and repaired list."""
    workload = _workload(kind, noise, dimension)
    fast_backend = "numpy" if dimension == 2 else "auto"
    fast = _adaptive_run(workload, fast_backend)
    assert _adaptive_run(workload, "pure") == fast
    assert hidden_numpy_runs[(kind, noise, dimension)] == fast
    if dimension == 2:
        reconciler = AdaptiveReconciler(_config(workload, "numpy"))
        levels = reconciler.sampled_levels()
        assert reconciler.grid.vectorized("numpy", levels)
        assert not reconciler.grid.vectorized("pure", levels)


def test_warm_alice_state_answers_with_the_same_bytes():
    workload = _workload("clustered", 2)
    config = _config(workload, "numpy")
    request, response, _ = _adaptive_run(workload, "numpy")
    warmed = AdaptiveReconciler(config, reuse_alice_state=True)
    warmed.warm_alice(workload.alice)
    for _ in range(2):  # estimators from warm_alice, then the window cache
        answer = warmed.alice_respond(bytes.fromhex(request), workload.alice)
        assert answer.hex() == response
