"""Unit and integration tests for the two-round adaptive protocol."""

import random

import pytest

from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveReconciler,
    reconcile_adaptive,
)
from repro.core.config import ProtocolConfig
from repro.core.protocol import reconcile
from repro.emd.matching import emd
from repro.errors import ConfigError, SerializationError
from repro.iblt.hashing import HashFamily, TabulationHash
from repro.net.channel import SimulatedChannel


def clamp(value, delta):
    return max(0, min(delta - 1, value))


def perturbed_workload(rng, n, k, delta, dimension, noise):
    base = [
        tuple(rng.randrange(delta) for _ in range(dimension)) for _ in range(n)
    ]
    alice = list(base)
    bob = [
        tuple(clamp(c + rng.randrange(-noise, noise + 1), delta) for c in point)
        for point in base
    ]
    for _ in range(k // 2):
        alice.append(tuple(rng.randrange(delta) for _ in range(dimension)))
        bob.append(tuple(rng.randrange(delta) for _ in range(dimension)))
    return alice, bob


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        AdaptiveConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveConfig(level_stride=0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(headroom=0.5)
        with pytest.raises(ConfigError):
            AdaptiveConfig(estimator_key_bits=16)


class TestSampledLevels:
    def test_includes_finest_and_coarsest(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=4, seed=1)
        reconciler = AdaptiveReconciler(config)
        sampled = reconciler.sampled_levels()
        assert sampled[0] == 0
        assert sampled[-1] == config.max_level

    def test_stride_thins_levels(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=4, seed=1)
        wide = AdaptiveReconciler(config, AdaptiveConfig(level_stride=4))
        narrow = AdaptiveReconciler(config, AdaptiveConfig(level_stride=1))
        assert len(wide.sampled_levels()) < len(narrow.sampled_levels())


class TestEndToEnd:
    def test_two_rounds(self):
        config = ProtocolConfig(delta=2**14, dimension=2, k=4, seed=2)
        rng = random.Random(2)
        alice, bob = perturbed_workload(rng, 150, 4, 2**14, 2, noise=3)
        channel = SimulatedChannel()
        result = reconcile_adaptive(alice, bob, config, channel=channel)
        assert result.transcript.rounds == 2
        assert result.transcript.bob_to_alice_bits > 0
        assert result.transcript.alice_to_bob_bits > 0

    def test_size_invariant(self):
        config = ProtocolConfig(delta=2**14, dimension=2, k=4, seed=3)
        rng = random.Random(3)
        alice, bob = perturbed_workload(rng, 150, 4, 2**14, 2, noise=3)
        result = reconcile_adaptive(alice, bob, config)
        assert len(result.repaired) == len(alice)

    def test_emd_improves(self):
        config = ProtocolConfig(delta=2**14, dimension=2, k=4, seed=4)
        rng = random.Random(4)
        alice, bob = perturbed_workload(rng, 150, 4, 2**14, 2, noise=3)
        result = reconcile_adaptive(alice, bob, config)
        assert emd(alice, result.repaired) < emd(alice, bob)

    def test_identical_sets_decode_finest(self):
        config = ProtocolConfig(delta=2**10, dimension=2, k=2, seed=5)
        rng = random.Random(5)
        points = [(rng.randrange(2**10), rng.randrange(2**10)) for _ in range(100)]
        result = reconcile_adaptive(points, list(points), config)
        assert sorted(result.repaired) == sorted(points)

    def test_cheaper_than_one_round_at_large_k(self):
        """The adaptive variant's raison d'être: shedding the log-delta
        factor once k (and so the per-level IBLT size) is large."""
        config = ProtocolConfig(delta=2**20, dimension=2, k=32, seed=6)
        rng = random.Random(6)
        alice, bob = perturbed_workload(rng, 400, 32, 2**20, 2, noise=8)
        one_round = reconcile(alice, bob, config)
        adaptive = reconcile_adaptive(alice, bob, config)
        assert (
            adaptive.transcript.total_bits < one_round.transcript.total_bits / 2
        )

    def test_quality_comparable_to_one_round(self):
        config = ProtocolConfig(delta=2**16, dimension=2, k=8, seed=7)
        rng = random.Random(7)
        alice, bob = perturbed_workload(rng, 200, 8, 2**16, 2, noise=4)
        one_round = reconcile(alice, bob, config)
        adaptive = reconcile_adaptive(alice, bob, config)
        assert emd(alice, adaptive.repaired) <= 4 * emd(alice, one_round.repaired)


class TestWireSafety:
    def test_request_magic_checked(self):
        config = ProtocolConfig(delta=2**10, dimension=1, k=2, seed=8)
        reconciler = AdaptiveReconciler(config)
        request = bytearray(reconciler.bob_request([(5,)]))
        request[0] ^= 0xFF
        with pytest.raises(SerializationError):
            reconciler.alice_respond(bytes(request), [(5,)])

    def test_response_magic_checked(self):
        config = ProtocolConfig(delta=2**10, dimension=1, k=2, seed=9)
        reconciler = AdaptiveReconciler(config)
        request = reconciler.bob_request([(5,)])
        response = bytearray(reconciler.alice_respond(request, [(5,)]))
        response[0] ^= 0xFF
        with pytest.raises(SerializationError):
            reconciler.bob_finish(bytes(response), [(5,)])

    def test_truncated_request_rejected(self):
        config = ProtocolConfig(delta=2**10, dimension=1, k=2, seed=10)
        reconciler = AdaptiveReconciler(config)
        request = reconciler.bob_request([(5,)])
        with pytest.raises(SerializationError):
            reconciler.alice_respond(request[:-8], [(5,)])


class TestWindowSelection:
    def test_window_contains_fallback(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=2, seed=11)
        reconciler = AdaptiveReconciler(config)
        estimates = {level: 10**6 for level in reconciler.sampled_levels()}
        window = reconciler._choose_window(estimates)
        assert any(level == config.max_level for level, _ in window)

    def test_no_fallback_when_disabled(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=2, seed=12)
        reconciler = AdaptiveReconciler(
            config, AdaptiveConfig(include_fallback=False)
        )
        estimates = {level: 1 for level in reconciler.sampled_levels()}
        window = reconciler._choose_window(estimates)
        assert all(level != config.max_level for level, _ in window)

    def test_small_estimates_choose_fine_levels(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=4, seed=13)
        reconciler = AdaptiveReconciler(config)
        estimates = {level: 2 for level in reconciler.sampled_levels()}
        window = reconciler._choose_window(estimates)
        finest = min(level for level, _ in window)
        assert finest == 0

    def test_finer_levels_get_more_cells(self):
        config = ProtocolConfig(delta=2**12, dimension=1, k=4, seed=14)
        reconciler = AdaptiveReconciler(config)
        sampled = reconciler.sampled_levels()
        estimates = {level: (30 if level < 6 else 4) for level in sampled}
        window = sorted(reconciler._choose_window(estimates))
        non_fallback = [item for item in window if item[0] != config.max_level]
        if len(non_fallback) >= 2:
            cells = [cells for _, cells in non_fallback]
            assert cells == sorted(cells, reverse=True)


class TestPublicCoinsDrawnOnce:
    def test_warm_sync_builds_no_hash_objects(self, monkeypatch):
        # Hash families and tabulation tables depend only on the config, so
        # a second sync of the same config must reuse every one of them.
        rng = random.Random(21)
        alice, bob = perturbed_workload(rng, 200, 6, 2**12, 2, 2)
        config = ProtocolConfig(
            delta=2**12, dimension=2, k=8, seed=21, backend="auto"
        )
        reconcile_adaptive(alice, bob, config)  # the warm-up sync
        built = []
        for cls in (HashFamily, TabulationHash):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        result = reconcile_adaptive(alice, bob, config)
        assert built == []
        assert len(result.repaired) == len(alice)
        # The tripwire is live: a direct construction is counted.
        HashFamily(3, 12, 21)
        TabulationHash(21)
        assert built == ["HashFamily", "TabulationHash"]
