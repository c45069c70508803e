"""Property-based tests for IBLT algebra and peeling."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.iblt.decode import decode
from repro.iblt.table import IBLT, IBLTConfig, recommended_cells

keys_strategy = st.sets(st.integers(min_value=0, max_value=2**60), max_size=40)


def fresh_pair(seed, cells=96, q=4):
    config = IBLTConfig(cells=cells, q=q, seed=seed)
    return IBLT(config), IBLT(config)


@given(keys_strategy, st.integers(min_value=0, max_value=1000))
@settings(max_examples=60)
def test_insert_then_delete_everything_is_empty(keys, seed):
    table, _ = fresh_pair(seed)
    table.insert_all(keys)
    table.delete_all(keys)
    assert table.is_empty()


@given(keys_strategy, keys_strategy, st.integers(min_value=0, max_value=1000))
@settings(max_examples=60)
def test_subtract_recovers_symmetric_difference(alice_keys, bob_keys, seed):
    """The defining IBLT property, over arbitrary small random sets."""
    alice, bob = fresh_pair(seed, cells=recommended_cells(80, q=4))
    alice.insert_all(alice_keys)
    bob.insert_all(bob_keys)
    result = decode(alice.subtract(bob))
    assert result.success
    assert sorted(result.alice_keys) == sorted(alice_keys - bob_keys)
    assert sorted(result.bob_keys) == sorted(bob_keys - alice_keys)


@given(keys_strategy, st.integers(min_value=0, max_value=1000))
@settings(max_examples=40)
def test_subtract_self_is_empty(keys, seed):
    alice, bob = fresh_pair(seed)
    alice.insert_all(keys)
    bob.insert_all(keys)
    diff = alice.subtract(bob)
    assert diff.is_empty()
    assert decode(diff).success


@given(keys_strategy, st.integers(min_value=0, max_value=1000))
@example({117413, 231}, 939)  # a 2-core: peeling fails in both directions
@settings(max_examples=40)
def test_subtract_antisymmetry(keys, seed):
    """alice - bob peels exactly when bob - alice does, to the mirror.

    Peeling is not guaranteed even for tiny sets: two keys whose cells
    coincide form a 2-core.  Negating a table leaves which cells are pure
    unchanged, so the property is that both directions agree.
    """
    alice, bob = fresh_pair(seed, cells=recommended_cells(80, q=4))
    alice.insert_all(keys)
    forward = decode(alice.subtract(bob))
    backward = decode(bob.subtract(alice))
    assert forward.success == backward.success
    if forward.success:
        assert sorted(forward.alice_keys) == sorted(backward.bob_keys)
        assert sorted(forward.bob_keys) == sorted(backward.alice_keys)


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40)
def test_serialisation_roundtrip_random_tables(seed, n_keys):
    rng = random.Random(seed)
    config = IBLTConfig(cells=64, q=4, seed=seed)
    table = IBLT(config)
    table.insert_all(rng.getrandbits(60) for _ in range(n_keys))
    restored = IBLT.from_bytes(table.to_bytes(), config)
    assert restored.counts == table.counts
    assert restored.key_sums == table.key_sums
    assert restored.check_sums == table.check_sums


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_decode_success_at_half_load(seed):
    """Tables loaded to ~50% of the peeling threshold always decode."""
    rng = random.Random(seed)
    cells = 120
    n_diff = int(cells * 0.772 * 0.5)
    config = IBLTConfig(cells=cells, q=4, seed=seed)
    table = IBLT(config)
    keys = {rng.getrandbits(60) for _ in range(n_diff)}
    table.insert_all(keys)
    result = decode(table)
    assert result.success
    assert sorted(result.alice_keys) == sorted(keys)
