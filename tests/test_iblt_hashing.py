"""Unit tests for the shared hashing layer."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.iblt.hashing import (
    FAMILY_CACHE_SIZE,
    HashFamily,
    TabulationHash,
    checksum64,
    hash_family,
    hash_with_salt,
    hash_with_salt_many,
    splitmix64,
    splitmix64_many,
    tabulation_hash,
    trailing_zeros,
)
from repro.iblt.table import IBLTConfig

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI leg
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="bulk hashing needs numpy")

U64_EDGES = [0, 2**63 - 1, 2**63, 2**64 - 1]
uint64s = st.integers(min_value=0, max_value=2**64 - 1)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_fits_in_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(value) < 2**64

    def test_wide_inputs_folded(self):
        wide = (1 << 200) | 7
        assert 0 <= splitmix64(wide) < 2**64

    def test_wide_inputs_distinct_from_truncation(self):
        wide = (1 << 100) | 7
        assert splitmix64(wide) != splitmix64(7)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            splitmix64(-1)

    def test_negative_wide_input_rejected_before_folding(self):
        # The wide-fold path must never run on negative inputs: the sign
        # check fires first, however many 64-bit limbs the value spans.
        for wide in (-(1 << 64), -(1 << 100), -((1 << 200) | 7)):
            with pytest.raises(ValueError):
                splitmix64(wide)

    def test_avalanche_smoke(self):
        # Flipping one input bit should flip roughly half the output bits.
        a = splitmix64(0xDEADBEEF)
        b = splitmix64(0xDEADBEEF ^ 1)
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48


class TestSaltedHashes:
    def test_salt_changes_output(self):
        assert hash_with_salt(42, 1) != hash_with_salt(42, 2)

    def test_checksum_width(self):
        for width in (8, 16, 32, 64):
            assert checksum64(999, 7, width) < 2**width

    def test_checksum_bad_width_rejected(self):
        with pytest.raises(ValueError):
            checksum64(1, 0, 0)
        with pytest.raises(ValueError):
            checksum64(1, 0, 65)


class TestHashFamily:
    def test_indices_are_distinct_and_in_partitions(self):
        family = HashFamily(q=4, cells=64, seed=3)
        for key in range(200):
            indices = family.indices(key)
            assert len(set(indices)) == 4
            for i, index in enumerate(indices):
                assert i * 16 <= index < (i + 1) * 16

    def test_deterministic_across_instances(self):
        a = HashFamily(q=3, cells=30, seed=11)
        b = HashFamily(q=3, cells=30, seed=11)
        assert a == b
        assert a.indices(77) == b.indices(77)

    def test_seed_changes_indices(self):
        a = HashFamily(q=3, cells=30, seed=1)
        b = HashFamily(q=3, cells=30, seed=2)
        assert any(a.indices(key) != b.indices(key) for key in range(32))

    def test_validation(self):
        with pytest.raises(ValueError):
            HashFamily(q=1, cells=10, seed=0)
        with pytest.raises(ValueError):
            HashFamily(q=3, cells=10, seed=0)  # not divisible

    def test_repr_mentions_params(self):
        assert "q=4" in repr(HashFamily(q=4, cells=8, seed=0))

    def test_hash_agrees_with_eq(self):
        a = HashFamily(3, 30, 1)
        b = HashFamily(3, 30, 1)
        assert hash(a) == hash(b)
        assert {a, b, HashFamily(3, 30, 2)} == {a, HashFamily(3, 30, 2)}
        assert {a: "x"}[b] == "x"

    @needs_numpy
    def test_premixed_vector_is_read_only_copy_of_salts(self):
        family = HashFamily(4, 64, 9)
        assert family.premixed_vector.tolist() == list(family.premixed_salts)
        with pytest.raises(ValueError):
            family.premixed_vector[0] = 1


class TestPublicCoinCaches:
    def test_equal_configs_share_one_family(self):
        a = IBLTConfig(cells=48, q=4, key_bits=40, seed=77)
        b = IBLTConfig(cells=48, q=4, key_bits=40, seed=77)
        assert a == b and a is not b
        assert a.hash_family() is b.hash_family()
        assert a.hash_family() == HashFamily(4, 48, 77)

    def test_key_width_does_not_split_the_family(self):
        # Cell placement depends on (q, cells, seed) only.
        narrow = IBLTConfig(cells=48, q=4, key_bits=20, seed=77)
        wide = IBLTConfig(cells=48, q=4, key_bits=64, seed=77)
        assert narrow.hash_family() is wide.hash_family()

    def test_family_cache_stays_within_bound(self):
        assert hash_family.cache_info().maxsize == FAMILY_CACHE_SIZE
        for seed in range(FAMILY_CACHE_SIZE + 16):
            hash_family(3, 12, 0xCAC4E000 + seed)
        assert hash_family.cache_info().currsize <= FAMILY_CACHE_SIZE

    def test_invalid_family_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                hash_family(3, 10, 0)

    def test_tabulation_hash_shared_per_seed(self):
        assert tabulation_hash(41) is tabulation_hash(41)
        assert tabulation_hash(41) is not tabulation_hash(42)
        assert tabulation_hash(41)._tables == TabulationHash(41)._tables

    @needs_numpy
    def test_cached_tabulation_numpy_table_is_read_only(self):
        tables = tabulation_hash(43)._np_tables
        assert tables.shape == (8, 256) and not tables.flags.writeable
        with pytest.raises(ValueError):
            tables[0, 0] = 1
        assert tables.tolist() == [list(row) for row in tabulation_hash(43)._tables]


@needs_numpy
class TestBulkHashes:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(uint64s, min_size=1, max_size=40))
    @example(U64_EDGES)
    def test_splitmix64_many_matches_scalar(self, values):
        bulk = splitmix64_many(np.array(values, dtype=np.uint64))
        assert bulk.dtype == np.uint64
        assert bulk.tolist() == [splitmix64(value) for value in values]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(uint64s, min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**80),
    )
    @example(U64_EDGES, 0)
    @example(U64_EDGES, 2**64 - 1)
    @example(U64_EDGES, 2**70 + 5)  # a salt wider than 64 bits is folded
    def test_hash_with_salt_many_matches_scalar(self, values, salt):
        bulk = hash_with_salt_many(np.array(values, dtype=np.uint64), salt)
        assert bulk.tolist() == [hash_with_salt(value, salt) for value in values]

    def test_accepts_int64_arrays(self):
        # Grid keys arrive as non-negative int64 arrays.
        keys = np.array([0, 5, 2**63 - 1], dtype=np.int64)
        assert hash_with_salt_many(keys, 9).tolist() == [
            hash_with_salt(int(key), 9) for key in keys
        ]


class TestTabulationHash:
    def test_deterministic_given_seed(self):
        a = TabulationHash(9)
        b = TabulationHash(9)
        assert all(a(v) == b(v) for v in (0, 1, 12345, 2**63))

    def test_seed_matters(self):
        a = TabulationHash(1)
        b = TabulationHash(2)
        assert any(a(v) != b(v) for v in range(16))

    def test_wide_input_folded(self):
        hasher = TabulationHash(5)
        assert 0 <= hasher(1 << 200) < 2**64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TabulationHash(5)(-1)

    def test_tables_are_immutable_tuples(self):
        # The tables are shared, hot state; tuples guard against accidental
        # mutation and pin the draw order (one getrandbits(64) per entry).
        tables = TabulationHash(3)._tables
        assert isinstance(tables, tuple) and len(tables) == 8
        assert all(isinstance(row, tuple) and len(row) == 256 for row in tables)

    def test_values_match_reference_draw_order(self):
        # Frozen contract: entry [i][j] is the (256*i + j)-th getrandbits(64)
        # of random.Random(seed) — strata wire bytes depend on it.
        import random as _random

        rng = _random.Random(9)
        expected_first_row = [rng.getrandbits(64) for _ in range(256)]
        assert list(TabulationHash(9)._tables[0]) == expected_first_row


class TestTrailingZeros:
    def test_basic(self):
        assert trailing_zeros(0b1000, 10) == 3
        assert trailing_zeros(0b1, 10) == 0
        assert trailing_zeros(0b110, 10) == 1

    def test_zero_hits_limit(self):
        assert trailing_zeros(0, 7) == 7

    def test_cap(self):
        assert trailing_zeros(1 << 30, 5) == 5

    def test_matches_shift_loop_reference(self):
        def reference(value, limit):
            if value == 0:
                return limit
            count = 0
            while count < limit and not value & 1:
                value >>= 1
                count += 1
            return count

        for value in list(range(0, 300)) + [1 << 40, (1 << 63) | (1 << 12), 2**70]:
            for limit in (0, 1, 5, 32, 64):
                assert trailing_zeros(value, limit) == reference(value, limit)
