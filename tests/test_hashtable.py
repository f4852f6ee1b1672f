"""Tests for the SPCD sharing table and Linux hash function."""

import numpy as np
import pytest

from repro.core.hashtable import (
    DEFAULT_TABLE_SIZE,
    GOLDEN_RATIO_64,
    ArrayShareTable,
    ShareEntry,
    ShareTable,
    hash_64,
)
from repro.errors import ConfigurationError
from repro.units import MSEC


class TestHash64:
    def test_full_width_default(self):
        assert hash_64(1) == GOLDEN_RATIO_64

    def test_bits_selects_top_bits(self):
        full = hash_64(12345)
        assert hash_64(12345, 16) == full >> 48

    def test_stays_in_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= hash_64(value, 20) < 2**20

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            hash_64(1, 0)
        with pytest.raises(ConfigurationError):
            hash_64(1, 65)

    def test_spreads_sequential_keys(self):
        """Golden-ratio hashing must scatter consecutive region ids."""
        slots = {hash_64(i, 16) for i in range(1000)}
        assert len(slots) > 990


class TestShareEntry:
    def test_not_shared_with_one_toucher(self):
        e = ShareEntry(region=1)
        e.touch(0, 100)
        assert not e.is_shared
        assert e.sharers == [0]

    def test_shared_with_two(self):
        e = ShareEntry(region=1)
        e.touch(0, 100)
        e.touch(1, 200)
        assert e.is_shared
        assert e.last_access == {0: 100, 1: 200}

    def test_touch_updates_timestamp(self):
        e = ShareEntry(region=1)
        e.touch(0, 100)
        e.touch(0, 300)
        assert e.last_access[0] == 300
        assert not e.is_shared


class TestShareTable:
    def test_lookup_absent(self):
        t = ShareTable(100)
        assert t.lookup(5) is None

    def test_get_or_create_then_lookup(self):
        t = ShareTable(100)
        e = t.get_or_create(5)
        e.touch(0, 1)
        assert t.lookup(5) is e

    def test_collision_overwrites(self):
        """Paper: on hash collision the previous entry is overwritten."""
        t = ShareTable(1)  # everything collides
        a = t.get_or_create(1)
        a.touch(0, 1)
        b = t.get_or_create(2)
        assert t.lookup(1) is None
        assert t.lookup(2) is b
        assert t.collisions == 1

    def test_same_region_not_a_collision(self):
        t = ShareTable(1)
        a = t.get_or_create(1)
        assert t.get_or_create(1) is a
        assert t.collisions == 0

    def test_shared_region_count(self):
        t = ShareTable(100)
        t.get_or_create(1).touch(0, 1)
        e = t.get_or_create(2)
        e.touch(0, 1)
        e.touch(1, 2)
        assert t.shared_region_count() == 1

    def test_occupancy(self):
        t = ShareTable(10)
        t.get_or_create(1)
        assert t.occupancy() == pytest.approx(0.1)

    def test_clear(self):
        t = ShareTable(10)
        t.get_or_create(1)
        t.clear()
        assert len(t) == 0

    def test_default_size_matches_paper(self):
        assert DEFAULT_TABLE_SIZE == 256_000

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            ShareTable(0)

    def test_low_collision_rate_at_paper_scale(self):
        """256k slots covering 1 GiB of 4 KiB pages: few collisions."""
        t = ShareTable(DEFAULT_TABLE_SIZE)
        for region in range(50_000):
            t.get_or_create(region)
        assert t.collisions / 50_000 < 0.12


def reference_touch(table: ShareTable, regions, tid: int, now: int, window: int):
    """Per-event ``get_or_create`` plus window scan: the paper's per-fault hook."""
    partners: list[int] = []
    windowed_out = 0
    for region in regions:
        entry = table.get_or_create(int(region))
        for other, last in entry.last_access.items():
            if other == tid:
                continue
            if now - last <= window:
                partners.append(other)
            else:
                windowed_out += 1
        entry.touch(tid, now)
    return partners, windowed_out


def entry_state(entries) -> list:
    return sorted((e.region, sorted(e.last_access.items())) for e in entries)


class TestArrayEngineMatchesReference:
    """Repeat-heavy batches through the array engine vs the dict engine."""

    N_THREADS = 8
    WINDOW = 250 * MSEC

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("size", [1, 7, 61, 4096])
    def test_partners_and_state_match(self, size, seed):
        rng = np.random.default_rng(seed * 1000 + size)
        reference = ShareTable(size)
        flat = ArrayShareTable(size, self.N_THREADS)
        now = 0
        for _ in range(80):
            # often the same instant, sometimes a jump past the window
            now += int(rng.choice([0, 0, 30 * MSEC, 120 * MSEC, 400 * MSEC]))
            tid = int(rng.integers(0, self.N_THREADS))
            pool = int(rng.choice([4, 24, 200]))
            regions = rng.integers(0, pool, size=int(rng.integers(1, 301)))
            expected, wout = reference_touch(reference, regions, tid, now, self.WINDOW)
            partners, flat_wout = flat.touch_batch(regions, tid, now, self.WINDOW)
            assert sorted(partners.tolist()) == sorted(expected)
            assert flat_wout == wout
        assert flat.collisions == reference.collisions
        assert flat.inserts == reference.inserts
        assert flat.shared_region_count() == reference.shared_region_count()
        assert len(flat) == len(reference)
        assert entry_state(flat.entries()) == entry_state(reference.entries())
