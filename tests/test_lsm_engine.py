
import numpy as np

from repro.config.cassandra import LEVELED
from repro.lsm.engine import OP_READ, LSMEngine
from repro.sim.clock import SimClock

from tests.conftest import make_knobs


def fill(engine, n, size=60, prefix="key"):
    for i in range(n):
        engine.put(f"{prefix}{i:05d}", b"v" * size)


class TestBasicOperations:
    def test_put_get(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"hello")
        assert engine.get("a") == b"hello"

    def test_get_missing_returns_none(self, small_knobs):
        assert LSMEngine(small_knobs).get("nope") is None

    def test_overwrite(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"one")
        engine.put("a", b"two")
        assert engine.get("a") == b"two"

    def test_delete(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.delete("a")
        assert engine.get("a") is None
        assert not engine.exists("a")

    def test_delete_nonexistent_is_fine(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.delete("ghost")
        assert engine.get("ghost") is None

    def test_operations_advance_clock(self, small_knobs):
        engine = LSMEngine(small_knobs)
        t0 = engine.clock.now
        engine.put("a", b"x")
        assert engine.clock.now > t0
        t1 = engine.clock.now
        engine.get("a")
        assert engine.clock.now > t1

    def test_stats_counting(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.get("a")
        engine.delete("a")
        assert engine.stats.writes == 1
        assert engine.stats.reads == 1
        assert engine.stats.deletes == 1


class TestFlushing:
    def test_flush_triggered_by_threshold(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 500)
        assert engine.stats.flushes >= 1
        assert engine.sstable_count >= 1

    def test_values_survive_flush(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 500)
        engine.flush()
        assert engine.get("key00000") == b"v" * 60
        assert engine.get("key00499") == b"v" * 60

    def test_manual_flush_empties_memtable(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        table = engine.flush()
        assert table is not None
        assert len(engine.memtable) == 0

    def test_flush_empty_memtable_noop(self, small_knobs):
        assert LSMEngine(small_knobs).flush() is None

    def test_newest_version_wins_across_tables(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"old")
        engine.flush()
        engine.put("a", b"new")
        engine.flush()
        assert engine.get("a") == b"new"

    def test_memtable_version_beats_flushed(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"flushed")
        engine.flush()
        engine.put("a", b"fresh")
        assert engine.get("a") == b"fresh"

    def test_delete_shadows_flushed_value(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.put("a", b"x")
        engine.flush()
        engine.delete("a")
        engine.flush()
        assert engine.get("a") is None


class TestCompaction:
    def test_size_tiered_compaction_runs(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 3000)
        engine.idle_until_compact()
        assert engine.stats.compactions_completed >= 1

    def test_compaction_reduces_table_count(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 3000)
        before = engine.sstable_count
        engine.idle_until_compact()
        assert engine.sstable_count < before

    def test_data_intact_after_compaction(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 2000)
        engine.idle_until_compact()
        for i in [0, 999, 1999]:
            assert engine.get(f"key{i:05d}") == b"v" * 60

    def test_deleted_stay_deleted_after_compaction(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 1000)
        for i in range(0, 1000, 100):
            engine.delete(f"key{i:05d}")
        fill(engine, 1000, prefix="other")
        engine.idle_until_compact()
        for i in range(0, 1000, 100):
            assert engine.get(f"key{i:05d}") is None

    def test_leveled_maintains_invariant(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        engine.layout.check_leveled_invariant()

    def test_leveled_data_intact(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        for i in [0, 1234, 3999]:
            assert engine.get(f"key{i:05d}") == b"v" * 60

    def test_leveled_builds_levels(self, leveled_knobs):
        engine = LSMEngine(leveled_knobs)
        fill(engine, 4000)
        engine.idle_until_compact()
        assert len(engine.layout.levels) >= 2
        assert engine.layout.level_bytes(1) > 0


class TestReconfigure:
    def test_cache_resize(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.reconfigure(make_knobs(file_cache_bytes=1024))
        assert engine.cache.capacity_bytes == 1024

    def test_strategy_switch_st_to_leveled(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 1500)
        engine.reconfigure(make_knobs(compaction_method=LEVELED))
        assert engine.strategy.name == LEVELED
        fill(engine, 1500, prefix="more")
        engine.idle_until_compact()
        assert engine.get("key00000") == b"v" * 60
        assert engine.get("more00000") == b"v" * 60

    def test_reconfigure_memtable_space(self, small_knobs):
        engine = LSMEngine(small_knobs)
        engine.reconfigure(make_knobs(memtable_space_bytes=128 * 1024))
        assert engine.memtable.capacity_bytes == 128 * 1024


class TestCostAccounting:
    def test_reads_probe_and_use_cache(self, small_knobs):
        engine = LSMEngine(small_knobs)
        fill(engine, 600)
        engine.flush()
        engine.get("key00005")
        engine.get("key00005")
        assert engine.stats.bloom_checks > 0
        assert engine.stats.cache_hits >= 1

    def test_write_heavier_with_background_compaction(self):
        """Compaction backlog should slow foreground ops (shared disk)."""
        busy = LSMEngine(make_knobs(compaction_throughput_bytes=1024))
        fill(busy, 3000)  # builds a backlog that drains very slowly
        t0 = busy.clock.now
        fill(busy, 200, prefix="probe")
        assert busy.clock.now - t0 > 0

    def test_shared_clock_injection(self, small_knobs):
        clock = SimClock(start=100.0)
        engine = LSMEngine(small_knobs, clock=clock)
        engine.put("a", b"x")
        assert engine.clock.now > 100.0


class TestNulSuffixedKeys:
    """numpy unicode arrays drop trailing NULs; the engine must not.

    Batches of at least eight keys take the vectorized probe when they
    can, so every batch below is padded with plain keys.
    """

    NUL_KEYS = ["\x00", "a\x00", "b\x00\x00"]
    PLAIN = [f"plain{i:02d}" for i in range(12)]

    def flushed_engine(self, knobs, keys):
        engine = LSMEngine(knobs)
        for i, key in enumerate(keys):
            engine.put(key, f"v{i}".encode())
        engine.flush()
        return engine

    def test_get_after_flush(self, small_knobs):
        engine = self.flushed_engine(small_knobs, self.NUL_KEYS + self.PLAIN)
        for i, key in enumerate(self.NUL_KEYS + self.PLAIN):
            assert engine.get(key) == f"v{i}".encode(), repr(key)

    def test_multi_get_after_flush(self, small_knobs):
        keys = self.NUL_KEYS + self.PLAIN
        engine = self.flushed_engine(small_knobs, keys)
        got = engine.multi_get(keys)
        assert got == {key: f"v{i}".encode() for i, key in enumerate(keys)}

    def assert_batch_reads_match_scalar(self, knobs, stored, reads):
        batched = self.flushed_engine(knobs, stored)
        scalar = self.flushed_engine(knobs, stored)
        kinds = np.full(len(reads), OP_READ, dtype=np.int8)
        batched.execute_batch(kinds, reads)
        for key in reads:
            scalar.get(key)
        assert batched.stats == scalar.stats
        assert batched.clock.now == scalar.clock.now
        return batched.stats

    def test_execute_batch_reads_after_flush(self, small_knobs):
        keys = self.NUL_KEYS + self.PLAIN
        stats = self.assert_batch_reads_match_scalar(small_knobs, keys, keys)
        # Every read found its record in the flushed table.
        assert stats.bloom_true_positives == len(keys)

    def test_plain_batch_against_a_table_with_nul_keys(self):
        # The table holds only "k\x00" keys; the batch asks for every
        # "k".  numpy compares the two equal, so a leaky bloom filter
        # would let a vectorized probe return the NUL key's record.
        keys = [f"key{i:03d}" for i in range(50)]
        engine = self.flushed_engine(
            make_knobs(bloom_fp_chance=0.5), [k + "\x00" for k in keys]
        )
        assert engine.multi_get(keys) == {k: None for k in keys}

    def test_nul_suffix_is_a_distinct_key(self, small_knobs):
        engine = self.flushed_engine(small_knobs, ["a", "a\x00"] + self.PLAIN)
        assert engine.get("a") == b"v0"
        assert engine.get("a\x00") == b"v1"
        got = engine.multi_get(["a", "a\x00"] + self.PLAIN)
        assert (got["a"], got["a\x00"]) == (b"v0", b"v1")

        only_nul = self.flushed_engine(small_knobs, ["a\x00"] + self.PLAIN)
        assert only_nul.get("a") is None
        assert only_nul.multi_get(["a"] + self.PLAIN)["a"] is None
