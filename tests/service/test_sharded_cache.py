"""Sharded cache: routing, TTL, tolerant loads, concurrent persistence."""

import json
import multiprocessing
import os
import time

import pytest

from repro.service.cache import (
    ResultCache,
    ShardedResultCache,
    shard_index,
)


def _fp(value: int) -> str:
    """A hex fingerprint whose shard-keying *prefix* varies."""
    return f"{value:08x}" + "f" * 24


class TestShardRouting:
    def test_hex_fingerprints_spread_over_shards(self):
        indices = {shard_index(_fp(value), 4) for value in range(64)}
        assert indices == {0, 1, 2, 3}

    def test_non_hex_keys_still_route_deterministically(self):
        assert shard_index("fp-one", 4) == shard_index("fp-one", 4)
        assert 0 <= shard_index("fp-one", 4) < 4

    def test_routing_is_stable_across_instances(self):
        """Shard of a fingerprint must never move between runs."""
        cache_a = ShardedResultCache(shards=8)
        cache_b = ShardedResultCache(shards=8)
        for value in range(32):
            fingerprint = _fp(value)
            assert cache_a.shard_for(fingerprint) is cache_a._shards[
                shard_index(fingerprint, 8)
            ]
            assert shard_index(fingerprint, 8) == shard_index(fingerprint, 8)
            cache_b.put(fingerprint, "cfg", {"v": value})
        assert len(cache_b) == 32

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedResultCache(shards=0)
        with pytest.raises(ValueError):
            shard_index("00", 0)


class TestShardedSemantics:
    def test_get_put_contains_len_clear(self):
        cache = ShardedResultCache(shards=4, capacity=8)
        assert cache.get("0abc", "cfg") is None
        cache.put("0abc", "cfg", {"v": 1})
        assert cache.get("0abc", "cfg") == {"v": 1}
        assert cache.contains("0abc", "cfg")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_stats_aggregate_across_shards(self):
        cache = ShardedResultCache(shards=4)
        for value in range(16):
            fingerprint = _fp(value)
            cache.put(fingerprint, "cfg", {"v": value})
            cache.get(fingerprint, "cfg")
        cache.get("feedfeedfeedfeedfeedfeedfeedfeed", "cfg")
        stats = cache.stats
        assert stats.stores == 16
        assert stats.hits == 16
        assert stats.misses == 1
        per_shard = cache.shard_stats()
        assert len(per_shard) == 4
        assert sum(row["stores"] for row in per_shard) == 16
        assert sum(row["entries"] for row in per_shard) == len(cache)
        assert all("bytes_on_disk" in row for row in per_shard)

    def test_entry_counts_and_bytes_on_disk(self, tmp_path):
        """``stats`` and the metrics report entry counts per shard and
        real persisted bytes."""
        directory = str(tmp_path / "cache.d")
        cache = ShardedResultCache(shards=4, directory=directory)
        assert cache.entry_counts() == [0, 0, 0, 0]
        assert cache.bytes_on_disk() == 0  # nothing persisted yet
        for value in range(16):
            cache.put(_fp(value), "cfg", {"v": value})
        assert sum(cache.entry_counts()) == 16
        cache.save()
        total = cache.bytes_on_disk()
        assert total > 0
        per_shard = cache.shard_stats()
        assert sum(row["bytes_on_disk"] for row in per_shard) == total
        on_disk = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
            if name.endswith(".json")
        )
        assert total == on_disk

    def test_memory_only_cache_reports_zero_bytes(self):
        cache = ShardedResultCache(shards=2)
        cache.put(_fp(1), "cfg", {"v": 1})
        cache.save()
        assert cache.bytes_on_disk() == 0

    def test_capacity_is_per_shard(self):
        cache = ShardedResultCache(shards=2, capacity=2)
        for value in range(16):
            cache.put(_fp(value), "cfg", {"v": value})
        assert len(cache) <= 4
        assert cache.stats.evictions >= 12

    def test_persistence_layout_on_disk(self, tmp_path):
        directory = str(tmp_path / "cache.d")
        cache = ShardedResultCache(shards=3, directory=directory)
        for value in range(12):
            cache.put(_fp(value), "cfg", {"v": value})
        cache.save()
        files = sorted(
            name for name in os.listdir(directory) if name.endswith(".json")
        )
        assert files == ["shard-00.json", "shard-01.json", "shard-02.json"]

        reloaded = ShardedResultCache(shards=3, directory=directory)
        assert len(reloaded) == 12
        for value in range(12):
            assert reloaded.get(_fp(value), "cfg") == {"v": value}


class TestTtl:
    def test_expired_entry_is_a_miss(self):
        cache = ResultCache(capacity=4, ttl_seconds=0.05)
        cache.put("fp", "cfg", {"v": 1})
        assert cache.get("fp", "cfg") == {"v": 1}
        time.sleep(0.06)
        assert cache.get("fp", "cfg") is None
        assert cache.stats.expirations == 1
        assert not cache.contains("fp", "cfg")

    def test_expired_entries_dropped_on_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        writer = ResultCache(capacity=4, path=path)
        writer.put("fp", "cfg", {"v": 1})
        writer.save()
        time.sleep(0.06)
        reloaded = ResultCache(capacity=4, path=path, ttl_seconds=0.05)
        assert len(reloaded) == 0
        assert reloaded.stats.expirations == 1

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0.0)

    def test_sharded_cache_applies_ttl(self):
        cache = ShardedResultCache(shards=2, ttl_seconds=0.05)
        cache.put("0abc", "cfg", {"v": 1})
        time.sleep(0.06)
        assert cache.get("0abc", "cfg") is None
        assert cache.stats.expirations == 1


class TestTolerantLoads:
    """Corrupt/truncated cache files are discarded and logged, not fatal."""

    def test_truncated_json_starts_cold_and_logs(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        good = ResultCache(capacity=4, path=str(path))
        good.put("fp", "cfg", {"v": 1})
        good.save()
        # Simulate a partial write: chop the file mid-payload.
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            cache = ResultCache(capacity=4, path=str(path))
        assert len(cache) == 0
        assert any("discarding" in record.message for record in caplog.records)

    def test_binary_garbage_starts_cold(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(bytes(range(256)) * 16)  # undecodable as UTF-8
        assert len(ResultCache(path=str(path))) == 0

    def test_malformed_entries_are_skipped_not_fatal(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        payload = {
            "version": 2,
            "entries": [
                ["good|cfg", {"v": 1}, time.time()],
                ["missing-timestamp", {"v": 2}],
                "not-a-list",
                [3, {"v": 4}, 0.0],
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            cache = ResultCache(path=str(path))
        assert len(cache) == 1
        assert cache.get("good", "cfg") == {"v": 1}

    def test_version_mismatch_logs(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 1, "entries": []}), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.service.cache"):
            assert len(ResultCache(path=str(path))) == 0
        assert any("format version" in record.message for record in caplog.records)


class TestMergeSave:
    def test_merge_save_keeps_other_writers_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ResultCache(capacity=8, path=path)
        first.put("fp1", "cfg", {"who": "first"})
        first.save(merge=True)

        second = ResultCache(capacity=8, path=path)  # sees fp1
        second.put("fp2", "cfg", {"who": "second"})
        second.save(merge=True)

        # "first" never saw fp2, but its merge-save must not erase it.
        first.put("fp3", "cfg", {"who": "first-again"})
        first.save(merge=True)

        reloaded = ResultCache(capacity=8, path=path)
        assert reloaded.get("fp1", "cfg") == {"who": "first"}
        assert reloaded.get("fp2", "cfg") == {"who": "second"}
        assert reloaded.get("fp3", "cfg") == {"who": "first-again"}

    def test_plain_save_still_overwrites(self, tmp_path):
        """clear() + save() must keep meaning 'empty the file'."""
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=8, path=path)
        cache.put("fp", "cfg", {"v": 1})
        cache.save()
        cache.clear()
        cache.save()
        assert len(ResultCache(capacity=8, path=path)) == 0


def _hammer_cache(path: str, label: int, entries: int) -> None:
    """Worker: insert entries and merge-save after every insert."""
    cache = ResultCache(capacity=4096, path=path)
    for index in range(entries):
        cache.put(f"{label:04d}-{index:04d}", "cfg", {"worker": label, "i": index})
        cache.save(merge=True)


def _hammer_shards(directory: str, label: int, entries: int) -> None:
    """Worker: insert into a sharded cache and merge-save repeatedly."""
    cache = ShardedResultCache(shards=4, capacity=4096, directory=directory)
    for index in range(entries):
        cache.put(f"{label:02x}{index:02x}{'0' * 28}", "cfg", {"w": label, "i": index})
        if index % 4 == 3:
            cache.save()
    cache.save()


def _read_forever(path: str, stop_path: str, failures: multiprocessing.Queue) -> None:
    """Worker: reload the cache file in a tight loop, recording torn reads."""
    while not os.path.exists(stop_path):
        cache = ResultCache(capacity=4096, path=path)
        for key in list(cache._entries):
            value = cache._entries[key]
            if not isinstance(value, dict) or "worker" not in value:
                failures.put(f"torn value for {key!r}: {value!r}")
                return


class TestMultiProcessSharing:
    """Two workers persisting to one path lose no entries and never
    serve a torn read (the satellite regression suite)."""

    ENTRIES = 24

    def test_concurrent_writers_lose_no_entries(self, tmp_path):
        path = str(tmp_path / "shared.json")
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=_hammer_cache, args=(path, label, self.ENTRIES))
            for label in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        final = ResultCache(capacity=4096, path=path)
        for label in (1, 2):
            for index in range(self.ENTRIES):
                value = final.get(f"{label:04d}-{index:04d}", "cfg")
                assert value == {"worker": label, "i": index}, (
                    f"lost entry {label}/{index}"
                )

    def test_concurrent_writers_never_produce_torn_reads(self, tmp_path):
        path = str(tmp_path / "shared.json")
        stop_path = str(tmp_path / "stop")
        context = multiprocessing.get_context("fork")
        failures: multiprocessing.Queue = context.Queue()
        reader = context.Process(
            target=_read_forever, args=(path, stop_path, failures)
        )
        writers = [
            context.Process(target=_hammer_cache, args=(path, label, self.ENTRIES))
            for label in (1, 2)
        ]
        reader.start()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        open(stop_path, "w").close()
        reader.join(timeout=30)
        if reader.is_alive():  # pragma: no cover - stuck reader
            reader.terminate()
            reader.join()
        assert failures.empty(), failures.get()

    def test_concurrent_sharded_writers_lose_no_entries(self, tmp_path):
        directory = str(tmp_path / "cache.d")
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(
                target=_hammer_shards, args=(directory, label, self.ENTRIES)
            )
            for label in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        final = ShardedResultCache(shards=4, capacity=4096, directory=directory)
        assert len(final) == 2 * self.ENTRIES
        for label in (1, 2):
            for index in range(self.ENTRIES):
                key = f"{label:02x}{index:02x}{'0' * 28}"
                assert final.get(key, "cfg") == {"w": label, "i": index}
