"""Result-cache persistence: TTL, tolerant loads, merge-saves and
several processes sharing one cache file.

The module and class names date from the sharded cache tier, which
is gone; they are kept so the tests keep their ids.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.service.cache import ResultCache


class TestShardedSemantics:
    def test_get_put_contains_len_clear(self):
        cache = ResultCache(capacity=8)
        assert cache.get("0abc", "cfg") is None
        cache.put("0abc", "cfg", {"v": 1})
        assert cache.get("0abc", "cfg") == {"v": 1}
        assert cache.contains("0abc", "cfg")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_entry_counts_and_bytes_on_disk(self, tmp_path):
        """``stats`` and the metrics report the entry count and the
        real persisted bytes of the one cache file."""
        path = tmp_path / "cache.json"
        cache = ResultCache(capacity=64, path=str(path))
        assert len(cache) == 0
        assert cache.bytes_on_disk() == 0  # nothing persisted yet
        for value in range(16):
            cache.put(f"{value:08x}", "cfg", {"v": value})
        assert len(cache) == 16
        cache.save(merge=True)
        assert cache.bytes_on_disk() == os.path.getsize(path) > 0
        assert sorted(os.listdir(tmp_path)) == ["cache.json", "cache.json.lock"]

    def test_memory_only_cache_reports_zero_bytes(self):
        cache = ResultCache()
        cache.put("00000001", "cfg", {"v": 1})
        cache.save()
        assert cache.bytes_on_disk() == 0


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
