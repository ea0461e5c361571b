"""Result-cache semantics: LRU order, stats, persistence."""

import json

import pytest

from repro.service.cache import ResultCache


class TestLookupSemantics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("fp", "cfg") is None
        cache.put("fp", "cfg", {"answer": 42})
        assert cache.get("fp", "cfg") == {"answer": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_config_token_separates_entries(self):
        """Same fingerprint, different portfolio: distinct entries."""
        cache = ResultCache(capacity=4)
        cache.put("fp", "portfolio[a]", {"winner": "a"})
        cache.put("fp", "portfolio[b]", {"winner": "b"})
        assert cache.get("fp", "portfolio[a]") == {"winner": "a"}
        assert cache.get("fp", "portfolio[b]") == {"winner": "b"}
        assert len(cache) == 2

    def test_overwrite_refreshes_value(self):
        cache = ResultCache(capacity=4)
        cache.put("fp", "cfg", {"v": 1})
        cache.put("fp", "cfg", {"v": 2})
        assert cache.get("fp", "cfg") == {"v": 2}
        assert len(cache) == 1

    def test_contains_does_not_disturb_stats(self):
        cache = ResultCache(capacity=4)
        cache.put("fp", "cfg", {})
        assert cache.contains("fp", "cfg")
        assert not cache.contains("fp", "other")
        assert cache.stats.lookups == 0


class TestLruEviction:
    def test_capacity_is_enforced_lru_first(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "c", {"v": "a"})
        cache.put("b", "c", {"v": "b"})
        assert cache.get("a", "c") is not None  # refresh a: b is now LRU
        cache.put("d", "c", {"v": "d"})
        assert cache.get("b", "c") is None
        assert cache.get("a", "c") is not None
        assert cache.get("d", "c") is not None
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=8, path=path)
        cache.put("fp1", "cfg", {"layouts": {"A": [[1, 0]]}})
        cache.put("fp2", "cfg", {"layouts": {}})
        cache.save()

        reloaded = ResultCache(capacity=8, path=path)
        assert len(reloaded) == 2
        assert reloaded.get("fp1", "cfg") == {"layouts": {"A": [[1, 0]]}}
        assert reloaded.stats.hits == 1

    def test_saved_file_is_the_compact_dump_of_its_payload(self, tmp_path):
        """The file holds exactly ``json.dumps(payload, separators=(",",
        ":"))``: the encoder used to write it changes no byte."""
        path = tmp_path / "cache.json"
        cache = ResultCache(capacity=8, path=str(path))
        cache.put("fp1", "cfg", {"layouts": {"A": [[1, -1]]}, "cost": 2.5})
        cache.put("fp2", "cfg", {"program": "Med-Im\u00e904", "exact": True})
        cache.save(merge=True)
        cache.put("fp3", "cfg", {"nested": [None, [0.1, 1e300]]})
        cache.save()
        raw = path.read_bytes()
        payload = json.loads(raw)
        assert len(payload["entries"]) == 3
        assert raw == json.dumps(payload, separators=(",", ":")).encode()

    def test_corrupt_file_starts_cold(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json", encoding="utf-8")
        cache = ResultCache(path=str(path))
        assert len(cache) == 0

    def test_version_mismatch_starts_cold(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"version": 999, "entries": [["k", {}]]}),
            encoding="utf-8",
        )
        assert len(ResultCache(path=str(path))) == 0

    def test_load_respects_capacity(self, tmp_path):
        path = str(tmp_path / "cache.json")
        big = ResultCache(capacity=16, path=path)
        for index in range(10):
            big.put(f"fp{index}", "cfg", {"v": index})
        big.save()

        small = ResultCache(capacity=3, path=path)
        assert len(small) == 3
        # The most recently used tail survives.
        assert small.get("fp9", "cfg") == {"v": 9}
        assert small.get("fp0", "cfg") is None

    def test_pathless_save_is_a_noop(self):
        ResultCache().save()

    def test_clear_drops_entries(self, tmp_path):
        cache = ResultCache(capacity=4, path=str(tmp_path / "c.json"))
        cache.put("fp", "cfg", {})
        cache.clear()
        assert len(cache) == 0
        cache.save()
        assert len(ResultCache(path=str(tmp_path / "c.json"))) == 0
