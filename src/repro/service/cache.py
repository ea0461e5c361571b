"""Result caches for the layout solver service.

Two tiers:

* :class:`ResultCache` -- an in-memory LRU keyed by ``(request
  fingerprint, portfolio/scheme token)`` with optional JSON
  persistence, so a service restart -- or the next invocation of the
  batch CLI -- serves repeat programs without re-running any solver.
  Values are plain JSON-serializable dicts (the portfolio layer owns
  (de)serialization of its results), which keeps the cache format
  inspectable with nothing but a text editor.  Entries may carry a
  time-to-live; expired entries are dropped on lookup and on load.
  ``save(merge=True)`` folds the file's current contents back in under
  an advisory file lock, so concurrent processes persisting to one
  path lose no entries.

* :class:`ShardedResultCache` -- N :class:`ResultCache` shards keyed
  by fingerprint prefix, each with its own LRU bound, JSON file, and
  stats.  Concurrent writers hash to different shards and stop
  contending on one file; the resident daemon persists one shard at a
  time.

Hit/miss/eviction counters live in :class:`CacheStats`; the batch
report surfaces them ("served N% from cache").
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass

try:  # advisory save lock: POSIX only, gracefully absent elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: On-disk format version; bump on incompatible layout changes.
#: Version 2 added per-entry store timestamps (TTL support).
_FORMAT_VERSION = 2


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime.

    Attributes:
        hits: successful lookups.
        misses: failed lookups.
        stores: values inserted (including overwrites).
        evictions: entries dropped to respect the capacity bound.
        expirations: entries dropped because their TTL elapsed.
        saves: persistence passes that wrote the cache file.
        merge_saves: the subset of saves that folded the file's
            current contents back in under the advisory lock first.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    saves: int = 0
    merge_saves: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    def add(self, other: "CacheStats") -> None:
        """Fold another instance's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.expirations += other.expirations


@contextlib.contextmanager
def _save_lock(path: str):
    """Advisory exclusive lock serializing merge-saves on one path.

    Uses a ``<path>.lock`` sidecar (never replaced, so every process
    locks the same inode).  On platforms without :mod:`fcntl` the lock
    degrades to a no-op: saves stay atomic (temp + ``os.replace``),
    merge-saves merely lose their read-modify-write atomicity.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    lock_path = f"{path}.lock"
    handle = open(lock_path, "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()


class ResultCache:
    """LRU cache of solver results, optionally persisted to a JSON file.

    Args:
        capacity: maximum number of entries kept in memory (least
            recently *used* entries are evicted first).
        path: optional JSON file; existing entries are loaded eagerly
            (corrupt, truncated, or version-mismatched files are
            discarded with a logged warning, never fatal -- the cache
            simply starts cold).  Call :meth:`save` to persist; saving
            is atomic (write-to-temp + ``os.replace``), so concurrent
            readers never observe a torn file.
        ttl_seconds: optional time-to-live; entries older than this
            (by wall clock, so the bound survives process restarts)
            are dropped on lookup and on load.

    Keys are ``(fingerprint, config_token)`` string pairs; values must
    be JSON-serializable.
    """

    def __init__(
        self,
        capacity: int = 256,
        path: str | None = None,
        ttl_seconds: float | None = None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self._capacity = capacity
        self._path = path
        self._ttl = ttl_seconds
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._stored_at: dict[str, float] = {}
        self.stats = CacheStats()
        if path is not None and os.path.exists(path):
            loaded = self._read_file(path)
            if loaded:
                self._absorb(loaded)

    @property
    def path(self) -> str | None:
        """The persistence path (None for a memory-only cache)."""
        return self._path

    @staticmethod
    def _key(fingerprint: str, config_token: str) -> str:
        return f"{fingerprint}|{config_token}"

    def _expired(self, key: str, now: float) -> bool:
        if self._ttl is None:
            return False
        return now - self._stored_at.get(key, now) > self._ttl

    # -- lookups ---------------------------------------------------------

    def get(self, fingerprint: str, config_token: str) -> dict | None:
        """The cached value, or None; refreshes LRU position on hit."""
        key = self._key(fingerprint, config_token)
        value = self._entries.get(key)
        if value is not None and self._expired(key, time.time()):
            del self._entries[key]
            self._stored_at.pop(key, None)
            self.stats.expirations += 1
            value = None
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, fingerprint: str, config_token: str, value: dict) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        key = self._key(fingerprint, config_token)
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._stored_at[key] = time.time()
        self.stats.stores += 1
        while len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._stored_at.pop(evicted, None)
            self.stats.evictions += 1

    def contains(self, fingerprint: str, config_token: str) -> bool:
        """Membership test that does not touch stats or LRU order.

        Expired entries count as absent (but are not reaped here).
        """
        key = self._key(fingerprint, config_token)
        return key in self._entries and not self._expired(key, time.time())

    def __len__(self) -> int:
        return len(self._entries)

    def bytes_on_disk(self) -> int:
        """Size of the persisted cache file (0 when absent/memory-only).

        A point-in-time ``os.stat`` of the file as last saved -- not
        the in-memory footprint -- so ``stats`` and the metrics can
        report the on-disk tier without opening any shard file.
        """
        if self._path is None:
            return 0
        try:
            return os.stat(self._path).st_size
        except OSError:
            return 0

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()
        self._stored_at.clear()

    # -- persistence -----------------------------------------------------

    def _read_file(self, path: str) -> list[tuple[str, dict, float]]:
        """Parse a cache file into (key, value, stored_at) triples.

        Anything unreadable -- a partial write, truncated JSON, binary
        garbage, a format-version mismatch, a malformed entry -- is
        discarded with a logged warning; loading never raises.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            # ValueError covers json.JSONDecodeError and the
            # UnicodeDecodeError a truncated/binary file raises.
            logger.warning("discarding unreadable result cache %s: %s", path, exc)
            return []
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            version = payload.get("version") if isinstance(payload, dict) else None
            logger.warning(
                "discarding result cache %s: format version %r != %d",
                path,
                version,
                _FORMAT_VERSION,
            )
            return []
        entries = payload.get("entries")
        if not isinstance(entries, list):
            logger.warning("discarding result cache %s: malformed entry table", path)
            return []
        now = time.time()
        triples: list[tuple[str, dict, float]] = []
        dropped = 0
        for item in entries:
            if (
                isinstance(item, list)
                and len(item) == 3
                and isinstance(item[0], str)
                and isinstance(item[1], dict)
                and isinstance(item[2], (int, float))
            ):
                stored_at = float(item[2])
                if self._ttl is not None and now - stored_at > self._ttl:
                    self.stats.expirations += 1
                    continue
                triples.append((item[0], item[1], stored_at))
            else:
                dropped += 1
        if dropped:
            logger.warning(
                "result cache %s: dropped %d malformed entries", path, dropped
            )
        return triples

    def _absorb(self, triples: list[tuple[str, dict, float]]) -> None:
        """Install loaded triples, respecting the capacity bound."""
        for key, value, stored_at in triples[-self._capacity:]:
            self._entries[key] = value
            self._stored_at[key] = stored_at

    def save(self, merge: bool = False) -> None:
        """Persist all entries (LRU order preserved); no-op when pathless.

        Args:
            merge: fold the file's *current* entries back in first
                (own entries win on key collisions), under an advisory
                file lock -- so several processes saving to one path
                lose none of each other's entries.  The default
                overwrite semantics suit a single-writer CLI (and keep
                :meth:`clear` + :meth:`save` meaning "empty the file").
        """
        if self._path is None:
            return
        self.stats.saves += 1
        if not merge:
            self._write_file(dict(self._entries))
            return
        self.stats.merge_saves += 1
        with _save_lock(self._path):
            merged: OrderedDict[str, dict] = OrderedDict()
            stored_at: dict[str, float] = {}
            if os.path.exists(self._path):
                for key, value, when in self._read_file(self._path):
                    merged[key] = value
                    stored_at[key] = when
            for key, value in self._entries.items():
                if key in merged:
                    del merged[key]  # re-append: own entries are fresher
                merged[key] = value
                stored_at[key] = self._stored_at.get(key, time.time())
            while len(merged) > self._capacity:
                dropped, _ = merged.popitem(last=False)
                stored_at.pop(dropped, None)
            self._write_file(merged, stored_at)

    def _write_file(
        self, entries: dict[str, dict], stored_at: dict[str, float] | None = None
    ) -> None:
        """Atomically replace the cache file with the given entries."""
        if stored_at is None:
            stored_at = self._stored_at
        now = time.time()
        payload = {
            "version": _FORMAT_VERSION,
            "entries": [
                [key, value, stored_at.get(key, now)]
                for key, value in entries.items()
            ],
        }
        directory = os.path.dirname(os.path.abspath(self._path))
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".cache-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                # ``json.dump`` streams through the pure-Python encoder;
                # one ``dumps`` takes the C encoder, same bytes.
                handle.write(json.dumps(payload, separators=(",", ":")))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self._path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


def shard_index(fingerprint: str, shards: int) -> int:
    """Which shard a fingerprint belongs to.

    Fingerprints are hex digests (:mod:`repro.service.fingerprint`),
    so the leading 8 hex characters give a uniform integer; arbitrary
    strings (tests, foreign keys) fall back to CRC-32.  Stable across
    processes and interpreter runs -- shard files must mean the same
    thing to every writer.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    prefix = fingerprint[:8]
    try:
        value = int(prefix, 16)
    except ValueError:
        value = zlib.crc32(fingerprint.encode("utf-8"))
    return value % shards


class ShardedResultCache:
    """N independent :class:`ResultCache` shards keyed by fingerprint prefix.

    Each shard has its own LRU bound, JSON file (``shard-00.json`` ...
    under ``directory``), and stats, so concurrent writers hash to
    different files instead of contending on one.  The interface
    mirrors :class:`ResultCache` (get/put/contains/save/clear/len),
    so every cache consumer in the service layer accepts either.

    Args:
        shards: shard count (fixed for the life of the directory: the
            shard of a fingerprint must not move between runs).
        capacity: LRU bound *per shard*.
        directory: optional persistence directory, created on demand;
            None keeps all shards memory-only.
        ttl_seconds: per-entry time-to-live applied by every shard.
    """

    def __init__(
        self,
        shards: int = 4,
        capacity: int = 1024,
        directory: str | None = None,
        ttl_seconds: float | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be positive")
        self._directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._shards = [
            ResultCache(
                capacity=capacity,
                path=(
                    os.path.join(directory, f"shard-{index:02d}.json")
                    if directory is not None
                    else None
                ),
                ttl_seconds=ttl_seconds,
            )
            for index in range(shards)
        ]

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def directory(self) -> str | None:
        """The persistence directory (None for memory-only)."""
        return self._directory

    def shard_for(self, fingerprint: str) -> ResultCache:
        """The shard owning a fingerprint."""
        return self._shards[shard_index(fingerprint, len(self._shards))]

    def get(self, fingerprint: str, config_token: str) -> dict | None:
        return self.shard_for(fingerprint).get(fingerprint, config_token)

    def put(self, fingerprint: str, config_token: str, value: dict) -> None:
        self.shard_for(fingerprint).put(fingerprint, config_token, value)

    def contains(self, fingerprint: str, config_token: str) -> bool:
        return self.shard_for(fingerprint).contains(fingerprint, config_token)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def bytes_on_disk(self) -> int:
        """Aggregate size of all persisted shard files."""
        return sum(shard.bytes_on_disk() for shard in self._shards)

    def entry_counts(self) -> list[int]:
        """Live entry count per shard (index = shard number)."""
        return [len(shard) for shard in self._shards]

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def save(self, merge: bool = True) -> None:
        """Persist every shard (merge-saves by default: the sharded
        cache exists for concurrent writers)."""
        for shard in self._shards:
            shard.save(merge=merge)

    @property
    def stats(self) -> CacheStats:
        """Aggregated counters across all shards (a snapshot)."""
        total = CacheStats()
        for shard in self._shards:
            total.add(shard.stats)
        return total

    def shard_stats(self) -> list[dict]:
        """Per-shard stats snapshot (for the daemon's ``stats`` kind)."""
        return [
            {
                "shard": index,
                "entries": len(shard),
                "bytes_on_disk": shard.bytes_on_disk(),
                "path": shard.path,
                **shard.stats.as_dict(),
            }
            for index, shard in enumerate(self._shards)
        ]
