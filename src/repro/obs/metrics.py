"""Process-local metrics: counters, gauges, histograms, merge.

The registry is a flat dict keyed by ``(metric name, sorted label
items)``; instruments are plain objects mutated in place.  There is no
locking: every writer in this codebase is either the daemon's event
loop (single-threaded) or a pool worker (single-threaded process), and
the cross-process path goes through snapshots, not shared mutation.

Snapshots are the transport and merge unit.  A warm pool worker runs
its request inside :func:`collecting`, which swaps in a fresh registry
and yields its snapshot at the end; the daemon folds that delta into
the global registry with :func:`merge_snapshot`.  Merge is defined as
*sum* for every instrument kind -- counters add, histogram buckets and
sums add, and gauges add too (a shipped gauge is a delta by
convention) -- so the fold is associative and commutative and the
final registry is independent of worker completion order.

Like tracing, the module-level convenience API (:func:`counter`,
:func:`observe`, ...) is off by default and costs one branch when
disabled.  The daemon flips it on at startup; library code calls it
unconditionally.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "EFFORT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "merge_snapshot",
    "observe",
    "set_enabled",
    "set_registry",
]

#: Request/phase latency buckets in seconds: 1 ms .. 10 s, roughly
#: geometric.  Fixed (not configurable per call site) so histograms
#: from different processes always merge bucket-for-bucket.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Solver-effort buckets (nodes, consistency checks): powers of ten.
#: These bucket the paper's machine-independent counters, so the
#: exposition surface reports effort distributions per engine rather
#: than non-portable wall clock.
EFFORT_BUCKETS = (
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)


def _label_key(labels: Mapping | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """A value that can go either way (queue depth, uptime).

    In a shipped snapshot a gauge is interpreted as a *delta* and
    merged by summing, which keeps the worker fold order-independent.
    Point-in-time gauges (uptime) are set at scrape time on the
    daemon's own registry and never shipped.
    """

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"kind": "gauge", "value": self.value}


class Histogram:
    """Cumulative-bucket histogram with fixed upper bounds."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds=DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds = bounds
        # One slot per finite bound; +Inf is implied by `count`.
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1

    def snapshot(self) -> dict:
        return {
            "kind": "histogram",
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All instruments of one process (or one captured delta)."""

    def __init__(self):
        # (name, label-items-tuple) -> instrument
        self._metrics: dict = {}
        # name -> (kind, help text); first registration wins.
        self._meta: dict = {}

    def _get(self, name, labels, kind, help, bounds=None):
        meta = self._meta.get(name)
        if meta is None:
            self._meta[name] = (kind, help or "")
        elif meta[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {meta[0]}, not {kind}"
            )
        key = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            if kind == "histogram":
                instrument = Histogram(bounds or DEFAULT_LATENCY_BUCKETS)
            else:
                instrument = _KINDS[kind]()
            self._metrics[key] = instrument
        return instrument

    def counter(self, name: str, labels: Mapping | None = None, help: str = "") -> Counter:
        return self._get(name, labels, "counter", help)

    def gauge(self, name: str, labels: Mapping | None = None, help: str = "") -> Gauge:
        return self._get(name, labels, "gauge", help)

    def histogram(
        self,
        name: str,
        labels: Mapping | None = None,
        help: str = "",
        bounds=None,
    ) -> Histogram:
        return self._get(name, labels, "histogram", help, bounds=bounds)

    def iter_metrics(self) -> Iterator[tuple]:
        """Yields (name, label-items, instrument), name-sorted."""
        for (name, label_items), instrument in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield name, label_items, instrument

    def help_text(self, name: str) -> str:
        meta = self._meta.get(name)
        return meta[1] if meta else ""

    def snapshot(self) -> dict:
        """JSON-encodable dump: the wire/merge form of this registry."""
        metrics = []
        for name, label_items, instrument in self.iter_metrics():
            entry = instrument.snapshot()
            entry["name"] = name
            entry["labels"] = [list(pair) for pair in label_items]
            entry["help"] = self.help_text(name)
            metrics.append(entry)
        return {"metrics": metrics}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a shipped delta into this registry (sum semantics)."""
        for entry in snapshot.get("metrics", ()):
            name = entry["name"]
            labels = {key: value for key, value in entry.get("labels", ())}
            kind = entry["kind"]
            if kind == "counter":
                self.counter(name, labels, help=entry.get("help", "")).inc(
                    entry["value"]
                )
            elif kind == "gauge":
                self.gauge(name, labels, help=entry.get("help", "")).inc(
                    entry["value"]
                )
            elif kind == "histogram":
                histogram = self.histogram(
                    name,
                    labels,
                    help=entry.get("help", ""),
                    bounds=entry["bounds"],
                )
                if list(histogram.bounds) != [
                    float(bound) for bound in entry["bounds"]
                ]:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds disagree; "
                        "snapshots only merge bucket-for-bucket"
                    )
                for index, count in enumerate(entry["buckets"]):
                    histogram.bucket_counts[index] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValueError(f"unknown metric kind {kind!r}")


def merge_snapshot(base: Mapping, delta: Mapping) -> dict:
    """Pure-function merge of two snapshots."""
    registry = MetricsRegistry()
    registry.merge_snapshot(base)
    registry.merge_snapshot(delta)
    return registry.snapshot()


# -- module-level convenience API ---------------------------------------

_ENABLED = False
_REGISTRY = MetricsRegistry()


def set_enabled(on: bool) -> None:
    """Turn the module-level convenience API on or off globally."""
    global _ENABLED
    _ENABLED = bool(on)


def enabled() -> bool:
    return _ENABLED


def get_registry() -> MetricsRegistry:
    """The active registry (what :func:`counter` et al. write into)."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def counter(
    name: str,
    amount: float = 1.0,
    labels: Mapping | None = None,
    help: str = "",
) -> None:
    """Increment a counter on the active registry (no-op when off)."""
    if not _ENABLED:
        return
    _REGISTRY.counter(name, labels, help=help).inc(amount)


def gauge(
    name: str,
    value: float,
    labels: Mapping | None = None,
    help: str = "",
) -> None:
    """Set a gauge on the active registry (no-op when off)."""
    if not _ENABLED:
        return
    _REGISTRY.gauge(name, labels, help=help).set(value)


def observe(
    name: str,
    value: float,
    labels: Mapping | None = None,
    help: str = "",
    bounds=None,
) -> None:
    """Record a histogram observation (no-op when off)."""
    if not _ENABLED:
        return
    _REGISTRY.histogram(name, labels, help=help, bounds=bounds).observe(value)


@contextmanager
def collecting():
    """Capture this thread-of-control's metric writes as a delta.

    Swaps a fresh registry in (enabling the convenience API for the
    duration) and yields it; read ``registry.snapshot()`` after the
    block to ship the delta.  This is the pool-worker capture path --
    single-threaded processes only, same caveat as ``trace.recording``.
    """
    fresh = MetricsRegistry()
    previous_registry = set_registry(fresh)
    previous_enabled = _ENABLED
    set_enabled(True)
    try:
        yield fresh
    finally:
        set_registry(previous_registry)
        set_enabled(previous_enabled)
