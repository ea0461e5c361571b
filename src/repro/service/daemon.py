"""The resident solver daemon: an async streaming front end.

``python -m repro.service`` used to be a one-shot batch CLI: every
invocation paid process-pool spin-up, re-read the JSON cache from
disk, and exited.  The daemon keeps all of that resident:

* a **persistent** pool of warm workers (:mod:`repro.service.workers`)
  -- each holds a reusable
  :class:`~repro.service.portfolio.PortfolioSolver` and
  :class:`~repro.service.evaluate.EvaluationService` instance, each
  built once around one optimizer pipeline -- so a miss pays only the
  ``build -> solve -> repair`` passes (each traced as ``pass:<name>``
  and timed in ``repro_pass_seconds``);
* one :class:`~repro.service.cache.ResultCache` consulted in the
  parent, so warm requests answer without touching a worker at all,
  and merge-saved to one JSON file, so a restart serves every answer
  it stored;
* an **asyncio** serving loop reading JSON-lines requests (see
  :mod:`repro.service.stream`) from one unix socket or from stdin,
  answering out of order as work completes;
* **one request path**: a solve and an evaluate take the same
  synchronous step (wire memo, fingerprint, token, cache, reply) and,
  on a miss, the same asynchronous one.  An evaluate without explicit
  layouts is the solve, then a price: it takes the solve's answer
  from the cache or from the solve's own deduplicated dispatch, so a
  program is optimized once whichever kind arrives first;
* **backpressure** via a bounded in-flight semaphore: when
  ``max_inflight`` misses are being served, the daemon stops
  *reading* from the connection, the socket buffer fills, and the
  client's writes block -- flow control falls out of socket/pipe
  semantics instead of an unbounded queue.  A request the cache
  answers takes no permit: it is answered in the read loop itself.
  Replies are buffered, never waited on, so a client that pipelines a
  whole batch before reading cannot deadlock it;
* **in-flight deduplication**: concurrent identical misses (same
  fingerprint and token) share one worker dispatch;
* a **decode-free hit path** in two forms, both over one bounded
  memo.  A repeat solve or evaluate line in the compact form
  :class:`~repro.service.stream.DaemonClient` writes is answered from
  its bytes: the SHA-256 of everything after its id finds the memo
  entry, one cache lookup confirms the answer, and the reply is
  written around the ``result`` body encoded on an earlier hit -- no
  JSON decode, no wire key, no JSON encode of the result.  Any other
  line (traced, another id form, extra fields) is decoded, and a
  SHA-256 over :mod:`marshal` bytes of its program wire with the
  objects' keys sorted (see :func:`wire_memo_key`) finds the request
  fingerprint, so the cache answers without rebuilding the
  :class:`~repro.ir.program.Program` (it is decoded on first sight,
  and again only when the cache no longer holds the answer);
* **shutdown by cancellation**: a ``shutdown`` request cancels every
  stream waiting in its read loop; each stream still answers the
  requests it has in flight, the acknowledgement among them.

One daemon per host is the deployment: its worker pool takes the
host's cores, and every client talks to it over its unix socket.  The
batch front end stays available -- ``run_batch(..., client=...)``
turns it into a thin client of a running daemon.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import logging
import marshal
import os
import re
import stat
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import import_module

from repro import __version__
from repro.csp.vectorized import native_available
from repro.ir.program import Program
from repro.obs import (
    CONTENT_TYPE,
    MetricsRegistry,
    TraceJsonWriter,
    prometheus_text,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.trace import NOOP_SPAN, Span
from repro.opt.passes.base import PASS_SECONDS_METRIC
from repro.opt.ladder import preload_schemes
from repro.opt.network_builder import BuildOptions
from repro.service import stream
from repro.service.cache import ResultCache
from repro.service.evaluate import (
    EvaluationRequest,
    check_evaluation_fields,
    evaluation_token,
    hierarchy_from_overrides,
)
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig
from repro.service.stream import ProtocolError
from repro.service.workers import noop, start_pool, worker_evaluate, worker_solve
from repro.simul.batchwalk import HAVE_NUMPY

logger = logging.getLogger(__name__)

#: Longest request line a socket connection accepts (asyncio's default
#: ``StreamReader`` limit); a longer one is answered with a
#: ``request_too_large`` error and the connection is closed.
MAX_REQUEST_BYTES = 64 * 1024

#: LRU bound of the daemon's result cache (and of its wire memo).
CACHE_CAPACITY = 4096

#: Fresh stores between two merge-saves of the cache file (the daemon
#: also saves on shutdown).
SAVE_EVERY = 64


@dataclass(frozen=True)
class DaemonConfig:
    """Resident-service knobs (the portfolio itself lives in
    :class:`~repro.service.portfolio.PortfolioConfig`).

    Attributes:
        workers: size of the persistent solve/evaluate process pool.
        max_inflight: bound on concurrently served misses; beyond it
            the daemon stops reading and lets the transport push back.
        cache_path: the result cache's JSON file (None = memory only).
        ttl_seconds: optional per-entry time-to-live.
    """

    workers: int = 2
    max_inflight: int = 32
    cache_path: str | None = None
    ttl_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")


# -- the wire memo -------------------------------------------------------


class _BoundedMemo(OrderedDict):
    """A tiny LRU mapping: the daemon's wire memo."""

    def __init__(self, capacity: int):
        super().__init__()
        self._capacity = capacity

    def get(self, key, default=None):
        value = super().get(key, default)
        if key in self:
            self.move_to_end(key)
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self._capacity:
            self.popitem(last=False)


@dataclass(slots=True)
class _MemoEntry:
    """What the wire memo knows of a program wire form: its request
    fingerprint and ``name``.  An entry keyed by a line's bytes after
    its id also holds the line's ``kind`` and cache ``token`` and, once
    a repeat was answered from them, the encoded ``result`` body of the
    reply with the cached value it was encoded from.  Each line has an
    entry of its own, so a solve body and an evaluate body never mix."""

    fingerprint: str
    name: object
    kind: str | None = None
    token: str | None = None
    body: bytes | None = None
    held: dict | None = None


#: The compact head of a solve or evaluate line as ``DaemonClient``
#: writes it: ``{"id":`` then ``null``, ``0`` or a nonzero integer of
#: at most 18 digits, then a comma and the ``kind``.  Each of these ids
#: re-encodes to its own bytes, so a reply can carry them verbatim.
_ID_PREFIX = re.compile(
    rb'\{"id":(null|0|-?[1-9][0-9]{0,17}),(?="kind":"(?:solve|evaluate)",)'
)

#: The fields a line answered from its bytes may hold after its id, by
#: kind: those its reply depends on, each once.  A ``trace`` field, a
#: second ``id`` or any other field keeps a line on the dict path.
_EXACT_FIELDS = {
    "solve": {"kind", "program"},
    "evaluate": {
        "kind", "program", "cost_model", "hierarchy", "layouts", "sim_cap"
    },
}

#: An exact-bytes hit's reply, formatted around the id, the kind, the
#: held ``result`` body and the latency: the bytes
#: :func:`~repro.service.stream.encode_response` writes for the same
#: reply dict.
_EXACT_REPLY = (
    b'{"id":%s,"ok":true,"kind":"%s","from_cache":true,'
    b'"result":%s,"seconds":%s}\n'
)


def wire_memo_key(wire) -> bytes | None:
    """The wire memo's key for a program wire form; None when the wire
    cannot be keyed (it is then served, just never memoized).

    A SHA-256 over the :mod:`marshal` bytes of the wire with the
    top-level object and each ``nests`` object turned into tuples of
    sorted items, so twins whose keys are only reordered share a key.
    JSON never yields a tuple, and ``marshal.loads(marshal.dumps(x))
    == x``, so equal bytes mean an equal wire, leaf types included
    (``1``, ``1.0`` and ``true`` are three keys): a key never maps two
    programs to one fingerprint.  Format 2 writes no back-references,
    so the bytes depend on the values alone, not on which of them
    share one object.  An equal wire with unequal bytes (an object
    elsewhere in another key order) costs only a memo miss.
    """
    if type(wire) is not dict:
        return None
    nests = wire.get("nests")
    if type(nests) is not list or any(type(n) is not dict for n in nests):
        return None  # malformed: ``program_from_wire`` rejects it
    try:
        canonical = tuple(
            sorted(
                (key, [tuple(sorted(nest.items())) for nest in nests])
                if key == "nests"
                else (key, value)
                for key, value in wire.items()
            )
        )
        return hashlib.sha256(marshal.dumps(canonical, 2)).digest()
    except (TypeError, ValueError):  # unorderable keys, unmarshallable leaves
        return None


@dataclass(slots=True)
class _RequestState:
    """One solve or evaluate request's decoded state, built by its
    synchronous half (:meth:`SolverDaemon._answer`) and handed to its
    miss (:meth:`SolverDaemon._miss`), so one request looks the memo
    up once.  ``fields`` are an evaluate's :class:`EvaluationRequest`
    arguments but the program (None for a solve)."""

    kind: str
    payload: dict
    start: float
    root: object
    wire: dict
    program: Program | None
    fingerprint: str
    token: str
    fields: dict | None


# -- the daemon ----------------------------------------------------------


class SolverDaemon:
    """A resident, async, streaming layout-solver service.

    Args:
        config: portfolio ladder run for solve misses (and evaluate
            requests without explicit layouts).
        options: network-construction options shared by all requests.
        daemon_config: resident-service knobs (pool size, backpressure
            bound, cache file, TTL).
        cache: pre-built result cache to serve from; by default one is
            constructed from ``daemon_config`` (persistent when
            ``cache_path`` is set).  Passing a cache explicitly is how
            benchmarks warm a daemon from a cold batch run.
        trace_log: path (or writable stream) receiving one JSON line
            per served solve/evaluate request's span tree.  Setting it
            also makes every request record a real span tree even when
            the client did not ask for ``"trace": true``.
    """

    def __init__(
        self,
        config: PortfolioConfig | None = None,
        options: BuildOptions | None = None,
        daemon_config: DaemonConfig | None = None,
        cache=None,
        trace_log=None,
    ):
        self._config = config if config is not None else PortfolioConfig()
        self._options = options if options is not None else BuildOptions()
        self._daemon_config = (
            daemon_config if daemon_config is not None else DaemonConfig()
        )
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ResultCache(
                capacity=CACHE_CAPACITY,
                path=self._daemon_config.cache_path,
                ttl_seconds=self._daemon_config.ttl_seconds,
            )
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: asyncio.Semaphore | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._shutdown = asyncio.Event()
        #: Streams waiting in their read loop (a shutdown cancels them)
        #: and live socket connections (a shutdown waits for them).
        self._readers: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        # Monotonic, so a system clock step never makes uptime jump
        # (or go negative) in `stats`.
        self._started_at = time.monotonic()
        self._unsaved_stores = 0
        #: The daemon's own metrics registry: request latency recorded
        #: by the event loop, plus every worker's shipped delta folded
        #: in by the dedup owner.  Explicit (not the module-global
        #: convenience API) because the async loop interleaves
        #: requests on one thread.
        self.registry = MetricsRegistry()
        self._trace_writer = (
            TraceJsonWriter(trace_log) if trace_log is not None else None
        )
        self.counters = {
            "requests": 0,
            "solve": 0,
            "evaluate": 0,
            "cache_served": 0,
            "deduplicated": 0,
            "errors": 0,
        }
        #: Per-engine serving breakdown of worker-dispatched misses:
        #: which propagation engine ran.  `scripts/daemon_smoke.py`
        #: asserts on this.
        self.engine_counters = {"bitset": 0, "native": 0}
        #: Error replies by reason code (every error reply carries one).
        self.error_counters = dict.fromkeys(stream.ERROR_REASONS, 0)
        #: Wire memo, two kinds of key to :class:`_MemoEntry`:
        #: :func:`wire_memo_key` of a request's program wire form,
        #: filled only once the wire decoded and fingerprinted, so a
        #: repeat skips both; and the SHA-256 of a solve or evaluate
        #: line's bytes after its id, filled by a cache hit on such a
        #: line, so a repeat of those bytes skips the decode too.
        #: Bounded like the result cache.
        self._wire_memo = _BoundedMemo(self.cache.capacity)
        #: ``exact_hits`` is the share of ``hits`` found by line bytes.
        self.wire_memo_counters = {"hits": 0, "misses": 0, "exact_hits": 0}

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = start_pool(
                self._daemon_config.workers, self._config, self._options
            )
        return self._pool

    def _semaphore(self) -> asyncio.Semaphore:
        if self._inflight is None:
            self._inflight = asyncio.Semaphore(self._daemon_config.max_inflight)
        return self._inflight

    def warm_up(self) -> None:
        """Spin the pool up eagerly (first request pays nothing).

        The native kernel and the ladder's solver modules are loaded
        first, so forked workers inherit them instead of loading them
        on their first miss.
        """
        if native_available():
            import_module("repro.csp.native.ops")
        preload_schemes(self._config.schemes)
        pool = self._ensure_pool()
        # A no-op round through every worker forces initializer runs.
        for _ in pool.map(noop, range(self._daemon_config.workers)):
            pass

    def close(self) -> None:
        """Persist the cache and release the pool."""
        self._save()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=False, cancel_futures=True)
            # The exit sentinel can race the call-queue feeder thread
            # and leave an idle worker blocked on the queue forever
            # (observed on 3.11; cpython gh-94440 family).  A stuck
            # worker would then deadlock *this* process's interpreter
            # exit, which joins all multiprocessing children -- so
            # give workers a short grace, then terminate stragglers.
            workers = list((getattr(pool, "_processes", None) or {}).values())
            deadline = time.monotonic() + 5.0
            for worker in workers:
                worker.join(max(0.1, deadline - time.monotonic()))
                if worker.is_alive():
                    logger.warning(
                        "terminating pool worker %s stuck past shutdown",
                        worker.pid,
                    )
                    worker.terminate()
        if self._trace_writer is not None:
            self._trace_writer.close()
            self._trace_writer = None

    # -- request handling ------------------------------------------------

    async def handle_line(self, line: str | bytes) -> dict:
        """Serve one raw request line; always returns a response dict."""
        try:
            payload = stream.decode_request(line)
        except ProtocolError as exc:
            return self._error(
                stream.best_effort_id(line), str(exc), stream.BAD_REQUEST
            )
        return await self.handle_request(payload)

    async def handle_request(self, payload: dict) -> dict:
        """Serve one decoded request.

        A solve or evaluate the cache answers needs no in-flight
        permit; a miss holds one while it is served.
        """
        request_id = payload.get("id")
        kind = payload["kind"]
        try:
            if kind in _EXACT_FIELDS:  # solve, evaluate: count themselves
                answer = self._answer(payload)
                if not isinstance(answer, _RequestState):
                    return answer
                async with self._semaphore():
                    return await self._miss(answer)
            self.counters["requests"] += 1
            if kind == "ping":
                return self._hello(request_id)
            if kind == "stats":
                return {
                    "id": request_id,
                    "ok": True,
                    "kind": "stats",
                    "result": self.stats(),
                }
            if kind == "metrics":
                return {
                    "id": request_id,
                    "ok": True,
                    "kind": "metrics",
                    "result": {
                        "text": prometheus_text(self.metrics_snapshot()),
                        "content_type": CONTENT_TYPE,
                    },
                }
            if kind == "shutdown":
                self._shutdown.set()
                self._stop_reading()
                return {"id": request_id, "ok": True, "kind": "shutdown"}
            raise ProtocolError(f"unknown request kind {kind!r}")
        except Exception as exc:
            return self._failure(request_id, exc)

    def _failure(self, request_id, exc: Exception) -> dict:
        """The error reply for a request whose handler raised: a
        protocol error is the client's, anything else the daemon's."""
        if isinstance(exc, ProtocolError):
            return self._error(request_id, str(exc), stream.BAD_REQUEST)
        # Worker and validation failures stay on-wire.
        logger.exception("request %r failed", request_id)
        return self._error(request_id, repr(exc), stream.INTERNAL)

    def _error(self, request_id, message: str, reason: str) -> dict:
        """An error reply with its reason code, counted by reason."""
        self.counters["errors"] += 1
        self.error_counters[reason] += 1
        return stream.error_response(request_id, message, reason=reason)

    def _hello(self, request_id) -> dict:
        result = {
            "version": __version__,
            "schemes": list(self._config.schemes),
            "workers": self._daemon_config.workers,
            "max_inflight": self._daemon_config.max_inflight,
            # Whether the batch cache simulator (evaluate requests)
            # runs vectorized; the solvers never use numpy.
            "numpy": HAVE_NUMPY,
            "native": native_available(),
        }
        return {
            "id": request_id,
            "ok": True,
            "kind": "ping",
            "result": result,
        }

    def stats(self) -> dict:
        """Serving counters plus cache statistics and engine breakdown."""
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "counters": dict(self.counters),
            "engines": dict(self.engine_counters),
            "wire_memo": {
                "entries": len(self._wire_memo),
                **self.wire_memo_counters,
            },
            "cache": self._cache_stats(),
            "passes": self._pass_stats(),
        }

    def _cache_stats(self) -> dict:
        """The result cache's size, on-disk bytes and counters."""
        return {
            "entries": len(self.cache),
            "bytes_on_disk": self.cache.bytes_on_disk(),
            **self.cache.stats.as_dict(),
        }

    def _pass_stats(self) -> dict:
        """Per-pass wall clock accumulated from worker telemetry.

        Workers run the optimizer phases under the shared
        ``repro_pass_seconds{pass}`` histogram; their per-request
        metric deltas are merged into the daemon registry, so the
        breakdown here covers every solve the daemon dispatched.
        """
        passes: dict[str, dict] = {}
        for name, label_items, instrument in self.registry.iter_metrics():
            if name != PASS_SECONDS_METRIC:
                continue
            label = dict(label_items).get("pass", "")
            passes[label] = {
                "seconds": instrument.sum,
                "count": instrument.count,
            }
        return passes

    def metrics_snapshot(self) -> dict:
        """One coherent exposition-ready snapshot of everything.

        Folds the live registry (request latency + accumulated worker
        deltas) together with the serving counters, the per-engine
        breakdown, and the result cache's statistics -- always into a
        *fresh* registry, so scraping twice never double-counts: each
        scrape re-derives totals from the live sources of truth.
        """
        registry = MetricsRegistry()
        registry.merge_snapshot(self.registry.snapshot())
        registry.gauge(
            "repro_daemon_uptime_seconds",
            help="Seconds since the daemon object was constructed.",
        ).set(time.monotonic() - self._started_at)
        for event, count in self.counters.items():
            registry.counter(
                "repro_daemon_requests_total",
                {"event": event},
                help="Requests served, by lifecycle event.",
            ).inc(count)
        for engine, count in self.engine_counters.items():
            registry.counter(
                "repro_daemon_engine_total",
                {"engine": engine},
                help="Worker-dispatched misses by engine.",
            ).inc(count)
        for reason, count in self.error_counters.items():
            registry.counter(
                "repro_daemon_errors_total",
                {"reason": reason},
                help="Error replies by reason code.",
            ).inc(count)
        for result, count in (
            ("hit", self.wire_memo_counters["hits"]),
            ("miss", self.wire_memo_counters["misses"]),
        ):
            registry.counter(
                "repro_daemon_wire_memo_total",
                {"result": result},
                help="Solve/evaluate program wire forms found in (hit) or "
                "missing from (miss) the wire-digest -> fingerprint memo.",
            ).inc(count)
        cache = self._cache_stats()
        registry.gauge(
            "repro_cache_entries", help="Live result-cache entries."
        ).set(cache.pop("entries"))
        registry.gauge(
            "repro_cache_bytes_on_disk", help="Persisted result-cache bytes."
        ).set(cache.pop("bytes_on_disk"))
        for field, count in cache.items():
            registry.counter(
                f"repro_cache_{field}_total",
                help=f"Result-cache {field.replace('_', '-')}.",
            ).inc(count)
        return registry.snapshot()

    def _record_engine(self, data: dict) -> None:
        """Fold one worker miss's engine into the breakdown."""
        engine = data.get("engine")
        if engine in self.engine_counters:
            self.engine_counters[engine] += 1

    def _request_span(self, payload: dict, kind: str):
        """A real root span when anyone will look at it, else the no-op.

        Real when the client asked (``"trace": true``) or the daemon
        tees span trees to a trace log; otherwise requests pay the
        shared no-op span's one-branch cost.
        """
        if payload.get("trace") or self._trace_writer is not None:
            return Span(f"request:{kind}", attributes={"kind": kind})
        return NOOP_SPAN

    def _observe_latency(self, kind: str, seconds: float) -> None:
        self.registry.histogram(
            "repro_request_seconds",
            {"kind": kind},
            help="Daemon request latency by request kind.",
            bounds=DEFAULT_LATENCY_BUCKETS,
        ).observe(seconds)

    def _finish(self, root, payload: dict, response: dict, start: float) -> dict:
        """Stamp latency, record it, and flush/attach the span tree."""
        seconds = time.perf_counter() - start
        response["seconds"] = seconds
        self._observe_latency(response["kind"], seconds)
        if root:
            root.set_attribute("id", payload.get("id"))
            root.set_attribute("from_cache", response.get("from_cache", False))
            root.end()
            if self._trace_writer is not None:
                self._trace_writer.write(root.to_dict())
            if payload.get("trace"):
                response["trace"] = root.to_dict()
        return response

    def _memo_lookup(self, wire) -> tuple[bytes | None, _MemoEntry | None]:
        """The wire form's memo key and its memo entry (None on a memo
        miss, or when the wire cannot be keyed)."""
        key = wire_memo_key(wire)  # None is never stored: always a miss
        entry = self._wire_memo.get(key)
        self.wire_memo_counters["misses" if entry is None else "hits"] += 1
        return key, entry

    def _memo_entry(
        self,
        key: bytes | None,
        entry: _MemoEntry | None,
        wire: dict,
        program: Program | None,
    ) -> _MemoEntry:
        """The memo entry, or compute and memoize one from the decoded
        ``program`` (so only a valid wire ever enters the memo)."""
        if entry is None:
            entry = _MemoEntry(
                request_fingerprint(program, self._options), wire["name"]
            )
            if key is not None:
                self._wire_memo[key] = entry
        return entry

    def _line_key(self, line: bytes) -> tuple[bytes, bytes, bytes] | None:
        """``(id, rest, digest)`` of a solve or evaluate line in the
        compact form (:data:`_ID_PREFIX`): its id bytes, its bytes after
        the id and their SHA-256, the key of an exact-bytes memo entry.
        None for any other line, and for every line when a trace log is
        kept (each request then records a span tree, so takes the dict
        path)."""
        if self._trace_writer is not None:
            return None
        match = _ID_PREFIX.match(line)
        if match is None:
            return None
        rest = line[match.end():]
        return match.group(1), rest, hashlib.sha256(rest).digest()

    def _answer_exact(
        self, line: bytes, line_key: tuple[bytes, bytes, bytes]
    ) -> bytes | _RequestState | None:
        """A repeat line answered from its bytes: no decode, no
        :func:`wire_memo_key`, no encode of the result.

        None when the memo holds no entry for the line's bytes (the
        line then takes the dict path).  Otherwise the reply line, or
        -- when the cache no longer holds the answer -- the
        :class:`_RequestState` of the miss, after the one cache lookup.
        Counters move as a dict-path hit moves them.
        """
        start = time.perf_counter()
        request_id, _, digest = line_key
        entry = self._wire_memo.get(digest)
        if entry is None:
            return None
        kind = entry.kind
        self.counters["requests"] += 1
        self.counters[kind] += 1
        self.wire_memo_counters["hits"] += 1
        self.wire_memo_counters["exact_hits"] += 1
        cached = self.cache.get(entry.fingerprint, entry.token)
        if cached is None:  # expired or evicted: serve the miss
            # Decodes: its bytes after the id decoded in a keyed line.
            payload = stream.decode_request(line)
            return _RequestState(
                kind, payload, start, NOOP_SPAN, payload["program"], None,
                entry.fingerprint, entry.token, _request_fields(payload),
            )
        self.counters["cache_served"] += 1
        if entry.held is not cached:
            result = dict(cached)
            result["program"] = entry.name
            entry.body = json.dumps(result, separators=(",", ":")).encode()
            entry.held = cached
        seconds = time.perf_counter() - start
        self._observe_latency(kind, seconds)
        return _EXACT_REPLY % (
            request_id, kind.encode(), entry.body, repr(seconds).encode()
        )

    def _key_exact(self, line_key: tuple, state: _RequestState) -> None:
        """Key a hit line's bytes after its id by an entry of their own,
        when they hold only :data:`_EXACT_FIELDS` of their kind, each
        once."""
        _, rest, digest = line_key
        # Decodes, as the whole line did; objects decode to their
        # (key, value) pairs, so a repeated key stays visible.
        names = [key for key, _ in json.loads(b"{" + rest, object_pairs_hook=list)]
        unique = len(set(names)) == len(names)
        if unique and _EXACT_FIELDS[state.kind].issuperset(names):
            self._wire_memo[digest] = _MemoEntry(
                state.fingerprint, state.wire["name"], state.kind, state.token
            )

    def _answer(
        self, payload: dict, line_key: tuple | None = None
    ) -> dict | _RequestState:
        """A solve or evaluate's synchronous half: wire memo,
        fingerprint, token, cache.

        Returns the reply when the cache answers (or the request is
        malformed), else the :class:`_RequestState` that :meth:`_miss`
        serves.  The read loop calls it directly, so a hit costs no
        task and no permit, and passes the line's :meth:`_line_key`: a
        hit then keys the line's bytes as well.  An evaluate's fields
        are checked on every request; only the check of explicit
        layouts against the program waits for a miss, since a cached
        answer's layouts fit the arrays its fingerprint names.
        """
        kind = payload["kind"]
        self.counters["requests"] += 1
        self.counters[kind] += 1
        start = time.perf_counter()
        root = self._request_span(payload, kind)
        try:
            with root.phase("decode"):
                wire = payload["program"]
                key, entry = self._memo_lookup(wire)
                program = None
                if entry is None:
                    program = stream.program_from_wire(wire)
                fields = _request_fields(payload)
            with root.phase("fingerprint"):
                entry = self._memo_entry(key, entry, wire, program)
                token = self._config.token()
                if fields is not None:
                    token = evaluation_token(token, **fields)
            state = _RequestState(
                kind, payload, start, root, wire, program,
                entry.fingerprint, token, fields,
            )
            reply = self._cached_reply(state)
        except Exception as exc:
            return self._failure(payload.get("id"), exc)
        if reply is None:
            return state
        if line_key is not None:
            self._key_exact(line_key, state)
        return reply

    def _cached_reply(self, state: _RequestState) -> dict | None:
        """The request's reply from the cache, or None when it has
        none: the one place a request is answered from the cache."""
        root = state.root
        with root.phase("cache_lookup"):
            cached = self.cache.get(state.fingerprint, state.token)
        if cached is None:
            return None
        self.counters["cache_served"] += 1
        with root.phase("encode"):
            result = dict(cached)
            # May be a renamed twin; Program keeps its name verbatim.
            result["program"] = state.wire["name"]
        response = {
            "id": state.payload.get("id"),
            "ok": True,
            "kind": state.kind,
            "from_cache": True,
            "result": result,
        }
        return self._finish(root, state.payload, response, state.start)

    async def _miss(self, state: _RequestState) -> dict:
        """A request's asynchronous half: serve the miss on the pool.

        The caller holds the in-flight permit.  A twin's answer may
        have reached the cache while this request waited for it; it is
        then served from there instead of computed again.  An evaluate
        without explicit layouts prices its solve's answer: from the
        cache, else from the same deduplicated dispatch a solve miss
        makes (which stores it), so a solve and its evaluate, in
        either order, run the ladder once.
        """
        fingerprint, root = state.fingerprint, state.root
        try:
            if self.cache.contains(fingerprint, state.token):
                reply = self._cached_reply(state)
                if reply is not None:
                    return reply
            program = state.program
            if program is None:  # memo hit whose answer left the cache
                with root.phase("decode"):
                    program = stream.program_from_wire(state.wire)
            if state.fields is None:
                data = await self._dispatch(
                    fingerprint, state.token, root, worker_solve, program, fingerprint
                )
            else:
                try:
                    request = EvaluationRequest(program=program, **state.fields)
                except ValueError as exc:  # explicit layouts that do not fit
                    raise ProtocolError(str(exc)) from exc
                solved = None
                if request.layouts is None:
                    token = self._config.token()
                    solved = self.cache.get(fingerprint, token)
                    if solved is None:
                        solved = (await self._dispatch(
                            fingerprint, token, root, worker_solve, program,
                            fingerprint,
                        ))["result"]
                data = await self._dispatch(
                    fingerprint, state.token, root, worker_evaluate, request, solved
                )
            with root.phase("encode"):
                result = dict(data["result"])
                result["program"] = program.name
            response = {
                "id": state.payload.get("id"),
                "ok": True,
                "kind": state.kind,
                "from_cache": False,
                "result": result,
            }
            return self._finish(root, state.payload, response, state.start)
        except Exception as exc:
            return self._failure(state.payload.get("id"), exc)

    def _merge_worker_telemetry(self, data: dict) -> None:
        """Fold a worker's shipped metric delta into the live registry.

        Owner-only (like `_record_engine`): the merge is a sum, so the
        fold must see each worker capture exactly once.
        """
        telemetry = data.get("telemetry")
        if telemetry and telemetry.get("metrics"):
            self.registry.merge_snapshot(telemetry["metrics"])

    async def _dispatch(
        self, fingerprint: str, token: str, request_span, worker_fn, *args
    ) -> dict:
        """Run a miss on the warm pool, deduplicating concurrent twins.

        Only the dedup *owner* (the task that actually dispatched to
        the pool) stores the result -- twins share the answer without
        re-storing it, so store counters and the periodic
        persistence see each fresh result exactly once.
        """
        key = f"{fingerprint}|{token}"
        existing = self._pending.get(key)
        if existing is not None:
            self.counters["deduplicated"] += 1
            with request_span.phase("dedup_wait") as wait_span:
                data = await asyncio.shield(existing)
            # Every request's trace shows the worker's phases, twin or
            # not (adopt() builds fresh Span objects per call, so the
            # owner's and each twin's trees never alias).
            _adopt_worker_spans(wait_span, data)
            return data
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[key] = future
        try:
            with request_span.phase("dispatch") as dispatch_span:
                data = await loop.run_in_executor(
                    self._ensure_pool(), worker_fn, *args
                )
            # Only the owner records: dedup twins share this payload,
            # and one worker miss must count once in the breakdown.
            self._record_engine(data)
            self._merge_worker_telemetry(data)
            _adopt_worker_spans(dispatch_span, data)
            if data["exact"]:
                self._store(fingerprint, token, data["result"])
            future.set_result(data)
            return data
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # A twin may or may not be waiting; don't warn if not.
                future.exception()
            raise
        finally:
            self._pending.pop(key, None)

    def _store(self, fingerprint: str, token: str, value: dict) -> None:
        """Cache a fresh exact result; persist periodically."""
        self.cache.put(fingerprint, token, value)
        self._unsaved_stores += 1
        if self._unsaved_stores >= SAVE_EVERY:
            self._save()

    def _save(self) -> None:
        """Merge-save the cache: another process (a batch run on the
        same file, say) may have stored entries since the last save."""
        self.cache.save(merge=True)
        self._unsaved_stores = 0

    # -- serving loops ---------------------------------------------------

    def _stop_reading(self) -> None:
        """Cancel every stream waiting in its read loop: with
        ``_shutdown`` set, :meth:`_serve_stream` takes that as the end
        of its stream.  Each stream is cancelled once."""
        readers, self._readers = self._readers, set()
        for reader in readers:
            reader.cancel()

    async def _serve_stream(self, read_line, write_line) -> None:
        """Core loop: read lines, answer cache hits in place, serve the
        rest each as its own task, stream responses back in completion
        order.

        A solve or evaluate the cache answers is replied to right here,
        with no task and no permit.  A line whose bytes after its id an
        earlier hit keyed costs one digest, one lookup and one
        formatted reply (:meth:`_answer_exact`); any other one decode,
        one memo key, one lookup and one encode (:meth:`_answer`), and
        a hit of that kind keys its line's bytes for the next repeat
        (:meth:`_key_exact`).  Backpressure for the rest is
        event-driven: a miss is only *handed to a task* once an
        in-flight permit is held, so a full daemon stops reading and
        the transport pushes back on the client.  Control kinds
        (ping/stats/metrics/shutdown) bypass the bound: a saturated
        daemon stays inspectable and stoppable.

        ``write_line`` buffers its line and must not wait for the peer
        to read it: a client may send a whole pipelined batch before it
        reads a reply (:class:`~repro.service.stream.DaemonClient`
        does), and a loop that stopped reading until its replies were
        read would deadlock against it.  So a write never suspends,
        and replies need no lock to keep their lines whole.

        A ``shutdown`` request (on any stream) cancels this loop's
        wait wherever it is; the loop then stops reading, and its tail
        still answers the requests in flight -- the shutdown
        acknowledgement among them.  A cancellation without
        ``_shutdown`` set propagates as usual.

        A line over :data:`MAX_REQUEST_BYTES` gets one
        ``request_too_large`` error reply and ends the stream (requests
        already in flight are still answered): the rest of that line
        cannot be told apart from the next request.
        """
        inflight = self._semaphore()
        tasks: set[asyncio.Task] = set()

        async def respond(response: dict) -> None:
            await write_line(stream.encode_response(response))

        async def serve(coroutine, permit: bool) -> None:
            try:
                response = await coroutine
            finally:
                if permit:
                    inflight.release()
            await respond(response)

        def spawn(coroutine) -> None:
            task = asyncio.create_task(coroutine)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        reader = asyncio.current_task()
        self._readers.add(reader)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await read_line()
                except ValueError:  # over the StreamReader line limit
                    self.counters["requests"] += 1
                    response = self._error(
                        None,
                        f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                        stream.REQUEST_TOO_LARGE,
                    )
                    await respond(response)
                    break
                if not line:  # EOF
                    break
                if not line.strip():
                    continue
                line_key = self._line_key(line)
                answer = None
                if line_key is not None:
                    answer = self._answer_exact(line, line_key)
                if answer is None:
                    try:
                        payload = stream.decode_request(line)
                    except ProtocolError as exc:
                        self.counters["requests"] += 1
                        response = self._error(
                            stream.best_effort_id(line), str(exc), stream.BAD_REQUEST
                        )
                        await respond(response)
                        continue
                    if payload["kind"] not in _EXACT_FIELDS:  # control
                        spawn(serve(self.handle_request(payload), permit=False))
                        continue
                    answer = self._answer(payload, line_key)
                if type(answer) is bytes:
                    await write_line(answer)
                elif isinstance(answer, _RequestState):
                    await inflight.acquire()
                    spawn(serve(self._miss(answer), permit=True))
                else:
                    await respond(answer)
        except asyncio.CancelledError:
            if not self._shutdown.is_set():
                raise
            if hasattr(reader, "uncancel"):  # Python 3.11+
                reader.uncancel()
        finally:
            self._readers.discard(reader)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one socket connection until EOF or shutdown."""

        async def write_line(data: bytes) -> None:
            # No ``drain()``: the transport buffers what the client has
            # not read yet (see `_serve_stream`); closing flushes it.
            writer.write(data)

        connection = asyncio.current_task()
        self._connections.add(connection)
        try:
            await self._serve_stream(reader.readline, write_line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            self._connections.discard(connection)

    async def serve_unix(self, socket_path: str) -> None:
        """Listen on a unix socket until a ``shutdown`` request.

        The socket file is removed on exit, once every connection has
        answered what it had in flight and closed.  A stale file left
        by a SIGKILL-ed predecessor is reclaimed on entry -- but only
        after a probe connection confirms nothing live is accepting on
        it (:func:`reclaim_stale_socket`), so two daemons can never
        silently fight over one path.
        """
        reclaim_stale_socket(socket_path)
        self.warm_up()
        server = await asyncio.start_unix_server(
            self.serve_connection, path=socket_path, limit=MAX_REQUEST_BYTES
        )
        logger.info("daemon listening on %s", socket_path)
        try:
            async with server:
                await self._shutdown.wait()
                # Also ends the streams when ``_shutdown`` was set
                # directly rather than by a request.
                self._stop_reading()
            await asyncio.gather(*self._connections, return_exceptions=True)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(socket_path)
            self.close()

    async def serve_stdio(self) -> None:
        """Serve JSON lines from stdin to stdout (one-shot pipelines:
        ``printf '...requests...' | python -m repro.service --serve``).

        Reads via a daemon pump thread feeding a *bounded* asyncio
        queue, so stdin may be a pipe, a redirected regular file, or a
        tty; the queue bound keeps stdin backpressure real, awaiting
        the queue stays cancellable (a ``shutdown`` request exits even
        while the client holds stdin open), and the pump thread dies
        with the process instead of pinning interpreter exit.  The
        pump reads the raw descriptor: a thread blocked in
        ``sys.stdin.buffer.readline`` holds that buffer's lock, and
        interpreter exit aborts when it cannot take it.
        """
        loop = asyncio.get_running_loop()
        self.warm_up()
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self._daemon_config.max_inflight
        )
        descriptor = sys.stdin.fileno()

        def put(line: bytes) -> None:
            asyncio.run_coroutine_threadsafe(queue.put(line), loop).result()

        def pump() -> None:
            pending = b""
            try:
                while chunk := os.read(descriptor, 1 << 16):
                    *lines, pending = (pending + chunk).split(b"\n")
                    for line in lines:
                        put(line + b"\n")
                if pending:
                    put(pending)
            except (RuntimeError, OSError):  # loop closed mid-shutdown
                return
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(queue.put_nowait, b"")

        threading.Thread(
            target=pump, daemon=True, name="repro-stdin-pump"
        ).start()

        async def write_line(data: bytes) -> None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()

        try:
            await self._serve_stream(queue.get, write_line)
        finally:
            self.close()


def reclaim_stale_socket(path: str) -> None:
    """Remove a unix socket file only if no live daemon holds it.

    A daemon killed with SIGKILL leaves its socket file behind; a
    blind ``unlink`` on startup would also happily sever a *running*
    daemon from its clients.  Probe first: if something accepts a
    connection on the path the socket is live and binding must fail;
    if the connection is refused the file is stale and safe to remove.
    Non-socket files are never touched.

    Raises:
        OSError: when a live daemon already serves the path, or the
            path exists but is not a socket.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise OSError(
            f"refusing to reclaim {path}: exists but is not a socket"
        )
    try:
        stream.connect_unix(path, timeout=1.0).close()
    except (ConnectionRefusedError, TimeoutError):
        # Nothing is accepting: a stale file from an abnormal shutdown.
        with contextlib.suppress(OSError):
            os.unlink(path)
    except FileNotFoundError:
        pass  # raced with another reclaimer; the bind will tell
    else:
        raise OSError(
            f"socket {path} is held by a live daemon; "
            "refusing to unlink it"
        )


def _adopt_worker_spans(parent, data: dict) -> None:
    """Re-parent a worker's shipped span tree under a request phase."""
    if not parent:
        return
    telemetry = data.get("telemetry") or {}
    for payload in telemetry.get("spans", ()):
        if payload:
            with contextlib.suppress(ValueError):
                parent.adopt(payload)


def _request_fields(payload: dict) -> dict | None:
    """An evaluate's :class:`EvaluationRequest` arguments but the
    program, checked as far as they can be without it; None for a
    solve.

    Raises:
        ProtocolError: for malformed fields (so the daemon answers
            with an error line instead of a stack trace).
    """
    if payload["kind"] != "evaluate":
        return None
    hierarchy = None
    if payload.get("hierarchy") is not None:
        overrides = payload["hierarchy"]
        if not isinstance(overrides, dict):
            raise ProtocolError("'hierarchy' must be a field-override object")
        try:
            hierarchy = hierarchy_from_overrides(overrides)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    layouts = None
    if payload.get("layouts") is not None:
        if not isinstance(payload["layouts"], dict):
            raise ProtocolError("'layouts' must be an object")
        layouts = stream.layouts_from_wire(payload["layouts"])
    sim_cap = payload.get("sim_cap")
    if sim_cap is not None and (isinstance(sim_cap, bool) or not isinstance(sim_cap, int)):
        raise ProtocolError("'sim_cap' must be an integer")
    cost_model = payload.get("cost_model", "simulated")
    if not isinstance(cost_model, str):
        raise ProtocolError("'cost_model' must be a string")
    try:
        check_evaluation_fields(cost_model, hierarchy, sim_cap)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    return dict(
        cost_model=cost_model, hierarchy=hierarchy, layouts=layouts,
        max_iterations_per_nest=sim_cap,
    )


def serve(
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    daemon_config: DaemonConfig | None = None,
    socket_path: str | None = None,
    trace_log: str | None = None,
) -> int:
    """Blocking entry point used by the CLI's ``--serve``: serve the
    unix socket at ``socket_path``, or stdio without one."""
    daemon = SolverDaemon(
        config=config,
        options=options,
        daemon_config=daemon_config,
        trace_log=trace_log,
    )
    if socket_path is not None:
        asyncio.run(daemon.serve_unix(socket_path))
    else:
        asyncio.run(daemon.serve_stdio())
    return 0
