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
* a **sharded** :class:`~repro.service.cache.ShardedResultCache`
  consulted in the parent, so warm requests answer without touching a
  worker at all;
* an **asyncio** serving loop reading JSON-lines requests (see
  :mod:`repro.service.stream`) from one unix socket or from stdin,
  answering out of order as work completes;
* **backpressure** via a bounded in-flight semaphore: when
  ``max_inflight`` solve misses and evaluate requests are being
  served, the daemon stops *reading* from the connection, the socket
  buffer fills, and the client's writes block -- flow control falls
  out of socket/pipe semantics instead of an unbounded queue.  A
  solve the cache answers takes no permit: it is answered in the read
  loop itself.  Replies are buffered, never waited on, so a client
  that pipelines a whole batch before reading cannot deadlock it;
* **in-flight deduplication**: concurrent identical misses (same
  fingerprint and config token) share one worker dispatch;
* a **decode-free hit path**: a bounded memo maps a digest of a
  request's program wire form to its request fingerprint, so a
  repeat solve answers from the cache without rebuilding the
  :class:`~repro.ir.program.Program` (it is decoded on first sight,
  and again only when the cache no longer holds the answer).  The
  digest is a SHA-256 over :mod:`marshal` bytes of the wire with its
  objects' keys sorted (see :func:`wire_memo_key`);
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
import logging
import marshal
import os
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
from repro.service.cache import ShardedResultCache
from repro.service.evaluate import EvaluationRequest, hierarchy_from_overrides
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


@dataclass(frozen=True)
class DaemonConfig:
    """Resident-service knobs (the portfolio itself lives in
    :class:`~repro.service.portfolio.PortfolioConfig`).

    Attributes:
        workers: size of the persistent solve/evaluate process pool.
        max_inflight: bound on concurrently served requests; beyond it
            the daemon stops reading and lets the transport push back.
        shards: result-cache shard count.
        cache_dir: shard persistence directory (None = memory only).
        cache_capacity: LRU bound per shard.
        ttl_seconds: optional per-entry time-to-live.
        save_every: persist dirty shards after this many fresh stores
            (and always on shutdown).
    """

    workers: int = 2
    max_inflight: int = 32
    shards: int = 4
    cache_dir: str | None = None
    cache_capacity: int = 1024
    ttl_seconds: float | None = None
    save_every: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if self.save_every < 1:
            raise ValueError("save_every must be positive")


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
class _SolveState:
    """One solve's decoded state, built by its synchronous half and
    handed to its miss dispatch, so one request looks the memo up
    once."""

    payload: dict
    start: float
    root: object
    wire: dict
    program: Program | None
    fingerprint: str
    token: str


# -- the daemon ----------------------------------------------------------


class SolverDaemon:
    """A resident, async, streaming layout-solver service.

    Args:
        config: portfolio ladder run for solve misses (and evaluate
            requests without explicit layouts).
        options: network-construction options shared by all requests.
        daemon_config: resident-service knobs (pool size, shards,
            backpressure bound, TTL, persistence directory).
        cache: pre-built result cache to serve from; by default one is
            constructed from ``daemon_config`` (sharded, persistent
            when ``cache_dir`` is set).  Passing a cache explicitly is
            how benchmarks warm a daemon from a cold batch run.
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
            self.cache = ShardedResultCache(
                shards=self._daemon_config.shards,
                capacity=self._daemon_config.cache_capacity,
                directory=self._daemon_config.cache_dir,
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
        #: Wire memo: :func:`wire_memo_key` of a request's program wire
        #: form -> its request fingerprint, filled only once the wire decoded
        #: and fingerprinted, so a repeat skips both.  Bounded like the
        #: result cache itself (capacity per shard x shards).
        self._wire_memo = _BoundedMemo(
            self._daemon_config.cache_capacity * self._daemon_config.shards
        )
        self.wire_memo_counters = {"hits": 0, "misses": 0}

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
        self.cache.save()
        self._unsaved_stores = 0
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

        A solve the cache answers needs no in-flight permit; a solve
        miss and an evaluate request hold one while they are served.
        """
        if payload.get("kind") == "evaluate":
            async with self._semaphore():
                return await self._serve_decoded(payload)
        return await self._serve_decoded(payload)

    async def _serve_decoded(self, payload: dict) -> dict:
        """Serve one decoded request; the caller owns any evaluate
        permit (a solve takes its own, on a miss only)."""
        request_id = payload.get("id")
        kind = payload["kind"]
        try:
            if kind == "solve":
                return await self._handle_solve(payload)  # counts itself
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
            return await self._handle_evaluate(payload)
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
            "shards": self.cache.shard_count
            if hasattr(self.cache, "shard_count")
            else 1,
        }
        return {
            "id": request_id,
            "ok": True,
            "kind": "ping",
            "result": result,
        }

    def stats(self) -> dict:
        """Serving counters plus cache statistics and engine breakdown."""
        snapshot = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "counters": dict(self.counters),
            "engines": dict(self.engine_counters),
            "wire_memo": {
                "entries": len(self._wire_memo),
                **self.wire_memo_counters,
            },
            "cache": {
                "entries": len(self.cache),
                **self.cache.stats.as_dict(),
            },
            "passes": self._pass_stats(),
        }
        if hasattr(self.cache, "bytes_on_disk"):
            snapshot["cache"]["bytes_on_disk"] = self.cache.bytes_on_disk()
        if hasattr(self.cache, "shard_stats"):
            snapshot["cache"]["shards"] = self.cache.shard_stats()
        return snapshot

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
        breakdown, and per-shard cache statistics -- always into a
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
        if hasattr(self.cache, "shard_stats"):
            shard_rows = self.cache.shard_stats()
        else:
            shard_rows = [
                {"shard": 0, "entries": len(self.cache), **self.cache.stats.as_dict()}
            ]
        for row in shard_rows:
            labels = {"shard": str(row["shard"])}
            registry.gauge(
                "repro_cache_entries",
                labels,
                help="Live entries per result-cache shard.",
            ).set(row.get("entries", 0))
            if "bytes_on_disk" in row:
                registry.gauge(
                    "repro_cache_bytes_on_disk",
                    labels,
                    help="Persisted bytes per result-cache shard.",
                ).set(row["bytes_on_disk"])
            for field in (
                "hits",
                "misses",
                "stores",
                "evictions",
                "expirations",
                "saves",
                "merge_saves",
            ):
                registry.counter(
                    f"repro_cache_{field}_total",
                    labels,
                    help=f"Result-cache {field.replace('_', '-')} per shard.",
                ).inc(row.get(field, 0))
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

    def _finish(self, root, payload: dict, response: dict, start: float) -> dict:
        """Stamp latency, record it, and flush/attach the span tree."""
        seconds = time.perf_counter() - start
        response["seconds"] = seconds
        self.registry.histogram(
            "repro_request_seconds",
            {"kind": response["kind"]},
            help="Daemon request latency by request kind.",
            bounds=DEFAULT_LATENCY_BUCKETS,
        ).observe(seconds)
        if root:
            root.set_attribute("id", payload.get("id"))
            root.set_attribute("from_cache", response.get("from_cache", False))
            root.end()
            if self._trace_writer is not None:
                self._trace_writer.write(root.to_dict())
            if payload.get("trace"):
                response["trace"] = root.to_dict()
        return response

    def _memo_lookup(self, wire) -> tuple[bytes | None, str | None]:
        """The wire form's memo key and its memoized fingerprint (None
        on a memo miss, or when the wire cannot be keyed)."""
        key = wire_memo_key(wire)  # None is never stored: always a miss
        fingerprint = self._wire_memo.get(key)
        self.wire_memo_counters["misses" if fingerprint is None else "hits"] += 1
        return key, fingerprint

    def _fingerprint(
        self, key: bytes | None, fingerprint: str | None, program: Program | None
    ) -> str:
        """The memoized fingerprint, or compute and memoize it from the
        decoded ``program`` (so only a valid wire ever enters the memo)."""
        if fingerprint is None:
            fingerprint = request_fingerprint(program, self._options)
            if key is not None:
                self._wire_memo[key] = fingerprint
        return fingerprint

    async def _handle_solve(self, payload: dict) -> dict:
        """Serve one solve: from the cache at once, else under an
        in-flight permit on the pool."""
        answer = self._answer_solve(payload)
        if not isinstance(answer, _SolveState):
            return answer
        async with self._semaphore():
            return await self._solve_miss(answer)

    def _answer_solve(self, payload: dict) -> dict | _SolveState:
        """A solve's synchronous half: wire memo, fingerprint, cache.

        Returns the reply when the cache answers (or the request is
        malformed), else the :class:`_SolveState` that
        :meth:`_solve_miss` dispatches from.  The read loop calls it
        directly, so a hit costs no task and no permit.
        """
        self.counters["requests"] += 1
        self.counters["solve"] += 1
        start = time.perf_counter()
        root = self._request_span(payload, "solve")
        try:
            with root.phase("decode"):
                wire = payload["program"]
                key, fingerprint = self._memo_lookup(wire)
                program = None
                if fingerprint is None:
                    program = stream.program_from_wire(wire)
            with root.phase("fingerprint"):
                fingerprint = self._fingerprint(key, fingerprint, program)
                token = self._config.token()
            state = _SolveState(
                payload, start, root, wire, program, fingerprint, token
            )
            return self._cached_reply(state) or state
        except Exception as exc:
            return self._failure(payload.get("id"), exc)

    def _cached_reply(self, state: _SolveState) -> dict | None:
        """The solve's reply from the cache, or None when it has none:
        the one place a solve is answered from the cache."""
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
            "kind": "solve",
            "from_cache": True,
            "result": result,
        }
        return self._finish(root, state.payload, response, state.start)

    async def _solve_miss(self, state: _SolveState) -> dict:
        """A solve's asynchronous half: dispatch the miss to the pool.

        The caller holds the in-flight permit.  A twin's answer may
        have reached the cache while this request waited for it; it is
        then served from there instead of solved again.
        """
        try:
            if self.cache.contains(state.fingerprint, state.token):
                reply = self._cached_reply(state)
                if reply is not None:
                    return reply
            root = state.root
            program = state.program
            if program is None:  # memo hit whose answer left the cache
                with root.phase("decode"):
                    program = stream.program_from_wire(state.wire)
            data = await self._dispatch(
                state.fingerprint,
                state.token,
                root,
                worker_solve,
                program,
                state.fingerprint,
            )
            with root.phase("encode"):
                result = dict(data["result"])
                result["program"] = program.name
            response = {
                "id": state.payload.get("id"),
                "ok": True,
                "kind": "solve",
                "from_cache": False,
                "result": result,
            }
            return self._finish(root, state.payload, response, state.start)
        except Exception as exc:
            return self._failure(state.payload.get("id"), exc)

    async def _handle_evaluate(self, payload: dict) -> dict:
        start = time.perf_counter()
        self.counters["evaluate"] += 1
        root = self._request_span(payload, "evaluate")
        with root.phase("decode"):
            wire = payload["program"]
            key, fingerprint = self._memo_lookup(wire)
            program = stream.program_from_wire(wire)
            request = _evaluation_request(program, payload)
        with root.phase("fingerprint"):
            fingerprint = self._fingerprint(key, fingerprint, program)
            token = request.token(self._config.token())
        with root.phase("cache_lookup"):
            cached = self.cache.get(fingerprint, token)
        if cached is not None:
            self.counters["cache_served"] += 1
            with root.phase("encode"):
                result = dict(cached)
                result["program"] = program.name
            response = {
                "id": payload.get("id"),
                "ok": True,
                "kind": "evaluate",
                "from_cache": True,
                "result": result,
            }
            return self._finish(root, payload, response, start)
        data = await self._dispatch(
            fingerprint, token, root, worker_evaluate, request
        )
        with root.phase("encode"):
            result = dict(data["result"])
            result["program"] = program.name
        response = {
            "id": payload.get("id"),
            "ok": True,
            "kind": "evaluate",
            "from_cache": False,
            "result": result,
        }
        return self._finish(root, payload, response, start)

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
        re-storing it, so store counters and the periodic shard
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
        """Cache a fresh exact result; persist shards periodically."""
        self.cache.put(fingerprint, token, value)
        self._unsaved_stores += 1
        if self._unsaved_stores >= self._daemon_config.save_every:
            self.cache.save()
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

        A solve the cache answers is replied to right here: one decode,
        one memo key, one lookup, one encode, with no task and no
        permit.  Backpressure for the rest is event-driven: a solve
        miss or an evaluate line is only *handed to a task* once an
        in-flight permit is held, so a full daemon stops reading and
        the transport pushes back on the client.  Control kinds
        (ping/stats/shutdown) bypass the bound: a saturated daemon
        stays inspectable and stoppable.

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
                try:
                    payload = stream.decode_request(line)
                except ProtocolError as exc:
                    self.counters["requests"] += 1
                    response = self._error(
                        stream.best_effort_id(line), str(exc), stream.BAD_REQUEST
                    )
                    await respond(response)
                    continue
                kind = payload["kind"]
                if kind == "solve":
                    answer = self._answer_solve(payload)
                    if not isinstance(answer, _SolveState):
                        await respond(answer)
                        continue
                    await inflight.acquire()
                    spawn(serve(self._solve_miss(answer), permit=True))
                elif kind == "evaluate":
                    await inflight.acquire()
                    spawn(serve(self._serve_decoded(payload), permit=True))
                else:
                    spawn(serve(self._serve_decoded(payload), permit=False))
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


def _evaluation_request(program: Program, payload: dict) -> EvaluationRequest:
    """Decode the evaluate-specific request fields.

    Raises:
        ProtocolError: for malformed fields (so the daemon answers
            with an error line instead of a stack trace).
    """
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
        return EvaluationRequest(
            program=program,
            cost_model=cost_model,
            hierarchy=hierarchy,
            layouts=layouts,
            max_iterations_per_nest=sim_cap,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


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
