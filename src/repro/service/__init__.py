"""The layout solver *service* layer: batched, cached, resident.

The core library answers one request at a time with one hand-picked
scheme; this package turns it into a serving stack:

* :mod:`repro.service.fingerprint` -- canonical, order-independent
  fingerprints for programs, constraint networks and configurations
  (stable across processes: cache keys).
* :mod:`repro.service.cache` -- an in-memory LRU result cache with
  optional JSON persistence and hit/miss statistics.
* :mod:`repro.service.portfolio` -- a result cache in front of the
  optimizer's ``build -> solve -> repair`` passes, whose solve climbs
  the deterministic scheme ladder of :mod:`repro.opt.ladder`: schemes
  run one after another in priority order, the first exact answer
  wins, a cooperative deadline bounds the worst case and the weighted
  branch & bound is the fallback; with a per-scheme outcome table.
* :mod:`repro.service.batch` -- many programs fanned across a worker
  pool, producing a throughput/latency report.
* :mod:`repro.service.evaluate` -- the ``evaluate`` request kind:
  price a program's layouts under any registered cost model with
  per-request cache-hierarchy overrides (one deployment, many
  machine models).
* :mod:`repro.service.daemon` -- the resident solver daemon: an async
  streaming loop over a persistent warm worker pool, fronted by a
  *sharded* persistent result cache with backpressure.
* :mod:`repro.service.stream` -- the daemon's JSON-lines wire protocol
  and the synchronous pipelining :class:`DaemonClient` (with
  client-side consistent-hash routing when given several addresses).
* :mod:`repro.service.routing` -- the consistent-hash ring mapping
  request fingerprints to daemons for a multi-address client, plus
  the address vocabulary shared by clients and daemons.
* :mod:`repro.service.cli` -- the ``python -m repro.service`` front
  end tying it all together (``--serve`` / ``--connect`` for the
  daemon).
"""

from repro.service.batch import BatchReport, run_batch
from repro.service.cache import CacheStats, ResultCache, ShardedResultCache
from repro.service.daemon import DaemonConfig, SolverDaemon
from repro.service.evaluate import (
    EvaluationRequest,
    EvaluationResult,
    EvaluationService,
    parse_hierarchy_overrides,
    run_evaluation_batch,
)
from repro.service.fingerprint import (
    canonical_value_token,
    network_fingerprint,
    program_fingerprint,
    request_fingerprint,
)
from repro.service.portfolio import (
    DEFAULT_SCHEMES,
    PortfolioConfig,
    PortfolioResult,
    PortfolioSolver,
    SchemeOutcome,
    known_schemes,
)
from repro.service.routing import HashRing
from repro.service.stream import DaemonClient, ProtocolError

__all__ = [
    "BatchReport",
    "run_batch",
    "CacheStats",
    "ResultCache",
    "ShardedResultCache",
    "HashRing",
    "DaemonConfig",
    "SolverDaemon",
    "DaemonClient",
    "ProtocolError",
    "EvaluationRequest",
    "EvaluationResult",
    "EvaluationService",
    "parse_hierarchy_overrides",
    "run_evaluation_batch",
    "canonical_value_token",
    "network_fingerprint",
    "program_fingerprint",
    "request_fingerprint",
    "DEFAULT_SCHEMES",
    "PortfolioConfig",
    "PortfolioResult",
    "PortfolioSolver",
    "SchemeOutcome",
    "known_schemes",
]
