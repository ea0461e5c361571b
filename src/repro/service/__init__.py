"""The layout solver *service* layer: batched, cached, resident.

The core library answers one request at a time with one hand-picked
scheme; this package turns it into a serving stack:

* :mod:`repro.service.fingerprint` -- canonical, order-independent
  fingerprints for programs, constraint networks and configurations
  (stable across processes: cache keys).
* :mod:`repro.service.cache` -- an in-memory LRU result cache with
  optional persistence to one JSON file (merge-saved, so the daemon
  and batch runs can share it) and hit/miss/save statistics.
* :mod:`repro.service.portfolio` -- a result cache in front of the
  optimizer's ``build -> solve -> repair`` passes, whose solve climbs
  the deterministic scheme ladder of :mod:`repro.opt.ladder`: schemes
  run one after another in priority order, the first exact answer
  wins, a cooperative deadline bounds the worst case and the weighted
  branch & bound is the fallback; with a per-scheme outcome table.
* :mod:`repro.service.batch` -- many programs served in process (or
  through a daemon), producing a throughput/latency report.
* :mod:`repro.service.evaluate` -- the ``evaluate`` request kind:
  price a program's layouts under any registered cost model with
  per-request cache-hierarchy overrides (one deployment, many
  machine models).
* :mod:`repro.service.daemon` -- the resident solver daemon: an async
  streaming loop over a persistent warm worker pool, fronted by the
  persistent result cache, with backpressure.
* :mod:`repro.service.workers` -- the warm worker processes behind
  the daemon's pool, the one pool site.
* :mod:`repro.service.stream` -- the daemon's JSON-lines wire protocol
  and the synchronous pipelining :class:`DaemonClient`, which talks to
  one daemon over its unix socket.
* :mod:`repro.service.cli` -- the ``python -m repro.service`` front
  end tying it all together (``--serve`` / ``--connect`` for the
  daemon).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BatchReport": ".batch",
    "run_batch": ".batch",
    "CacheStats": ".cache",
    "ResultCache": ".cache",
    "DaemonConfig": ".daemon",
    "SolverDaemon": ".daemon",
    "DaemonClient": ".stream",
    "ProtocolError": ".stream",
    "EvaluationRequest": ".evaluate",
    "EvaluationResult": ".evaluate",
    "EvaluationService": ".evaluate",
    "parse_hierarchy_overrides": ".evaluate",
    "run_evaluation_batch": ".evaluate",
    "canonical_value_token": ".fingerprint",
    "network_fingerprint": ".fingerprint",
    "program_fingerprint": ".fingerprint",
    "request_fingerprint": ".fingerprint",
    "DEFAULT_SCHEMES": ".portfolio",
    "PortfolioConfig": ".portfolio",
    "PortfolioResult": ".portfolio",
    "PortfolioSolver": ".portfolio",
    "SchemeOutcome": ".portfolio",
    "known_schemes": ".portfolio",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
