"""Batch front end: many programs through the portfolio, with a report.

``run_batch`` fans a list of programs across a process pool (each
worker runs the full portfolio ladder for its program), consults the
shared result cache in the parent before dispatching and stores fresh
results after, and aggregates everything into a
:class:`BatchReport` -- throughput, latency percentiles, cache service
fraction and the per-scheme win table the CLI prints.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.ir.program import Program
from repro.opt.network_builder import BuildOptions
from repro.service.cache import ResultCache
from repro.service.fingerprint import request_fingerprint
from repro.service.portfolio import PortfolioConfig, PortfolioResult, PortfolioSolver


@dataclass
class BatchReport:
    """Aggregate view of one batch run.

    Attributes:
        results: one :class:`PortfolioResult` per program, input order.
        wall_seconds: end-to-end batch wall-clock time.
        workers: size of the program-level worker pool used.
    """

    results: list[PortfolioResult]
    wall_seconds: float
    workers: int

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.from_cache)

    @property
    def cached_fraction(self) -> float:
        """Fraction of requests served from cache (0.0 on empty batch)."""
        if not self.results:
            return 0.0
        return self.cache_hits / len(self.results)

    #: Floor for the wall clock in rate computations: a fully-cached
    #: batch can finish inside the clock's resolution, and dividing by
    #: a (near-)zero wall time would report infinite/garbage rates.
    MIN_WALL_SECONDS = 1e-9

    @property
    def throughput(self) -> float:
        """Programs per second (finite even on a zero-length wall clock).

        A fully-cached batch can complete faster than the timer's
        resolution; the wall clock is clamped to
        :data:`MIN_WALL_SECONDS` so the rate stays a finite, positive
        number instead of 0.0 (the old nonsense value: "we served N
        programs at 0/s") or a ``ZeroDivisionError``.
        """
        if not self.results:
            return 0.0
        return len(self.results) / max(self.wall_seconds, self.MIN_WALL_SECONDS)

    def latencies(self) -> list[float]:
        """Per-program solve latencies (non-negative), sorted ascending.

        Sorted once, lazily, on first use (``format()`` asks for three
        percentiles of the same batch); callers get a copy so mutating
        the returned list cannot corrupt later percentile queries.
        """
        return list(self._sorted_latencies())

    def _sorted_latencies(self) -> list[float]:
        cached = getattr(self, "_latency_cache", None)
        if cached is None or len(cached) != len(self.results):
            cached = sorted(
                max(result.solve_seconds, 0.0) for result in self.results
            )
            self._latency_cache = cached
        return cached

    def latency_percentile(self, fraction: float) -> float:
        """The given latency percentile (0.0 on an empty batch).

        ``fraction=0.0`` is the minimum, ``fraction=1.0`` the maximum
        (a single-item batch answers that item for every fraction).

        Raises:
            ValueError: when ``fraction`` is outside [0, 1].
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be within [0, 1]")
        latencies = self._sorted_latencies()
        if not latencies:
            return 0.0
        index = min(int(fraction * len(latencies)), len(latencies) - 1)
        return latencies[index]

    def scheme_wins(self) -> dict[str, int]:
        """winner scheme -> number of programs it won."""
        wins: dict[str, int] = {}
        for result in self.results:
            if result.winner is not None:
                wins[result.winner] = wins.get(result.winner, 0) + 1
        return wins

    def format(self) -> str:
        """The human-readable throughput/latency report."""
        lines = ["Throughput report"]
        exact = sum(1 for r in self.results if r.exact)
        lines.append(
            f"  programs: {self.total} ({exact} exact), "
            f"wall {self.wall_seconds:.2f}s, "
            f"{self.throughput:.2f} programs/s, workers={self.workers}"
        )
        latencies = self.latencies()
        if latencies:
            mean = sum(latencies) / len(latencies)
            p50 = self.latency_percentile(0.5)
            lines.append(
                f"  latency: mean {mean * 1000:.1f}ms  p50 {p50 * 1000:.1f}ms  "
                f"max {latencies[-1] * 1000:.1f}ms"
            )
        percent = 100.0 * self.cached_fraction
        lines.append(
            f"  cache: served {self.cache_hits}/{self.total} from cache "
            f"({percent:.1f}%)"
        )
        wins = self.scheme_wins()
        if wins:
            table = "  ".join(
                f"{scheme}={count}"
                for scheme, count in sorted(wins.items(), key=lambda kv: -kv[1])
            )
            lines.append(f"  scheme wins: {table}")
        return "\n".join(lines)


#: Per-process solver reuse: a pool worker serves many map items, so
#: rebuilding the portfolio plumbing per program is pure waste.
_WORKER_SOLVERS: dict[tuple, PortfolioSolver] = {}


def _worker_solver(
    config: PortfolioConfig, options: BuildOptions
) -> PortfolioSolver:
    key = (repr(config), repr(options))
    solver = _WORKER_SOLVERS.get(key)
    if solver is None:
        if len(_WORKER_SOLVERS) >= 8:  # different batches, same process
            _WORKER_SOLVERS.clear()
        solver = PortfolioSolver(config, options=options)
        _WORKER_SOLVERS[key] = solver
    return solver


def _solve_one(
    program: Program,
    config: PortfolioConfig,
    options: BuildOptions,
    fingerprint: str,
) -> dict:
    """Pool worker: solve one program, return the serialized result."""
    solver = _worker_solver(config, options)
    return solver.optimize(program, fingerprint=fingerprint).to_dict()


def run_batch(
    programs: Sequence[Program],
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    cache: ResultCache | None = None,
    workers: int = 1,
    client=None,
) -> BatchReport:
    """Serve a batch of programs and aggregate the outcome.

    Cache lookups and stores happen in the parent (the pool workers are
    stateless), so one shared cache serves the whole batch and repeat
    programs inside a single batch are solved only once.

    Args:
        programs: the request list (order is preserved in the report).
        config: portfolio configuration (defaults to the default
            ladder).
        options: network-construction options shared by every request.
        cache: optional shared result cache.
        workers: program-level process pool size; 1 serves the batch
            in-process.
        client: optional :class:`repro.service.stream.DaemonClient`;
            when given, the whole batch is pipelined through the
            resident daemon instead of being solved here, and
            ``config``/``options``/``cache``/``workers`` are the
            *daemon's* concern (the local values are ignored).  Batch
            mode then is a thin client of the same serving loop.

    Raises:
        ValueError: for a non-positive worker count.
        RuntimeError: when the daemon answers a request with an error.
    """
    if client is not None:
        return _run_batch_via_daemon(programs, client)
    if workers < 1:
        raise ValueError("workers must be positive")
    config = config if config is not None else PortfolioConfig()
    options = options if options is not None else BuildOptions()
    token = config.token()
    start = time.perf_counter()

    slots: list[PortfolioResult | None] = [None] * len(programs)
    pending: list[tuple[int, Program, str]] = []
    seen_fingerprints: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []
    for index, program in enumerate(programs):
        fingerprint = request_fingerprint(program, options)
        cached = cache.get(fingerprint, token) if cache is not None else None
        if cached is not None:
            result = PortfolioResult.from_dict(cached, from_cache=True)
            result.program = program.name  # entry may be a renamed twin
            slots[index] = result
            continue
        if fingerprint in seen_fingerprints:
            duplicates.append((index, seen_fingerprints[fingerprint]))
            continue
        seen_fingerprints[fingerprint] = index
        pending.append((index, program, fingerprint))

    if pending:
        if workers == 1 or len(pending) == 1:
            solver = PortfolioSolver(config, options=options)
            fresh = [
                solver.optimize(program, fingerprint=fingerprint)
                for _, program, fingerprint in pending
            ]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                serialized = list(
                    pool.map(
                        _solve_one,
                        [program for _, program, _ in pending],
                        [config] * len(pending),
                        [options] * len(pending),
                        [fingerprint for _, _, fingerprint in pending],
                    )
                )
            fresh = [PortfolioResult.from_dict(data) for data in serialized]
        for (index, _, fingerprint), result in zip(pending, fresh):
            slots[index] = result
            if cache is not None and result.exact:
                # Mirror PortfolioSolver: never freeze a deadline-shaped
                # best-effort answer into the cache.
                cache.put(fingerprint, token, result.to_dict())

    # Duplicate requests inside the batch reuse the first occurrence's
    # result (reported as cache-served: the ladder ran once).
    for index, source in duplicates:
        original = slots[source]
        assert original is not None
        duplicate = PortfolioResult.from_dict(original.to_dict(), from_cache=True)
        duplicate.program = programs[index].name  # may be a renamed twin
        slots[index] = duplicate

    results = [result for result in slots if result is not None]
    return BatchReport(
        results=results,
        wall_seconds=time.perf_counter() - start,
        workers=workers,
    )


def _run_batch_via_daemon(programs: Sequence[Program], client) -> BatchReport:
    """Pipeline the batch through a resident daemon (thin-client mode)."""
    start = time.perf_counter()
    responses = client.solve_many(programs)
    results: list[PortfolioResult] = []
    for program, response in zip(programs, responses):
        if not response.get("ok"):
            raise RuntimeError(
                f"daemon error for {program.name}: "
                f"{response.get('error', 'unknown error')}"
            )
        result = PortfolioResult.from_dict(
            response["result"], from_cache=bool(response.get("from_cache"))
        )
        result.program = program.name
        results.append(result)
    return BatchReport(
        results=results,
        wall_seconds=time.perf_counter() - start,
        workers=0,  # the daemon's pool did the work, not a local one
    )
