"""Batch front end: many programs through the portfolio, with a report.

``run_batch`` serves a list of programs one after another in process
through one :class:`~repro.service.portfolio.PortfolioSolver` (which
looks each request up in the optional shared result cache before it
runs the ladder and stores exact answers after), and aggregates the
outcome into a :class:`BatchReport` -- throughput, latency
percentiles, cache service fraction and the per-scheme win table the
CLI prints.  Parallel batch serving goes through the resident daemon:
``run_batch(..., client=...)`` pipelines the batch to its warm pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.ir.program import Program
from repro.opt.network_builder import BuildOptions
from repro.service.cache import ResultCache
from repro.service.portfolio import PortfolioConfig, PortfolioResult, PortfolioSolver


@dataclass
class BatchReport:
    """Aggregate view of one batch run.

    Attributes:
        results: one :class:`PortfolioResult` per program, input order.
        wall_seconds: end-to-end batch wall-clock time.
    """

    results: list[PortfolioResult]
    wall_seconds: float

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
            f"{self.throughput:.2f} programs/s"
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


def run_batch(
    programs: Sequence[Program],
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    cache: ResultCache | None = None,
    client=None,
) -> BatchReport:
    """Serve a batch of programs and aggregate the outcome.

    One shared cache serves the whole batch, so a program repeated
    inside it is solved once and its twins are served from the cache
    (when the first answer was exact: a best-effort answer is never
    cached).  Without a cache every program is solved.

    Args:
        programs: the request list (order is preserved in the report).
        config: portfolio configuration (defaults to the default
            ladder).
        options: network-construction options shared by every request.
        cache: optional shared result cache.
        client: optional :class:`repro.service.stream.DaemonClient`;
            when given, the whole batch is pipelined through the
            resident daemon instead of being solved here, and
            ``config``/``options``/``cache`` are the *daemon's*
            concern (the local values are ignored).  Batch mode then
            is a thin client of the same serving loop.

    Raises:
        RuntimeError: when the daemon answers a request with an error.
    """
    if client is not None:
        return _run_batch_via_daemon(programs, client)
    start = time.perf_counter()
    solver = PortfolioSolver(config, options=options, cache=cache)
    results = [solver.optimize(program) for program in programs]
    return BatchReport(results=results, wall_seconds=time.perf_counter() - start)


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
    return BatchReport(results=results, wall_seconds=time.perf_counter() - start)
