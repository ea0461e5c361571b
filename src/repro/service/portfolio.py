"""The service's portfolio: a result cache in front of the optimizer.

A portfolio request runs :class:`~repro.opt.optimizer.LayoutOptimizer`'s
``build -> solve -> repair`` passes with a
:class:`~repro.opt.ladder.PortfolioConfig` as its scheme: the solve
pass climbs the deterministic scheme ladder of :mod:`repro.opt.ladder`
(schemes in priority order, first exact answer wins, cooperative
deadline, weighted fallback), so the answer is a function of the
request alone.  :class:`PortfolioSolver` adds what a service needs on
top: the request fingerprint, a :mod:`repro.service.cache` lookup
before the pipeline runs and a store after it (exact answers only),
and the :class:`PortfolioResult` wire form.

:class:`PortfolioConfig`, :class:`SchemeOutcome`, ``DEFAULT_SCHEMES``
and :func:`known_schemes` live in :mod:`repro.opt.ladder` and are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.csp.stats import SolverStats
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.opt.ladder import (  # noqa: F401  (re-exported)
    DEFAULT_SCHEMES,
    PortfolioConfig,
    SchemeOutcome,
    known_schemes,
)
from repro.opt.network_builder import BuildOptions
from repro.opt.optimizer import LayoutOptimizer
from repro.service.cache import ResultCache
from repro.service.fingerprint import request_fingerprint

@dataclass
class PortfolioResult:
    """Outcome of one portfolio-served optimization request.

    Attributes:
        program: program name.
        fingerprint: the request fingerprint (cache key half).
        winner: scheme that supplied the layouts (``"weighted-fallback"``
            when no rung returned an assignment).
        layouts: one layout per declared array.
        exact: True when the layouts satisfy every constraint.
        solve_seconds: end-to-end request latency (build, ladder,
            repair).
        outcomes: per-scheme outcome table.
        from_cache: True when served from the result cache.
        engine: the propagation engine the ladder resolved to
            (``"bitset"`` / ``"native"``; None for cached results --
            engine choice never changes the answer, only its cost).
            Serving telemetry, not part of the wire form.
    """

    program: str
    fingerprint: str
    winner: str | None
    layouts: dict[str, Layout]
    exact: bool
    solve_seconds: float
    outcomes: tuple[SchemeOutcome, ...]
    from_cache: bool = False
    engine: str | None = None

    def winner_stats(self) -> SolverStats:
        """The winning scheme's effort counters (zeros when unknown)."""
        for outcome in self.outcomes:
            if outcome.scheme == self.winner and outcome.stats:
                known = {f for f in SolverStats.__dataclass_fields__}
                return SolverStats(
                    **{k: v for k, v in outcome.stats.items() if k in known}
                )
        return SolverStats()

    def to_dict(self) -> dict:
        """JSON-serializable form (the wire and cache entry)."""
        return {
            "program": self.program,
            "fingerprint": self.fingerprint,
            "winner": self.winner,
            "exact": self.exact,
            "solve_seconds": self.solve_seconds,
            "layouts": {
                name: {"dimension": layout.dimension, "rows": [list(r) for r in layout.rows]}
                for name, layout in self.layouts.items()
            },
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    @staticmethod
    def from_dict(data: Mapping, from_cache: bool = False) -> "PortfolioResult":
        layouts = {
            name: Layout(entry["dimension"], [tuple(r) for r in entry["rows"]])
            for name, entry in data["layouts"].items()
        }
        return PortfolioResult(
            program=data["program"],
            fingerprint=data["fingerprint"],
            winner=data["winner"],
            layouts=layouts,
            exact=bool(data["exact"]),
            solve_seconds=float(data["solve_seconds"]),
            outcomes=tuple(
                SchemeOutcome.from_dict(item) for item in data["outcomes"]
            ),
            from_cache=from_cache,
        )


class PortfolioSolver:
    """Serve layout-optimization requests through the scheme ladder.

    Args:
        config: the ladder's schemes and the per-request deadline.
        options: network-construction options (benchmark defaults when
            omitted must be supplied by the caller explicitly).
        cache: optional result cache consulted before and updated after
            every solve.
    """

    def __init__(
        self,
        config: PortfolioConfig | None = None,
        options: BuildOptions | None = None,
        cache: ResultCache | None = None,
    ):
        self._config = config if config is not None else PortfolioConfig()
        self._options = options if options is not None else BuildOptions()
        self._cache = cache
        # No transform pass: the wire form carries layouts only.
        self._optimizer = LayoutOptimizer(
            self._config,
            options=self._options,
            passes=("build", "solve", "repair"),
        )

    @property
    def config(self) -> PortfolioConfig:
        return self._config

    def optimize(
        self, program: Program, fingerprint: str | None = None
    ) -> PortfolioResult:
        """Serve one request: cache lookup, else the pipeline, then cache store.

        ``fingerprint`` lets callers that already fingerprinted the
        request (the daemon's warm worker,
        :class:`~repro.service.evaluate.EvaluationService`) skip the
        recomputation.
        """
        if fingerprint is None:
            fingerprint = request_fingerprint(program, self._options)
        token = self._config.token()
        if self._cache is not None:
            with obs_trace.span("cache_lookup"):
                cached = self._cache.get(fingerprint, token)
            if cached is not None:
                obs_metrics.counter(
                    "repro_portfolio_requests_total",
                    labels={"source": "cache"},
                    help="Portfolio requests by serving source.",
                )
                result = PortfolioResult.from_dict(cached, from_cache=True)
                # The fingerprint excludes the program *name*, so the
                # entry may come from a renamed twin: report the
                # requester's name, not the original's.
                result.program = program.name
                return result

        obs_metrics.counter(
            "repro_portfolio_requests_total",
            labels={"source": "race"},
            help="Portfolio requests by serving source.",
        )
        outcome = self._optimizer.optimize(program)
        ladder = outcome.ladder
        result = PortfolioResult(
            program=program.name,
            fingerprint=fingerprint,
            winner=ladder.winner,
            layouts=outcome.layouts,
            exact=outcome.exact,
            solve_seconds=outcome.solve_seconds,
            outcomes=ladder.outcomes,
            engine=ladder.engine,
        )
        if self._cache is not None and result.exact:
            # Non-exact results are deadline- (and luck-) shaped: a
            # retry with a longer deadline could find an exact
            # solution, so caching them would freeze a bad answer.
            self._cache.put(fingerprint, token, result.to_dict())
        return result
