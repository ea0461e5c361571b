"""Deterministic scheme ladder over one constraint network.

No single search scheme dominates: the paper's base scheme is hopeless
on hard networks where the enhanced scheme is instant, min-conflicts is
unbeatable on loose under-constrained networks, and the weighted branch
& bound is the only scheme that returns anything useful on UNSAT
networks.  A *portfolio* is a ladder of schemes: it runs them one after
another, in priority order, on the same compiled network, and the first
exact answer wins (the remaining rungs are skipped).  The answer is
therefore a function of the request alone.  A per-request deadline
bounds the worst case: it gates whether the next rung starts, and the
remaining budget is handed to each scheme's cooperative
``set_deadline`` hook so a scheme stops itself mid-search.  When no
rung returns an assignment, the weighted branch & bound answers as a
best-effort fallback; it has no deadline hook and always runs to the
end.

The portfolio composes with :mod:`repro.service.cache`: results are
keyed by the request fingerprint and the portfolio's canonical token,
so repeat programs are served without solving at all.

The network is compiled exactly once (the builder already did, in
fact -- see :meth:`repro.opt.network_builder.LayoutNetwork.kernel`),
and every rung solves that same
:class:`repro.csp.compiled.CompiledNetwork`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from repro.csp.compiled import CompiledNetwork
from repro.csp.stats import SolverStats
from repro.csp.vectorized import ENGINE_AUTO, resolve_engine
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.program import Program
from repro.layout.layout import Layout, row_major
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import EFFORT_BUCKETS
from repro.opt.network_builder import BuildOptions, LayoutNetwork, build_layout_network
from repro.opt.optimizer import repair_inflation
from repro.opt.passes.base import record_pass_seconds
from repro.service.cache import ResultCache
from repro.service.fingerprint import request_fingerprint

#: Extension point: extra scheme name -> (seed -> solver) factories.
#: Entries registered here (e.g. by tests or experiments) run on the
#: ladder exactly like the built-in schemes.
EXTRA_SCHEMES: dict[str, Callable[[int], object]] = {}

#: Default ladder: complementary strengths, no duplicates.
DEFAULT_SCHEMES: tuple[str, ...] = ("enhanced", "cbj", "forward-checking")


def known_schemes() -> tuple[str, ...]:
    """Every scheme name a portfolio may reference, sorted."""
    from repro.opt.optimizer import _SCHEMES

    return tuple(sorted(set(_SCHEMES) | set(EXTRA_SCHEMES)))


@dataclass(frozen=True)
class PortfolioConfig:
    """Which schemes to try, in which order, and for how long.

    Attributes:
        schemes: scheme names, in priority order: the ladder runs them
            in this order and the first exact answer wins.
        seed: RNG seed handed to every randomized scheme.
        deadline_seconds: per-request wall-clock budget.  It gates
            whether the next rung starts at all, and the remaining
            budget is *propagated into* every scheme via its
            cooperative ``set_deadline`` hook, so a scheme stops
            itself mid-search instead of burning the full budget.  A
            scheme without the hook runs to its own end.
    """

    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    seed: int = 0
    deadline_seconds: float = 60.0

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("portfolio needs at least one scheme")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"duplicate schemes in portfolio: {self.schemes}")
        known = known_schemes()
        unknown = [name for name in self.schemes if name not in known]
        if unknown:
            raise ValueError(
                f"unknown portfolio schemes {unknown}; know {known}"
            )
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    @staticmethod
    def parse(spec: str, **overrides) -> "PortfolioConfig":
        """Build from a comma-separated scheme list (CLI syntax).

        Raises:
            ValueError: for duplicate scheme tokens (a second copy of
                one scheme would repeat an identical search) and
                everything the constructor rejects.
        """
        names = tuple(name.strip() for name in spec.split(",") if name.strip())
        seen: set[str] = set()
        duplicates = [name for name in names if name in seen or seen.add(name)]
        if duplicates:
            raise ValueError(
                f"duplicate scheme tokens in {spec!r}: {sorted(set(duplicates))}"
            )
        return PortfolioConfig(schemes=names, **overrides)

    def scheme_seed(self, index: int) -> int:
        """Distinct deterministic RNG seed for the scheme at ``index``.

        Every rung gets its own stream: two randomized schemes run
        from one seed would take identical tie-breaking decisions.
        Index 0 keeps the portfolio's base seed, so a single-scheme
        portfolio is bit-compatible with running that scheme directly.
        """
        return self.seed + index

    def token(self) -> str:
        """Canonical cache token.

        Deliberately *excludes* the deadline: it changes how fast an
        answer arrives, not which answer is acceptable, so cached
        results remain valid across it.  This is sound because only
        *exact* results are ever cached -- deadline-shaped best-effort
        results are recomputed.  The ``ladder`` prefix keeps entries
        written by the former per-scheme process race (whose
        ``winner`` depended on timing) from being served.
        """
        return f"ladder[{','.join(self.schemes)}]seed={self.seed}"


@dataclass(frozen=True)
class SchemeOutcome:
    """One row of the per-scheme outcome table.

    Attributes:
        scheme: scheme name.
        status: "won" (supplied the returned assignment), "partial"
            (weighted best-effort, not exact), "unsat" (proved
            unsatisfiable), "gave-up" (incomplete scheme exhausted its
            budget), "timeout" (the deadline expired before this rung
            started), "skipped" (an earlier rung already won), or
            "error".
        seconds: scheme wall-clock time (0.0 when never started).
        stats: solver effort counters (empty when unavailable).
        detail: human-readable annotation (e.g. the error message).
    """

    scheme: str
    status: str
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "status": self.status,
            "seconds": self.seconds,
            "stats": dict(self.stats),
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "SchemeOutcome":
        return SchemeOutcome(
            scheme=data["scheme"],
            status=data["status"],
            seconds=float(data.get("seconds", 0.0)),
            stats=dict(data.get("stats", {})),
            detail=data.get("detail", ""),
        )


@dataclass
class PortfolioResult:
    """Outcome of one portfolio-served optimization request.

    Attributes:
        program: program name.
        fingerprint: the request fingerprint (cache key half).
        winner: scheme that supplied the layouts (None only when every
            scheme failed *and* the weighted fallback was unavailable).
        layouts: one layout per declared array.
        exact: True when the layouts satisfy every constraint.
        solve_seconds: end-to-end request latency (build + ladder).
        outcomes: per-scheme outcome table.
        from_cache: True when served from the result cache.
        network: the built network with provenance (None when the
            result came from the cache or crossed a process boundary).
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
    network: LayoutNetwork | None = None
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
        """JSON-serializable form (drops the non-serializable network)."""
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


def _make_solver(scheme: str, seed: int):
    """Instantiate a scheme by name (registry or extras)."""
    from repro.opt.optimizer import _SCHEMES

    if scheme in EXTRA_SCHEMES:
        return EXTRA_SCHEMES[scheme](seed)
    return _SCHEMES[scheme](seed)


def _solve_scheme(
    scheme: str,
    kernel: CompiledNetwork,
    weights: Mapping[frozenset[str], float] | None,
    seed: int,
    deadline_at: float | None = None,
) -> dict:
    """Run one scheme on the compiled kernel; returns its payload.

    ``deadline_at`` is the ladder's absolute ``time.monotonic`` expiry:
    schemes with a cooperative ``set_deadline`` hook get the remaining
    budget so they stop mid-search.
    """
    start = time.perf_counter()
    solver = _make_solver(scheme, seed)
    if deadline_at is not None and hasattr(solver, "set_deadline"):
        solver.set_deadline(deadline_at - time.monotonic())
    if isinstance(solver, BranchAndBoundSolver):
        weighted_result = solver.solve_compiled(kernel, weights)
        return {
            "assignment": dict(weighted_result.assignment),
            "sat": True,
            "exact": weighted_result.fully_satisfied,
            "complete": True,
            "stats": weighted_result.stats.as_dict(),
            "seconds": time.perf_counter() - start,
        }
    result = solver.solve(kernel)
    return {
        "assignment": dict(result.assignment) if result.assignment else None,
        "sat": result.satisfiable,
        "exact": result.satisfiable,
        "complete": result.complete,
        "stats": result.stats.as_dict(),
        "seconds": time.perf_counter() - start,
    }


def _payload_status(payload: dict) -> str:
    """Outcome status of a finished rung."""
    if payload["sat"]:
        return "won" if payload["exact"] else "partial"
    return "unsat" if payload["complete"] else "gave-up"


class PortfolioSolver:
    """Serve layout-optimization requests through a scheme ladder.

    Args:
        config: the ladder's schemes and the per-request deadline.
        options: network-construction options (benchmark defaults when
            omitted must be supplied by the caller explicitly).
        cache: optional result cache consulted before and updated after
            every solve.
        network_cache: optional mutable mapping ``fingerprint ->
            LayoutNetwork``.  A resident process (the daemon's warm
            workers) hands every solver in the process one shared
            bounded mapping, so repeat cache *misses* -- non-exact
            retries, evaluate sweeps over many machine models -- skip
            the network build and reuse the already-compiled kernel.
    """

    def __init__(
        self,
        config: PortfolioConfig | None = None,
        options: BuildOptions | None = None,
        cache: ResultCache | None = None,
        network_cache=None,
    ):
        self._config = config if config is not None else PortfolioConfig()
        self._options = options if options is not None else BuildOptions()
        self._cache = cache
        self._network_cache = network_cache

    @property
    def config(self) -> PortfolioConfig:
        return self._config

    def optimize(
        self, program: Program, fingerprint: str | None = None
    ) -> PortfolioResult:
        """Serve one request: cache lookup, else the ladder, then cache store.

        ``fingerprint`` lets batch callers that already fingerprinted
        the request (for dedup) skip the recomputation.
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
        start = time.perf_counter()
        layout_network = None
        if self._network_cache is not None:
            layout_network = self._network_cache.get(fingerprint)
        if layout_network is None:
            with obs_trace.span("build_network"):
                layout_network = build_layout_network(program, self._options)
            if self._network_cache is not None:
                self._network_cache[fingerprint] = layout_network
        with obs_trace.span("compile_kernel"):
            kernel = layout_network.kernel()
        # Per-pass timing, same vocabulary the pipeline runner uses, so
        # daemon ``stats`` shows one per-pass breakdown no matter which
        # path (pipeline façade or direct portfolio) served the solve.
        record_pass_seconds("build", time.perf_counter() - start)
        engine = resolve_engine(ENGINE_AUTO, kernel)
        race_start = time.perf_counter()
        with obs_trace.span("race", engine=engine) as race_span:
            winner, exact, assignment, outcomes = self._run_ladder(
                kernel, layout_network.weights
            )
        race_seconds = time.perf_counter() - race_start
        if assignment is None:
            # No rung returned an assignment: fall back to the
            # weighted branch & bound in-process, like LayoutOptimizer
            # does for UNSAT networks -- a best-effort answer always
            # beats none.
            with obs_trace.span("weighted_fallback"):
                weighted_result = BranchAndBoundSolver().solve_compiled(
                    layout_network.kernel(), layout_network.weights
                )
            assignment = dict(weighted_result.assignment)
            exact = weighted_result.fully_satisfied
            winner = "weighted-fallback"
            outcomes += (
                SchemeOutcome(
                    scheme="weighted-fallback",
                    status="won",
                    seconds=weighted_result.stats.time_seconds,
                    stats=weighted_result.stats.as_dict(),
                ),
            )
        self._record_race(race_span, engine, winner, outcomes, race_seconds)
        record_pass_seconds("solve", time.perf_counter() - race_start)
        if exact:
            repair_start = time.perf_counter()
            with obs_trace.span("repair_inflation"):
                repair_inflation(layout_network.network, assignment, program)
            record_pass_seconds("repair", time.perf_counter() - repair_start)

        layouts: dict[str, Layout] = {}
        for decl in program.arrays:
            chosen = assignment.get(decl.name)
            layouts[decl.name] = (
                chosen if chosen is not None else row_major(decl.rank)
            )
        result = PortfolioResult(
            program=program.name,
            fingerprint=fingerprint,
            winner=winner,
            layouts=layouts,
            exact=exact,
            solve_seconds=time.perf_counter() - start,
            outcomes=outcomes,
            network=layout_network,
            engine=engine,
        )
        if self._cache is not None and result.exact:
            # Non-exact results are deadline- (and luck-) shaped: a
            # retry with a longer deadline could find an exact
            # solution, so caching them would freeze a bad answer.
            self._cache.put(fingerprint, token, result.to_dict())
        return result

    def _record_race(
        self,
        race_span,
        engine: str,
        winner: str | None,
        outcomes: tuple[SchemeOutcome, ...],
        race_seconds: float,
    ) -> None:
        """Fold one finished ladder into the telemetry layer."""
        obs_metrics.observe(
            "repro_portfolio_race_seconds",
            race_seconds,
            help="Wall-clock seconds per portfolio ladder.",
        )
        obs_metrics.counter(
            "repro_portfolio_wins_total",
            labels={"scheme": winner if winner is not None else "none"},
            help="Ladders won, by scheme (weighted-fallback included).",
        )
        race_span.set_attribute("winner", winner)
        for outcome in outcomes:
            obs_metrics.counter(
                "repro_portfolio_scheme_outcomes_total",
                labels={"scheme": outcome.scheme, "status": outcome.status},
                help="Per-scheme ladder outcome table, folded over time.",
            )
            for counter_name in ("nodes", "consistency_checks"):
                effort = outcome.stats.get(counter_name)
                if effort:
                    obs_metrics.observe(
                        "repro_engine_effort",
                        float(effort),
                        labels={"engine": engine, "counter": counter_name},
                        help="Machine-independent solver effort per engine.",
                        bounds=EFFORT_BUCKETS,
                    )

    # -- the ladder ------------------------------------------------------

    def _run_ladder(
        self,
        kernel: CompiledNetwork,
        weights: Mapping[frozenset[str], float] | None,
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        """Run the rungs in priority order; the first exact answer wins.

        Returns (winner, exact, assignment, outcome table).  The
        deadline gates whether each rung starts and is handed to the
        rung's cooperative ``set_deadline`` hook.  Every rung runs in
        its own ``scheme:<name>`` span, so a trace shows the rungs one
        after another.
        """
        deadline_at = time.monotonic() + self._config.deadline_seconds
        outcomes: list[SchemeOutcome] = []
        fallback: tuple[str, dict] | None = None
        winner: tuple[str, dict] | None = None
        for index, scheme in enumerate(self._config.schemes):
            if winner is not None or time.monotonic() >= deadline_at:
                status = "skipped" if winner is not None else "timeout"
                outcomes.extend(
                    SchemeOutcome(scheme=name, status=status)
                    for name in self._config.schemes[index:]
                )
                break
            with obs_trace.span(f"scheme:{scheme}", scheme=scheme) as rung:
                try:
                    payload = _solve_scheme(
                        scheme,
                        kernel,
                        weights,
                        self._config.scheme_seed(index),
                        deadline_at,
                    )
                except Exception as exc:
                    payload = None
                    outcome = SchemeOutcome(
                        scheme=scheme, status="error", detail=repr(exc)
                    )
                else:
                    outcome = SchemeOutcome(
                        scheme=scheme,
                        status=_payload_status(payload),
                        seconds=payload["seconds"],
                        stats=payload["stats"],
                    )
                rung.set_attribute("status", outcome.status)
            outcomes.append(outcome)
            if outcome.status == "won":
                winner = (scheme, payload)
            elif outcome.status == "partial" and fallback is None:
                fallback = (scheme, payload)
        return self._conclude(winner, fallback, outcomes)

    @staticmethod
    def _conclude(
        winner: tuple[str, dict] | None,
        fallback: tuple[str, dict] | None,
        outcomes: list[SchemeOutcome] | tuple[SchemeOutcome, ...],
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        outcomes = tuple(outcomes)
        if winner is not None:
            scheme, payload = winner
            return scheme, True, payload["assignment"], outcomes
        if fallback is not None:
            scheme, payload = fallback
            # Promote the best-effort result to winner in the table.
            outcomes = tuple(
                replace(o, status="won") if o.scheme == scheme else o
                for o in outcomes
            )
            return scheme, bool(payload["exact"]), payload["assignment"], outcomes
        return None, False, None, outcomes

