"""The scheme ladder: the solve pass's one solve loop.

No single search scheme dominates: the paper's base scheme is hopeless
on hard networks where the enhanced scheme is instant, min-conflicts is
unbeatable on loose under-constrained networks, and the weighted branch
& bound is the only scheme that returns anything useful on UNSAT
networks.  A ladder runs schemes one after another, in priority order,
on the same compiled network, and the first exact answer wins (the
remaining rungs are skipped), so the answer is a function of the
request alone.

Every solve is a ladder.  A direct scheme (``"enhanced"``, an
:class:`~repro.csp.enhanced.EnhancementConfig`, ...) is a one-rung
ladder with no deadline; a portfolio (:class:`PortfolioConfig`, or the
``"portfolio:a,b,c"`` strategy strings) is the configured ladder under
its per-request deadline.  The deadline gates whether the next rung
starts, and the remaining budget is handed to each scheme's
cooperative ``set_deadline`` hook so a scheme stops itself
mid-search.  When no rung returns an assignment, the weighted branch &
bound answers as a best-effort fallback; it has no deadline hook and
always runs to the end.  A rung that raises leaves an ``error`` row and
the next rung still runs; if no rung answered, the first exception
propagates instead of the fallback answering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from importlib import import_module
from typing import Callable, Mapping, Sequence

from repro.csp.compiled import CompiledNetwork
from repro.csp.enhanced import EnhancedSolver
from repro.csp.stats import SolverStats
from repro.csp.vectorized import ENGINE_AUTO, resolve_engine
from repro.csp.weighted import BranchAndBoundSolver
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import EFFORT_BUCKETS

#: Schemes whose solver module is imported on the scheme's first use
#: (or by :func:`preload_schemes`): name -> (module, solver class).
#: The ladder itself needs only the enhanced solver and the weighted
#: fallback, so a direct scheme loads no other solver.
_DEFERRED_SOLVERS: dict[str, tuple[str, str]] = {
    "base": ("repro.csp.backtracking", "BacktrackingSolver"),
    "cbj": ("repro.csp.backjumping", "ConflictDirectedSolver"),
    "forward-checking": ("repro.csp.forward_checking", "ForwardCheckingSolver"),
    "min-conflicts": ("repro.csp.minconflicts", "MinConflictsSolver"),
}


def _deferred(module: str, name: str) -> Callable[[int], object]:
    """A solver factory that imports its module on first call."""

    def build(seed: int):
        return getattr(import_module(module), name)(seed=seed)

    return build


#: The scheme registry: name -> solver factory (seed -> solver).
#: "weighted" is the branch & bound over the nest-cost weighted
#: network: always returns an assignment, exact exactly when the hard
#: network is satisfiable.  Entries added here (e.g. by tests or
#: experiments) run on the ladder exactly like the built-in schemes.
SCHEMES: dict[str, Callable[[int], object]] = {
    "base": _deferred(*_DEFERRED_SOLVERS["base"]),
    "enhanced": lambda seed: EnhancedSolver(seed=seed),
    "cbj": _deferred(*_DEFERRED_SOLVERS["cbj"]),
    "forward-checking": _deferred(*_DEFERRED_SOLVERS["forward-checking"]),
    "min-conflicts": _deferred(*_DEFERRED_SOLVERS["min-conflicts"]),
    "weighted": lambda seed: BranchAndBoundSolver(),
}


def preload_schemes(schemes: Sequence[str]) -> None:
    """Import the solver modules of ``schemes`` now, e.g. in a server
    before it forks workers, so no worker imports one on its first
    solve."""
    for name in schemes:
        if name in _DEFERRED_SOLVERS:
            import_module(_DEFERRED_SOLVERS[name][0])


#: Default portfolio ladder: complementary strengths, no duplicates.
DEFAULT_SCHEMES: tuple[str, ...] = ("enhanced", "cbj", "forward-checking")

#: Winner name of the weighted branch & bound fallback.
FALLBACK = "weighted-fallback"


def known_schemes() -> tuple[str, ...]:
    """Every registered scheme name, sorted."""
    return tuple(sorted(SCHEMES))


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
class LadderResult:
    """What one ladder run answered.

    Attributes:
        winner: the rung that supplied the assignment, or
            :data:`FALLBACK` when the weighted fallback answered.
        exact: True when the assignment satisfies every constraint.
        assignment: one layout per network variable.
        stats: the winner's effort counters.
        outcomes: the per-rung outcome table, in ladder order (plus a
            fallback row when the fallback answered).
        engine: the propagation engine the network resolves to
            (``"bitset"`` / ``"native"``).
    """

    winner: str
    exact: bool
    assignment: dict
    stats: SolverStats
    outcomes: tuple[SchemeOutcome, ...]
    engine: str


class SchemeLadder:
    """Schemes tried in order on one compiled network.

    Args:
        rungs: ``(name, factory, seed)`` per rung, in priority order;
            ``factory(seed)`` builds a fresh solver for every run.
        deadline_seconds: per-run wall-clock budget, or None for no
            deadline (the direct-scheme case: no rung is ever handed
            a ``set_deadline``).
    """

    def __init__(
        self,
        rungs: Sequence[tuple[str, Callable[[int], object], int]],
        deadline_seconds: float | None = None,
    ):
        self._rungs = tuple(rungs)
        self._deadline_seconds = deadline_seconds

    @staticmethod
    def for_config(config: PortfolioConfig) -> "SchemeLadder":
        """The configured portfolio ladder, under its deadline."""
        return SchemeLadder(
            [
                (name, SCHEMES[name], config.scheme_seed(index))
                for index, name in enumerate(config.schemes)
            ],
            config.deadline_seconds,
        )

    def run(
        self,
        kernel: CompiledNetwork,
        weights: Mapping[frozenset[str], float] | None,
    ) -> LadderResult:
        """Climb the ladder; the first exact answer wins.

        Every rung runs in its own ``scheme:<name>`` span under one
        ``race`` span, so a trace shows the rungs one after another.

        Raises:
            Exception: the first rung exception, when no rung returned
                an assignment.
        """
        engine = resolve_engine(ENGINE_AUTO, kernel)
        start = time.perf_counter()
        with obs_trace.span("race", engine=engine) as race_span:
            answer, outcomes, error = self._climb(kernel, weights)
        race_seconds = time.perf_counter() - start
        if answer is None:
            if error is not None:
                raise error
            with obs_trace.span("weighted_fallback"):
                weighted = BranchAndBoundSolver().solve_compiled(kernel, weights)
            answer = (
                FALLBACK,
                dict(weighted.assignment),
                weighted.fully_satisfied,
                weighted.stats,
            )
            outcomes += (
                SchemeOutcome(
                    scheme=FALLBACK,
                    status="won",
                    seconds=weighted.stats.time_seconds,
                    stats=weighted.stats.as_dict(),
                ),
            )
        winner, assignment, exact, stats = answer
        race_span.set_attribute("winner", winner)
        if obs_metrics.enabled():
            _record(engine, winner, outcomes, race_seconds)
        return LadderResult(winner, exact, assignment, stats, outcomes, engine)

    def _climb(self, kernel, weights):
        """Run the rungs in order: (answer or None, outcome table,
        first rung exception or None)."""
        deadline_at = (
            time.monotonic() + self._deadline_seconds
            if self._deadline_seconds is not None
            else None
        )
        outcomes: list[SchemeOutcome] = []
        winner = partial = error = None
        for index, (name, factory, seed) in enumerate(self._rungs):
            if winner is not None or (
                deadline_at is not None and time.monotonic() >= deadline_at
            ):
                status = "skipped" if winner is not None else "timeout"
                outcomes.extend(
                    SchemeOutcome(scheme=later, status=status)
                    for later, _, _ in self._rungs[index:]
                )
                break
            with obs_trace.span(f"scheme:{name}", scheme=name) as span:
                try:
                    answer, outcome = _solve_rung(
                        name, factory(seed), kernel, weights, deadline_at
                    )
                except Exception as exc:
                    answer = None
                    outcome = SchemeOutcome(
                        scheme=name, status="error", detail=repr(exc)
                    )
                    if error is None:
                        error = exc
                span.set_attribute("status", outcome.status)
            outcomes.append(outcome)
            if outcome.status == "won":
                winner = answer
            elif outcome.status == "partial" and partial is None:
                partial = answer
        if winner is None and partial is not None:
            # Promote the best-effort result to winner in the table.
            winner = partial
            outcomes = [
                replace(o, status="won") if o.scheme == partial[0] else o
                for o in outcomes
            ]
        return winner, tuple(outcomes), error


def _solve_rung(name: str, solver, kernel, weights, deadline_at: float | None):
    """Run one rung: ((name, assignment, exact, stats) or None, row).

    ``deadline_at`` is the ladder's absolute ``time.monotonic`` expiry:
    schemes with a cooperative ``set_deadline`` hook get the remaining
    budget so they stop mid-search.
    """
    start = time.perf_counter()
    if deadline_at is not None and hasattr(solver, "set_deadline"):
        solver.set_deadline(deadline_at - time.monotonic())
    if isinstance(solver, BranchAndBoundSolver):
        weighted = solver.solve_compiled(kernel, weights)
        assignment = dict(weighted.assignment)
        exact = weighted.fully_satisfied
        stats = weighted.stats
        status = "won" if exact else "partial"
    else:
        result = solver.solve(kernel)
        stats = result.stats
        if result.satisfiable:
            assignment, exact, status = dict(result.assignment), True, "won"
        else:
            assignment, exact = None, False
            status = "unsat" if result.complete else "gave-up"
    outcome = SchemeOutcome(
        scheme=name,
        status=status,
        seconds=time.perf_counter() - start,
        stats=stats.as_dict(),
    )
    answer = (name, assignment, exact, stats) if assignment is not None else None
    return answer, outcome


def _record(
    engine: str,
    winner: str,
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
        labels={"scheme": winner},
        help="Ladders won, by scheme (weighted-fallback included).",
    )
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
