"""Min-conflicts local search (incomplete solver extension).

Starts from a random total assignment and repeatedly reassigns a
conflicted variable to the value minimizing its conflict count, with
random restarts.  Useful as a fast incomplete alternative on very large
networks and as a cross-check oracle in tests (any assignment it
returns is verified by :meth:`ConstraintNetwork.is_solution`).

Two engines implement the same walk (``engine="auto"`` sizes the
choice per network):

* ``bitset``: the compiled kernel's shift-and-mask loops (one check
  per directed arc per scan);
* ``native``: the whole walk as one C loop (:mod:`repro.csp.native`),
  with a C replica of CPython's MT19937 -- same RNG stream, same
  effort counters, same walk, no interpreter cycles per step.
"""

from __future__ import annotations

import random
import time

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.engine import record_solver_effort
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats, Stopwatch
from repro.csp.vectorized import (
    ENGINE_AUTO,
    ENGINE_NATIVE,
    batch_min_conflicts,
    resolve_engine,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


class MinConflictsSolver:
    """Randomized local search; *incomplete* (None does not prove UNSAT)."""

    name = "min-conflicts"

    def __init__(
        self,
        seed: int = 0,
        max_steps: int = 10_000,
        max_restarts: int = 10,
        engine: str = ENGINE_AUTO,
    ):
        if max_steps <= 0 or max_restarts <= 0:
            raise ValueError("max_steps and max_restarts must be positive")
        self._seed = seed
        self._max_steps = max_steps
        self._max_restarts = max_restarts
        self._engine = engine
        self._deadline_seconds: float | None = None

    def set_deadline(self, seconds: float) -> None:
        """Bound the next solve's wall clock.

        Expiry ends the walk without an assignment -- the solver is
        incomplete by contract, so a deadline only shortens the search.
        The deadline is checked once per improve step and restart, and
        never touches the effort counters.
        """
        self._deadline_seconds = max(0.0, seconds)

    def solve(self, network: ConstraintNetwork | CompiledNetwork) -> SolverResult:
        """Search for a solution; gives up after the step/restart budget."""
        kernel = as_compiled(network)
        engine = resolve_engine(self._engine, kernel)
        with obs_trace.span("min_conflicts", engine=engine):
            result = self._solve_resolved(kernel, engine)
        if obs_metrics.enabled():
            record_solver_effort(engine, "min-conflicts", result.stats)
        return result

    def _solve_resolved(
        self, kernel: CompiledNetwork, engine: str
    ) -> SolverResult:
        deadline_at = (
            time.monotonic() + self._deadline_seconds
            if self._deadline_seconds is not None
            else None
        )
        if engine == ENGINE_NATIVE:
            return batch_min_conflicts(
                kernel,
                [self._seed],
                max_steps=self._max_steps,
                max_restarts=self._max_restarts,
                engine=engine,
                deadline_at=deadline_at,
            )[0]
        stats = SolverStats()
        rng = random.Random(self._seed)
        with Stopwatch(stats):
            for _ in range(self._max_restarts):
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    break
                values = [
                    rng.randrange(kernel.domain_size(variable))
                    for variable in range(kernel.variable_count)
                ]
                solution = self._improve(kernel, values, rng, stats, deadline_at)
                if solution is not None:
                    return SolverResult(solution, stats, complete=False)
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    break  # aborted walk, not an exhausted restart
                stats.restarts += 1
        return SolverResult(None, stats, complete=False)

    def _improve(
        self,
        kernel: CompiledNetwork,
        values: list[int],
        rng: random.Random,
        stats: SolverStats,
        deadline_at: float | None = None,
    ) -> dict | None:
        for _ in range(self._max_steps):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                return None
            conflicted = self._conflicted_variables(kernel, values, stats)
            if not conflicted:
                return kernel.to_named(values)
            variable = rng.choice(conflicted)
            values[variable] = self._best_value(
                kernel, variable, values, rng, stats
            )
            stats.nodes += 1
        return None

    def _conflicted_variables(
        self,
        kernel: CompiledNetwork,
        values: list[int],
        stats: SolverStats,
    ) -> list[int]:
        conflicted = []
        for variable in range(kernel.variable_count):
            if self._conflict_count(kernel, variable, values[variable], values, stats):
                conflicted.append(variable)
        return conflicted

    def _conflict_count(
        self,
        kernel: CompiledNetwork,
        variable: int,
        value: int,
        values: list[int],
        stats: SolverStats,
    ) -> int:
        count = 0
        supports = kernel.supports
        for neighbor in kernel.neighbors[variable]:
            stats.consistency_checks += 1
            if not (supports[(variable, neighbor)][value] >> values[neighbor]) & 1:
                count += 1
        return count

    def _best_value(
        self,
        kernel: CompiledNetwork,
        variable: int,
        values: list[int],
        rng: random.Random,
        stats: SolverStats,
    ) -> int:
        scored: list[tuple[int, int]] = []
        for value in range(kernel.domain_size(variable)):
            conflicts = self._conflict_count(kernel, variable, value, values, stats)
            scored.append((conflicts, value))
        best = min(score for score, _ in scored)
        candidates = [value for score, value in scored if score == best]
        return rng.choice(candidates)
