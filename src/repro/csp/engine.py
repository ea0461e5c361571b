"""The depth-first search engine behind the systematic solvers.

One engine implements the whole family of Section 4 solvers; the
behaviour toggles are exactly the three enhancements of the paper plus
the choice of jump rule:

* variable ordering: random (base) or most-constraining (enhanced);
* value ordering: random (base) or least-constraining (enhanced);
* dead-end handling: chronological backtracking (base), graph-based
  backjumping (enhanced, the rule the paper illustrates in Figure 3),
  or conflict-directed backjumping (sharper extension).

The implementation is the classic recursive conflict-set formulation:
``_search`` returns ``(solution, jump_depth, conflict_depths)``.  A
frame whose depth is above ``jump_depth`` simply unwinds; the frame at
``jump_depth`` resumes with its next value, merging the child's
conflict set into its own.  This is sound for both jump rules and for
dynamic variable orders because conflict sets always name *depths of
currently instantiated variables* responsible for the failure.

The engine runs entirely on the compiled kernel
(:mod:`repro.csp.compiled`): variables and values are dense integer
indices, and a consistency check is one shift-and-mask on a support
bitmask.  Passing an authoring :class:`ConstraintNetwork` compiles it
(cached on the network); named assignments are reconstructed only at
the solution boundary.  The RNG stream and the value/variable orders
are identical to the historical object-based implementation, so seeded
runs reproduce the same searches.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats, Stopwatch
from repro.csp.vectorized import (
    ENGINE_AUTO,
    ENGINE_NATIVE,
    ENGINES,
    resolve_engine,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import EFFORT_BUCKETS

if TYPE_CHECKING:
    from repro.csp.native.ops import NativeOrderings


def record_solver_effort(engine: str, scheme: str, stats: SolverStats) -> None:
    """Fold one finished solve's effort counters into the metrics layer.

    Shared by every solver entry point (systematic engine,
    min-conflicts, branch & bound).  Effort histograms carry the
    paper's machine-independent counters, bucketed per engine, so a
    fleet can compare instance hardness without comparing clocks.
    Callers gate on :func:`repro.obs.metrics.enabled` themselves to
    keep the disabled path at one branch.
    """
    labels = {"engine": engine, "scheme": scheme}
    obs_metrics.counter(
        "repro_solver_solves_total",
        labels=labels,
        help="Completed solver runs by engine and scheme.",
    )
    for counter_name in ("nodes", "consistency_checks"):
        effort = getattr(stats, counter_name)
        if effort:
            obs_metrics.observe(
                "repro_solver_effort",
                float(effort),
                labels={"engine": engine, "counter": counter_name},
                help="Machine-independent per-solve effort, by engine.",
                bounds=EFFORT_BUCKETS,
            )

#: Jump rule names accepted by the engine.
JUMP_CHRONOLOGICAL = "chronological"
JUMP_GRAPH = "graph"
JUMP_CONFLICT = "conflict"


@dataclass(frozen=True)
class EngineConfig:
    """Behaviour switches for :class:`SearchEngine`.

    Attributes:
        variable_ordering: use the most-constraining-variable rule
            instead of a random choice.
        value_ordering: use the least-constraining-value rule instead
            of a random shuffle.
        jump_mode: one of ``chronological``, ``graph`` or ``conflict``.
        seed: RNG seed for the random orderings (ignored when both
            ordering rules are enabled).
        max_nodes: optional node budget; when exhausted the solver
            stops and reports an *incomplete* result (None assignment
            with ``complete=False``) instead of running unboundedly.
        engine: ``bitset``, ``native`` or ``auto`` -- which kernel
            evaluates the ordering heuristics.  The search, its RNG
            stream and every effort counter are identical either way;
            the native engine computes the most-constraining and
            least-constraining scores in C.  Random orderings have no
            heuristic mathematics, so the base scheme runs the same
            code under both engines.
    """

    variable_ordering: bool = False
    value_ordering: bool = False
    jump_mode: str = JUMP_CHRONOLOGICAL
    seed: int = 0
    max_nodes: int | None = None
    engine: str = ENGINE_AUTO

    def __post_init__(self) -> None:
        if self.jump_mode not in (JUMP_CHRONOLOGICAL, JUMP_GRAPH, JUMP_CONFLICT):
            raise ValueError(f"unknown jump mode {self.jump_mode!r}")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive when given")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick one of {ENGINES}")


class _NodeBudgetExhausted(Exception):
    """Internal: raised when the engine's node budget runs out."""


class SearchEngine:
    """Configurable systematic solver over a constraint network.

    Accepts either the authoring :class:`ConstraintNetwork` (compiled
    on entry, cached) or an already-compiled :class:`CompiledNetwork`.
    """

    def __init__(self, config: EngineConfig):
        self._config = config
        self._deadline_seconds: float | None = None
        self._deadline_at: float | None = None

    @property
    def config(self) -> EngineConfig:
        """The engine's configuration."""
        return self._config

    def set_deadline(self, seconds: float) -> None:
        """Bound the next solve's wall clock (checked every 256 nodes).

        Expiry ends the search with ``complete=False``, exactly like an
        exhausted node budget; the portfolio propagates its remaining
        budget here so a stuck rung stops promptly.
        """
        self._deadline_seconds = max(0.0, seconds)

    def solve(self, network: ConstraintNetwork | CompiledNetwork) -> SolverResult:
        """Run the search to the first solution or to an UNSAT proof."""
        kernel = as_compiled(network)
        stats = SolverStats()
        rng = random.Random(self._config.seed)
        self._deadline_at = (
            time.monotonic() + self._deadline_seconds
            if self._deadline_seconds is not None
            else None
        )
        complete = True
        vec = None
        if self._config.variable_ordering or self._config.value_ordering:
            if resolve_engine(self._config.engine, kernel) == ENGINE_NATIVE:
                # Heuristics evaluated by the C kernel with the same
                # keys as the Python rules below, behind a mutable
                # unassigned indicator the search keeps in step.
                from repro.csp.native.ops import NativeOrderings

                vec = NativeOrderings(kernel)
        with obs_trace.span("csp_search", jump_mode=self._config.jump_mode) as sp:
            with Stopwatch(stats):
                values: list[int | None] = [None] * kernel.variable_count
                depth_of = [0] * kernel.variable_count
                try:
                    solution, _, _ = self._search(
                        kernel, values, 0, depth_of, rng, stats, vec
                    )
                except _NodeBudgetExhausted:
                    solution = None
                    complete = False
        sp.set_attribute("nodes", stats.nodes)
        if obs_metrics.enabled():
            record_solver_effort(
                resolve_engine(self._config.engine, kernel),
                self._config.jump_mode,
                stats,
            )
        return SolverResult(solution, stats, complete=complete)

    # -- search ---------------------------------------------------------

    def _search(
        self,
        kernel: CompiledNetwork,
        values: list[int | None],
        depth: int,
        depth_of: list[int],
        rng: random.Random,
        stats: SolverStats,
        vec: "NativeOrderings | None",
    ) -> tuple[dict | None, int, set[int]]:
        if depth == kernel.variable_count:
            return kernel.to_named(values), depth, set()

        variable = self._select_variable(kernel, values, rng, vec)
        conflict_union: set[int] = set()
        budget = self._config.max_nodes
        for value in self._order_values(kernel, variable, values, rng, stats, vec):
            stats.nodes += 1
            if budget is not None and stats.nodes > budget:
                raise _NodeBudgetExhausted()
            if (
                self._deadline_at is not None
                and (stats.nodes & 255) == 0
                and time.monotonic() >= self._deadline_at
            ):
                raise _NodeBudgetExhausted()
            consistent, conflicts = self._check(
                kernel, variable, value, values, depth_of, stats
            )
            if not consistent:
                conflict_union |= conflicts
                continue
            values[variable] = value
            depth_of[variable] = depth
            if vec is not None:
                vec.unassigned[variable] = 0
            solution, jump, child_conflicts = self._search(
                kernel, values, depth + 1, depth_of, rng, stats, vec
            )
            if solution is not None:
                return solution, jump, child_conflicts
            values[variable] = None
            if vec is not None:
                vec.unassigned[variable] = 1
            if jump < depth:
                # We are being jumped over: unwind without retrying.
                return None, jump, child_conflicts
            conflict_union |= child_conflicts

        # Dead end: no value of `variable` extends the instantiation.
        if self._config.jump_mode == JUMP_CHRONOLOGICAL:
            stats.backtracks += 1
            return None, depth - 1, set(range(depth))
        if conflict_union:
            jump = max(conflict_union)
        else:
            jump = -1  # nothing above is responsible: unwind everything
        if jump < depth - 1:
            stats.backjumps += 1
        else:
            stats.backtracks += 1
        return None, jump, conflict_union - {jump}

    # -- heuristics -------------------------------------------------------

    def _select_variable(
        self,
        kernel: CompiledNetwork,
        values: list[int | None],
        rng: random.Random,
        vec: "NativeOrderings | None" = None,
    ) -> int:
        if self._config.variable_ordering and vec is not None:
            return vec.select_most_constraining()
        unassigned = [i for i in range(kernel.variable_count) if values[i] is None]
        if not self._config.variable_ordering:
            return rng.choice(unassigned)
        # Most-constraining variable: maximize constraints to the not yet
        # instantiated part of the network ("detect a dead-end as early
        # as possible"); break ties toward higher total degree, then
        # smaller domain, then name (for determinism).
        neighbors = kernel.neighbors
        domains = kernel.domains
        rank = kernel.name_rank

        def key(variable: int) -> tuple[int, int, int, int]:
            future_degree = sum(
                1 for neighbor in neighbors[variable] if values[neighbor] is None
            )
            return (
                -future_degree,
                -len(neighbors[variable]),
                len(domains[variable]),
                rank[variable],
            )

        return min(unassigned, key=key)

    def _order_values(
        self,
        kernel: CompiledNetwork,
        variable: int,
        values: list[int | None],
        rng: random.Random,
        stats: SolverStats,
        vec: "NativeOrderings | None" = None,
    ) -> list[int]:
        if self._config.value_ordering and vec is not None:
            return vec.order_least_constraining(variable, stats)
        order = list(range(kernel.domain_size(variable)))
        if not self._config.value_ordering:
            rng.shuffle(order)
            return order
        # Least-constraining value: maximize the number of options left
        # for the uninstantiated neighbors.  One popcount per neighbor
        # replaces the per-value scan (the checks counter still reports
        # the per-pair cost, for comparability with the paper's tables).
        unassigned_neighbors = [
            neighbor
            for neighbor in kernel.neighbors[variable]
            if values[neighbor] is None
        ]
        supports = kernel.supports

        def support(value: int) -> int:
            total = 0
            for neighbor in unassigned_neighbors:
                stats.consistency_checks += kernel.domain_size(neighbor)
                total += supports[(variable, neighbor)][value].bit_count()
            return total

        scored = sorted((-support(value), value) for value in order)
        return [value for _, value in scored]

    # -- consistency -----------------------------------------------------

    def _check(
        self,
        kernel: CompiledNetwork,
        variable: int,
        value: int,
        values: list[int | None],
        depth_of: list[int],
        stats: SolverStats,
    ) -> tuple[bool, set[int]]:
        """Check ``variable=value`` against all instantiated neighbors.

        Returns (consistent, conflict_depths).  In graph mode the
        conflict set is every instantiated neighbor (the adjacency
        information of Figure 3); in conflict mode it is only the
        neighbors whose constraint actually failed.
        """
        conflicts: set[int] = set()
        consistent = True
        supports = kernel.supports
        for neighbor in kernel.neighbors[variable]:
            neighbor_value = values[neighbor]
            if neighbor_value is None:
                continue
            stats.consistency_checks += 1
            if not (supports[(variable, neighbor)][value] >> neighbor_value) & 1:
                consistent = False
                if self._config.jump_mode == JUMP_CONFLICT:
                    conflicts.add(depth_of[neighbor])
        if not consistent and self._config.jump_mode == JUMP_GRAPH:
            conflicts = {
                depth_of[neighbor]
                for neighbor in kernel.neighbors[variable]
                if values[neighbor] is not None
            }
        return consistent, conflicts
