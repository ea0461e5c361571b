"""Solving passes: scheme/portfolio dispatch and solution repair.

The scheme registry and the inflation-repair fixpoint live here; the
:mod:`repro.opt.optimizer` façade re-exports both so the service layer
and existing callers keep importing them from their historical home.
"""

from __future__ import annotations

from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.compiled import compile_network
from repro.csp.enhanced import EnhancedSolver
from repro.csp.forward_checking import ForwardCheckingSolver
from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.splitsearch import SplitSearchSolver
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.program import Program
from repro.layout.layout import Layout, row_major
from repro.layout.locality import (
    access_delta,
    has_spatial_locality,
    has_temporal_locality,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.opt.network_builder import build_layout_network
from repro.opt.passes.base import PipelineContext

#: Scheme name -> solver factory (seed -> solver).  "weighted" is the
#: branch & bound over the nest-cost weighted network: always returns
#: an assignment, exact exactly when the hard network is satisfiable.
_SCHEMES = {
    "base": lambda seed: BacktrackingSolver(seed=seed),
    "enhanced": lambda seed: EnhancedSolver(seed=seed),
    "cbj": lambda seed: ConflictDirectedSolver(seed=seed),
    "forward-checking": lambda seed: ForwardCheckingSolver(seed=seed),
    "min-conflicts": lambda seed: MinConflictsSolver(seed=seed),
    "split": lambda seed: SplitSearchSolver(seed=seed),
    "weighted": lambda seed: BranchAndBoundSolver(),
}


class SolvePass:
    """Solve the constraint network (or race the portfolio).

    Direct schemes solve the compiled kernel with the optimizer's
    configured solver, falling back to weighted branch & bound when the
    hard network is unsatisfiable.  Portfolio configurations delegate
    to the service layer's racing :class:`~repro.service.PortfolioSolver`
    (built once, cached on the optimizer so resident processes reuse
    it), which reports finished layouts directly -- the pass then skips
    the assignment fields and fills ``layouts``/``scheme`` itself.
    """

    name = "solve"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("assignment", "stats", "exact", "scheme")

    def __init__(self, optimizer):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if self._optimizer.portfolio_config is not None:
            self._run_portfolio(ctx)
            return
        if ctx.kernel is None:
            raise ValueError(
                "solve pass needs a compiled kernel; run the build pass first"
            )
        solver = self._optimizer.solver
        scheme_name = self._optimizer.scheme_name
        with obs_trace.span("solve", scheme=scheme_name):
            if isinstance(solver, BranchAndBoundSolver):
                # First-class weighted scheme: solve the weighted network
                # directly -- exact iff the hard network is satisfiable.
                weighted_result = solver.solve_compiled(
                    ctx.kernel, ctx.network.weights
                )
                assignment = dict(weighted_result.assignment)
                stats = weighted_result.stats
                exact = weighted_result.fully_satisfied
            else:
                result = solver.solve(ctx.kernel)
                exact = result.assignment is not None
                if exact:
                    assignment = dict(result.assignment)
                    stats = result.stats
                else:
                    weighted_result = BranchAndBoundSolver().solve_compiled(
                        ctx.kernel, ctx.network.weights
                    )
                    assignment = dict(weighted_result.assignment)
                    stats = weighted_result.stats
                    exact = weighted_result.fully_satisfied
        obs_metrics.counter(
            "repro_optimizer_solves_total",
            labels={"scheme": scheme_name, "exact": str(exact).lower()},
            help="Direct (non-portfolio) optimizer solves by scheme.",
        )
        ctx.scheme = scheme_name
        ctx.assignment = assignment
        ctx.stats = stats
        ctx.exact = exact

    def _run_portfolio(self, ctx: PipelineContext) -> None:
        optimizer = self._optimizer
        result = optimizer.portfolio_solver().optimize(ctx.program)
        network = result.network
        if network is None:  # served from a cache: rebuild provenance
            network = build_layout_network(ctx.program, optimizer.options)
        ctx.network = network
        ctx.scheme = f"portfolio:{result.winner}"
        ctx.layouts = dict(result.layouts)
        ctx.stats = result.winner_stats()
        ctx.exact = result.exact


class RepairInflationPass:
    """Repair the solved assignment, then finalize per-array layouts.

    Exact assignments are greedily swapped toward lower bounding-box
    inflation (see :func:`repair_inflation`); then every declared array
    gets its layout from the assignment, defaulting to row-major for
    arrays the network never constrained.  The portfolio path arrives
    with finished layouts and no raw assignment (repair already ran
    inside the portfolio), so the pass is a no-op there.
    """

    name = "repair"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ("layouts",)

    def __init__(self, optimizer=None):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if ctx.assignment is None:
            return
        if ctx.exact:
            repair_inflation(ctx.network.network, ctx.assignment, ctx.program)
        layouts: dict[str, Layout] = {}
        for decl in ctx.program.arrays:
            chosen = ctx.assignment.get(decl.name)
            layouts[decl.name] = (
                chosen if chosen is not None else row_major(decl.rank)
            )
        ctx.layouts = layouts


def repair_inflation(network, assignment: dict, program: Program) -> None:
    """Swap each array to the best equivalent value among solutions.

    Constraint networks routinely admit several solutions (the paper
    observes base and enhanced finding different ones), and the solver
    has no reason to prefer the execution-friendly one.  This pass
    greedily replaces each array's layout with a domain value that is
    better on the lexicographic objective

    1. lower bounding-box inflation (footnote 2's data-space growth),
    2. more references with locality under the original loop order,

    whenever the swap keeps the assignment a solution -- it never
    leaves the solution set, so exactness is preserved.

    The fixpoint runs on the network's compiled kernel (cached on the
    network, so fetching it is free): each variable's objective vector
    over its whole domain is built once per call, and a swap is tested
    with one shift-and-mask per neighbour against the support masks.
    Only network variables are written back; any other keys in
    ``assignment`` are left untouched.
    """
    kernel = compile_network(network)
    names = kernel.names
    values = [
        kernel.value_index[i][assignment[name]] for i, name in enumerate(names)
    ]
    scores = [
        _objective_vector(program, name, kernel.domains[i])
        for i, name in enumerate(names)
    ]
    neighbor_supports = [
        tuple((j, kernel.supports[(i, j)]) for j in kernel.neighbors[i])
        for i in range(len(names))
    ]

    # Iterate to a fixpoint: improving one array can unlock a better
    # swap for a neighbor (bounded: each pass strictly improves the
    # global objective or stops).
    for _ in range(len(names)):
        changed = False
        for i, row in enumerate(scores):
            current = values[i]
            best = current
            best_key = row[current]
            for candidate, key in enumerate(row):
                if candidate == current or key >= best_key:
                    continue
                if all(
                    (masks[candidate] >> values[j]) & 1
                    for j, masks in neighbor_supports[i]
                ):
                    best = candidate
                    best_key = key
            if best != current:
                values[i] = best
                changed = True
        if not changed:
            break

    for i, name in enumerate(names):
        value = kernel.domains[i][values[i]]
        if value != assignment[name]:
            assignment[name] = value


def _objective_vector(
    program: Program, array: str, domain
) -> list[tuple[float, int]]:
    """``(inflation, -locality)`` for every domain value of one array.

    Locality counts the nest weight of every reference with temporal
    locality, or with spatial locality under the value's layout, in the
    original loop order; references with equal access deltas are scored
    once, with their weights summed.
    """
    from repro.layout.mapping import LayoutMapping

    temporal = 0
    spatial: dict[tuple[int, ...], int] = {}  # nonzero delta -> weight
    for nest in program.nests_referencing(array):
        direction = (0,) * (nest.depth - 1) + (1,)
        order = nest.index_order
        for reference in nest.references_to(array):
            delta = access_delta(reference, order, direction)
            if has_temporal_locality(delta):
                temporal += nest.weight
            else:
                spatial[delta] = spatial.get(delta, 0) + nest.weight
    decl = program.array(array)
    scores = []
    for layout in domain:
        locality = temporal
        for delta, weight in spatial.items():
            if has_spatial_locality(layout, delta):
                locality += weight
        scores.append((LayoutMapping.create(decl, layout).inflation, -locality))
    return scores
