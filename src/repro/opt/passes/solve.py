"""Solving passes: the scheme ladder and solution repair.

The solve pass runs the optimizer's :class:`~repro.opt.ladder.SchemeLadder`
-- one rung for a direct scheme, the configured ladder for a portfolio
-- and the repair pass finalizes its assignment.  The inflation-repair
fixpoint lives here; the :mod:`repro.opt.optimizer` façade re-exports
it from its historical home.
"""

from __future__ import annotations

from repro.csp.compiled import compile_network
from repro.ir.program import Program
from repro.layout.layout import Layout, row_major
from repro.layout.locality import has_spatial_locality, has_temporal_locality
from repro.obs import trace as obs_trace
from repro.opt.passes.base import PipelineContext
from repro.transform.catalog import original_access_deltas


class SolvePass:
    """Solve the compiled network with the optimizer's scheme ladder.

    A direct scheme is a one-rung ladder with no deadline; a portfolio
    is the configured ladder.  Either way, when no rung returns an
    assignment the ladder's weighted branch & bound fallback answers
    (see :mod:`repro.opt.ladder`).  Portfolio runs report their winner
    as the outcome scheme ``"portfolio:<winner>"``.
    """

    name = "solve"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = (
        "assignment", "stats", "exact", "scheme", "ladder",
    )

    def __init__(self, optimizer):
        self._optimizer = optimizer

    def run(self, ctx: PipelineContext) -> None:
        if ctx.kernel is None:
            raise ValueError(
                "solve pass needs a compiled kernel; run the build pass first"
            )
        optimizer = self._optimizer
        result = optimizer.ladder.run(ctx.kernel, ctx.network.weights)
        ctx.ladder = result
        ctx.scheme = (
            f"portfolio:{result.winner}"
            if optimizer.portfolio_config is not None
            else optimizer.scheme_name
        )
        ctx.assignment = result.assignment
        ctx.stats = result.stats
        ctx.exact = result.exact


class RepairInflationPass:
    """Repair the solved assignment, then finalize per-array layouts.

    Exact assignments are greedily swapped toward lower bounding-box
    inflation (see :func:`repair_inflation`); then every declared array
    gets its layout from the assignment, defaulting to row-major for
    arrays the network never constrained.
    """

    name = "repair"
    requires: tuple[str, ...] = ("assignment",)
    provides: tuple[str, ...] = ("layouts",)

    def run(self, ctx: PipelineContext) -> None:
        if ctx.exact:
            with obs_trace.span("repair_inflation"):
                repair_inflation(
                    ctx.network.network, ctx.assignment, ctx.program
                )
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
    temporal, spatial = _locality_sources(program)
    scores = [
        _objective_vector(
            program.array(name),
            temporal.get(name, 0),
            spatial.get(name, {}),
            kernel.domains[i],
        )
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


def _locality_sources(
    program: Program,
) -> tuple[dict[str, int], dict[str, dict[tuple[int, ...], int]]]:
    """Per array, what its locality in the original loop order rests on.

    ``(temporal, spatial)``: per array, the summed nest weight of its
    references with temporal locality, and the summed nest weight per
    nonzero access delta (references with equal deltas share one
    entry).  One pass over the nests, on each nest's memoized deltas.
    """
    temporal: dict[str, int] = {}
    spatial: dict[str, dict[tuple[int, ...], int]] = {}
    for nest in program.nests:
        weight = nest.weight
        for reference, delta in zip(nest.body, original_access_deltas(nest)):
            array = reference.array
            if has_temporal_locality(delta):
                temporal[array] = temporal.get(array, 0) + weight
            else:
                weights = spatial.setdefault(array, {})
                weights[delta] = weights.get(delta, 0) + weight
    return temporal, spatial


def _objective_vector(
    decl, temporal: int, spatial: dict[tuple[int, ...], int], domain
) -> list[tuple[float, int]]:
    """``(inflation, -locality)`` for every domain value of one array.

    Locality counts the nest weight of every reference with temporal
    locality, or with spatial locality under the value's layout, in the
    original loop order (``temporal`` and ``spatial`` come from
    :func:`_locality_sources`).
    """
    from repro.layout.mapping import LayoutMapping

    scores = []
    for layout in domain:
        locality = temporal
        for delta, weight in spatial.items():
            if has_spatial_locality(layout, delta):
                locality += weight
        scores.append((LayoutMapping.create(decl, layout).inflation, -locality))
    return scores
