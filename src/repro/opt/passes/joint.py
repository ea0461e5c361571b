"""Joint layout x transform search pass.

The default pipeline is sequential: layouts are frozen first, then
each nest independently picks the restructuring best matched to them
(:func:`~repro.opt.passes.transforms.select_transforms`).  That misses
combinations where a *worse-looking* layout plus a non-obvious legal
transform beats the greedy pair -- the composition gap the
QCSP-complexity line of work locates the hardness in.

:class:`JointSearchPass` searches both together: for every layout
candidate (the solver's answer plus enumerated alternatives of the
compiled network, the same pool refinement scores), it seeds from the
sequential choice and then runs per-nest coordinate descent over the
nest's full legal-transform catalog, keeping any strictly cheaper
(model-scored) transform.  Because the sequential default's
(layout, transform) combination is always in the pool, the jointly
chosen pair is never worse than the default under the scoring model
-- and is strictly better whenever coordinate descent finds a move
the greedy per-nest score ranked wrong.
"""

from __future__ import annotations

import time

from repro.layout.layout import Layout, row_major
from repro.obs import trace as obs_trace
from repro.opt.passes.base import PipelineContext
from repro.opt.passes.refine import (
    CandidateScore,
    RefinementReport,
    _layout_key,
)
from repro.opt.passes.transforms import _select_transforms
from repro.transform.catalog import legal_transforms


class JointSearchPass:
    """Score (layout candidate x legal per-nest transforms) jointly.

    Args:
        model: the scoring cost model; ``None`` uses the analytic
            model.  The optimizer's pass factory threads its configured
            ``refine`` model through, so ``refine="simulated"`` makes
            the joint search simulator-guided.
        top_k: how many enumerated layout alternatives to consider
            beside the solver's own answer (from the deterministic
            serial enumerator, which stops at ``top_k``).
        max_sweeps: coordinate-descent sweeps over the nests per
            candidate (each sweep re-visits every nest; descent stops
            early when a sweep changes nothing).

    The pass fills ``layouts``, ``transforms``, ``cost`` and a
    ``refinement`` report whose candidate rows carry each candidate's
    jointly improved score, so reports and tooling show the evidence
    exactly like simulation-guided refinement.
    """

    name = "joint"
    requires: tuple[str, ...] = ("layouts", "network")
    provides: tuple[str, ...] = ("layouts", "transforms", "cost", "refinement")

    def __init__(
        self,
        model=None,
        top_k: int = 8,
        max_sweeps: int = 2,
    ):
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if max_sweeps <= 0:
            raise ValueError("max_sweeps must be positive")
        self._model = model
        self._top_k = top_k
        self._max_sweeps = max_sweeps

    def run(self, ctx: PipelineContext) -> None:
        from repro.csp.compiled import enumerate_solutions
        from repro.eval import AnalyticCostModel, kendall_tau

        start = time.perf_counter()
        model = self._model if self._model is not None else AnalyticCostModel()
        analytic = model if model.name == "analytic" else AnalyticCostModel()

        with obs_trace.span("joint_search", model=model.name) as joint_span:
            solutions = enumerate_solutions(ctx.network.kernel(), self._top_k)
            pool: list[tuple[str, dict[str, Layout]]] = [
                ("search", dict(ctx.layouts))
            ]
            seen = {_layout_key(ctx.layouts)}
            for index, assignment in enumerate(solutions):
                layouts = {
                    decl.name: assignment.get(decl.name, row_major(decl.rank))
                    for decl in ctx.program.arrays
                }
                key = _layout_key(layouts)
                if key in seen:
                    continue
                seen.add(key)
                pool.append((f"solution-{index + 1}", layouts))
            joint_span.set_attribute("candidates", len(pool))

            scored = []
            moves_total = 0
            for label, layouts in pool:
                transforms, cost, moves = self._descend(ctx, model, layouts)
                moves_total += moves
                analytic_value = (
                    cost.value
                    if analytic is model
                    else analytic.score(ctx.program, layouts, transforms).value
                )
                scored.append((label, layouts, analytic_value, cost, transforms))
            joint_span.set_attribute("transform_moves", moves_total)

        best = min(range(len(scored)), key=lambda i: scored[i][3].value)
        agreement = kendall_tau(
            [entry[2] for entry in scored],
            [entry[3].value for entry in scored],
        )
        report = RefinementReport(
            model=model.name,
            candidates=tuple(
                CandidateScore(
                    label=label,
                    layouts=layouts,
                    analytic_value=analytic_value,
                    refined_value=cost.value,
                    chosen=(index == best),
                )
                for index, (label, layouts, analytic_value, cost, _) in enumerate(
                    scored
                )
            ),
            agreement=agreement,
            evaluate_seconds=time.perf_counter() - start,
        )
        ctx.layouts = dict(scored[best][1])
        ctx.transforms = scored[best][4]
        ctx.cost = scored[best][3]
        ctx.refinement = report

    def _descend(self, ctx: PipelineContext, model, layouts):
        """Per-nest coordinate descent from the sequential seed.

        Returns ``(transforms, cost, moves)`` where ``moves`` counts
        accepted transform changes (0 means the sequential choice was
        already a local optimum under the model).
        """
        include_reversals = ctx.options.include_reversals
        skew_factors = ctx.options.skew_factors
        transforms = _select_transforms(
            ctx.program, layouts, include_reversals, skew_factors
        )
        cost = model.score(ctx.program, layouts, transforms)
        moves = 0
        for _ in range(self._max_sweeps):
            changed = False
            for nest in ctx.program.nests:
                for transform in legal_transforms(
                    nest, include_reversals, skew_factors
                ):
                    if transform == transforms[nest.name]:
                        continue
                    trial = dict(transforms)
                    trial[nest.name] = transform
                    trial_cost = model.score(ctx.program, layouts, trial)
                    if trial_cost.value < cost.value:
                        transforms = trial
                        cost = trial_cost
                        changed = True
                        moves += 1
            if not changed:
                break
        return transforms, cost, moves
