"""Refinement pass: re-rank the solver's answer against alternatives."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.layout.layout import Layout, row_major
from repro.obs import trace as obs_trace
from repro.opt.passes.base import PipelineContext
from repro.opt.passes.transforms import select_transforms


@dataclass(frozen=True)
class CandidateScore:
    """One refinement candidate and how the cost models priced it.

    Attributes:
        label: provenance ("search" for the solver's own answer,
            "solution-N" for enumerated alternatives).
        layouts: the candidate's full layout assignment.
        analytic_value: the analytic model's estimate (the rank the
            optimizer would have used without refinement).
        refined_value: the refining model's score (lower is better).
        chosen: True for the candidate the refined outcome adopted.
    """

    label: str
    layouts: dict[str, Layout]
    analytic_value: float
    refined_value: float
    chosen: bool = False


@dataclass(frozen=True)
class RefinementReport:
    """What simulation-guided refinement saw and decided.

    Attributes:
        model: registered name of the refining cost model.
        candidates: every scored candidate, in scoring order.
        agreement: Kendall tau between the analytic and refined
            rankings of the candidates (1.0 = the simulator confirmed
            the analytic order; low values are where the feedback loop
            earned its cycles).
        evaluate_seconds: wall-clock spent scoring candidates.
    """

    model: str
    candidates: tuple[CandidateScore, ...]
    agreement: float
    evaluate_seconds: float

    @property
    def chosen(self) -> CandidateScore:
        """The adopted candidate."""
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        raise ValueError("refinement report has no chosen candidate")


class RefinementPass:
    """Re-rank the solver's answer against enumerated alternatives.

    The candidate pool is the context's layouts plus up to ``top_k``
    distinct solutions of the compiled network; each is paired with its
    best legal restructurings and scored by the refining model (and,
    for the agreement statistic, by the analytic model).  Ties keep the
    earlier candidate, so the solver's answer survives unless the model
    strictly prefers an alternative.  The alternatives come from the
    deterministic serial enumerator, which stops at ``top_k``.
    """

    name = "refine"
    requires: tuple[str, ...] = ("layouts", "network")
    provides: tuple[str, ...] = ("layouts", "transforms", "cost", "refinement")

    def __init__(self, model, top_k: int = 8):
        if model is None:
            raise ValueError(
                "the refine pass needs a cost model; configure the "
                "optimizer with refine=... or construct "
                "RefinementPass(model) directly"
            )
        if top_k <= 0:
            raise ValueError("refine_top_k must be positive")
        self._model = model
        self._top_k = top_k

    def run(self, ctx: PipelineContext) -> None:
        from repro.csp.compiled import enumerate_solutions
        from repro.eval import AnalyticCostModel, kendall_tau

        start = time.perf_counter()
        model = self._model
        analytic = model if model.name == "analytic" else AnalyticCostModel()

        with obs_trace.span("refine", model=model.name) as refine_span:
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
            refine_span.set_attribute("candidates", len(pool))

            scored = []
            for label, layouts in pool:
                transforms = select_transforms(
                    ctx.program,
                    layouts,
                    ctx.options.include_reversals,
                    ctx.options.skew_factors,
                )
                cost = model.score(ctx.program, layouts, transforms)
                if analytic is model:
                    analytic_value = cost.value
                else:
                    analytic_value = analytic.score(
                        ctx.program, layouts, transforms
                    ).value
                scored.append((label, layouts, analytic_value, cost, transforms))

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


def _layout_key(layouts: Mapping[str, Layout]) -> tuple:
    """Hashable identity of a full layout assignment (for dedup)."""
    return tuple(sorted((name, layout) for name, layout in layouts.items()))
