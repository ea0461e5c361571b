"""End-to-end memory layout optimization.

Ties the substrates together: build the constraint network from a
program (Section 3), solve it with the base or enhanced scheme
(Section 4), fall back to weighted branch & bound when the hard network
is unsatisfiable, and pick per-nest loop restructurings consistent with
the chosen layouts for the execution-time evaluation (Section 5).

Also contains the prior-work heuristic [9] used as the comparison
baseline and the dynamic-layout planner (the paper's second future-work
direction).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BuildOptions": ".network_builder",
    "LayoutNetwork": ".network_builder",
    "build_layout_network": ".network_builder",
    "CandidateScore": ".optimizer",
    "LayoutOptimizer": ".optimizer",
    "OptimizationOutcome": ".optimizer",
    "RefinementReport": ".optimizer",
    "select_transforms": ".optimizer",
    "repair_inflation": ".optimizer",
    "HeuristicOptimizer": ".heuristic",
    "DynamicLayoutPlanner": ".dynamic",
    "DynamicPlan": ".dynamic",
    "format_table": ".report",
    "optimization_report": ".report",
    "Pass": ".passes",
    "Pipeline": ".passes",
    "PipelineContext": ".passes",
    "PipelineError": ".passes",
    "BuildNetworkPass": ".passes",
    "SolvePass": ".passes",
    "RepairInflationPass": ".passes",
    "TransformSelectionPass": ".passes",
    "RefinementPass": ".passes",
    "JointSearchPass": ".passes",
    "DynamicLayoutPass": ".passes",
    "available_passes": ".passes",
    "register_pass": ".passes",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
