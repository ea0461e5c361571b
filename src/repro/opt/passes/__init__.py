"""First-class optimizer passes.

The paper's pipeline as composable objects: build the constraint
network, solve it (a scheme ladder: one rung for a direct scheme, the
configured rungs for a portfolio), repair the solution, pick loop
restructurings -- plus the stages the monolithic façade could never
host: joint layout x transform search and dynamic layout planning.
:mod:`repro.opt.passes.base` holds the substrate (:class:`Pass`
protocol, :class:`PipelineContext`, :class:`Pipeline` runner,
registry); each pass module registers its factory here so
``LayoutOptimizer(passes=[...])`` and the CLI ``--passes`` flag
resolve names to configured instances.
"""

from repro.opt.passes.base import (
    PASS_SECONDS_METRIC,
    Pass,
    Pipeline,
    PipelineContext,
    PipelineError,
    available_passes,
    record_pass_seconds,
    register_pass,
    resolve_passes,
)
from repro.opt.passes.build import BuildNetworkPass
from repro.opt.passes.dynamic import DynamicLayoutPass
from repro.opt.passes.joint import JointSearchPass
from repro.opt.passes.refine import (
    CandidateScore,
    RefinementPass,
    RefinementReport,
)
from repro.opt.passes.solve import RepairInflationPass, SolvePass
from repro.opt.passes.transforms import TransformSelectionPass

register_pass("build", lambda optimizer: BuildNetworkPass())
register_pass("solve", lambda optimizer: SolvePass(optimizer))
register_pass("repair", lambda optimizer: RepairInflationPass())
register_pass("transform", lambda optimizer: TransformSelectionPass(optimizer))
register_pass(
    "refine",
    lambda optimizer: RefinementPass(optimizer.refine, optimizer.refine_top_k),
)
register_pass(
    "joint",
    lambda optimizer: JointSearchPass(
        model=optimizer.refine,
        top_k=optimizer.refine_top_k,
    ),
)
register_pass("dynamic", lambda optimizer: DynamicLayoutPass())

__all__ = [
    "PASS_SECONDS_METRIC",
    "Pass",
    "Pipeline",
    "PipelineContext",
    "PipelineError",
    "available_passes",
    "record_pass_seconds",
    "register_pass",
    "resolve_passes",
    "BuildNetworkPass",
    "SolvePass",
    "RepairInflationPass",
    "TransformSelectionPass",
    "RefinementPass",
    "JointSearchPass",
    "DynamicLayoutPass",
    "CandidateScore",
    "RefinementReport",
]
