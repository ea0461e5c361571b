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

from repro._exports import lazy_exports
from repro.opt.passes.base import register_pass
from repro.opt.passes.build import BuildNetworkPass
from repro.opt.passes.solve import RepairInflationPass, SolvePass
from repro.opt.passes.transforms import TransformSelectionPass


# The opt-in passes import their modules when a pipeline asks for them,
# so the default pipeline never loads them.
def _refine(optimizer):
    from repro.opt.passes.refine import RefinementPass

    return RefinementPass(optimizer.refine, optimizer.refine_top_k)


def _joint(optimizer):
    from repro.opt.passes.joint import JointSearchPass

    return JointSearchPass(model=optimizer.refine, top_k=optimizer.refine_top_k)


def _dynamic(optimizer):
    from repro.opt.passes.dynamic import DynamicLayoutPass

    return DynamicLayoutPass()


register_pass("build", lambda optimizer: BuildNetworkPass())
register_pass("solve", lambda optimizer: SolvePass(optimizer))
register_pass("repair", lambda optimizer: RepairInflationPass())
register_pass("transform", lambda optimizer: TransformSelectionPass(optimizer))
register_pass("refine", _refine)
register_pass("joint", _joint)
register_pass("dynamic", _dynamic)

_EXPORTS = {
    "PASS_SECONDS_METRIC": ".base",
    "Pass": ".base",
    "Pipeline": ".base",
    "PipelineContext": ".base",
    "PipelineError": ".base",
    "available_passes": ".base",
    "record_pass_seconds": ".base",
    "register_pass": ".base",
    "resolve_passes": ".base",
    "BuildNetworkPass": ".build",
    "SolvePass": ".solve",
    "RepairInflationPass": ".solve",
    "TransformSelectionPass": ".transforms",
    "RefinementPass": ".refine",
    "JointSearchPass": ".joint",
    "DynamicLayoutPass": ".dynamic",
    "CandidateScore": ".refine",
    "RefinementReport": ".refine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
