"""repro -- constraint-network based memory layout optimization.

A from-scratch Python reproduction of G. Chen, M. Kandemir and
M. Karakoy, "A Constraint Network Based Approach to Memory Layout
Optimization", DATE 2005.

Quickstart::

    from repro import parse_program, LayoutOptimizer

    program = parse_program('''
        array Q1[512][512]
        array Q2[512][512]
        nest fig2 {
            for i1 = 0 .. 255 {
                for i2 = 0 .. 255 {
                    Q1[i1+i2][i2] = Q2[i1+i2][i1]
                }
            }
        }
    ''')
    outcome = LayoutOptimizer(scheme="enhanced").optimize(program)
    for array, layout in outcome.layouts.items():
        print(array, layout.describe())

For production-style serving -- many programs, solver portfolio
ladders, result caching -- see :mod:`repro.service` and the batch
CLI ``python -m repro.service`` (README.md has a walkthrough).

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison.
"""

#: Package version; surfaced by ``python -m repro.service --version``.
#: Defined before the subpackage imports below: the service daemon
#: reports it in its hello and imports it mid-package-init.
__version__ = "1.10.0"

from repro.ir import (
    AffineExpr,
    ArrayDecl,
    ArrayRef,
    AccessKind,
    Loop,
    LoopNest,
    Program,
    parse_program,
)
from repro.layout import (
    Hyperplane,
    Layout,
    LayoutMapping,
    row_major,
    column_major,
    diagonal,
    antidiagonal,
)
from repro.csp import (
    ConstraintNetwork,
    BacktrackingSolver,
    EnhancedSolver,
    EnhancementConfig,
)
from repro.opt import (
    BuildOptions,
    LayoutOptimizer,
    HeuristicOptimizer,
    DynamicLayoutPlanner,
    build_layout_network,
    select_transforms,
)
from repro.simul import simulate_program
from repro.cachesim import HierarchyConfig, paper_hierarchy
from repro.eval import (
    Cost,
    CostModel,
    available_cost_models,
    get_cost_model,
    register_cost_model,
)
from repro.service import (
    EvaluationRequest,
    EvaluationService,
    PortfolioConfig,
    PortfolioSolver,
    ResultCache,
    ShardedResultCache,
    SolverDaemon,
    run_batch,
    run_evaluation_batch,
)

__all__ = [
    "AffineExpr",
    "ArrayDecl",
    "ArrayRef",
    "AccessKind",
    "Loop",
    "LoopNest",
    "Program",
    "parse_program",
    "Hyperplane",
    "Layout",
    "LayoutMapping",
    "row_major",
    "column_major",
    "diagonal",
    "antidiagonal",
    "ConstraintNetwork",
    "BacktrackingSolver",
    "EnhancedSolver",
    "EnhancementConfig",
    "BuildOptions",
    "LayoutOptimizer",
    "HeuristicOptimizer",
    "DynamicLayoutPlanner",
    "build_layout_network",
    "select_transforms",
    "simulate_program",
    "HierarchyConfig",
    "paper_hierarchy",
    "Cost",
    "CostModel",
    "available_cost_models",
    "get_cost_model",
    "register_cost_model",
    "EvaluationRequest",
    "EvaluationService",
    "PortfolioConfig",
    "PortfolioSolver",
    "ResultCache",
    "ShardedResultCache",
    "SolverDaemon",
    "run_batch",
    "run_evaluation_batch",
    "__version__",
]
