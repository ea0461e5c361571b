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

README.md's "Layout of the repository" lists every subpackage, and
``scripts/pipeline_expectations.json`` pins the reproduced Table 1 layouts
and Table 3 cycles.  The names below are re-exported lazily: ``import
repro`` imports only the subpackages whose names the caller looks up.
"""

#: Package version; surfaced by ``python -m repro.service --version`` and
#: the daemon's hello.  A literal, so setuptools reads it without
#: importing the package.
__version__ = "1.10.0"

from repro._exports import lazy_exports

_EXPORTS = {
    "AffineExpr": ".ir",
    "ArrayDecl": ".ir",
    "ArrayRef": ".ir",
    "AccessKind": ".ir",
    "Loop": ".ir",
    "LoopNest": ".ir",
    "Program": ".ir",
    "parse_program": ".ir",
    "Hyperplane": ".layout",
    "Layout": ".layout",
    "LayoutMapping": ".layout",
    "row_major": ".layout",
    "column_major": ".layout",
    "diagonal": ".layout",
    "antidiagonal": ".layout",
    "ConstraintNetwork": ".csp",
    "BacktrackingSolver": ".csp",
    "EnhancedSolver": ".csp",
    "EnhancementConfig": ".csp",
    "BuildOptions": ".opt",
    "LayoutOptimizer": ".opt",
    "HeuristicOptimizer": ".opt",
    "DynamicLayoutPlanner": ".opt",
    "build_layout_network": ".opt",
    "select_transforms": ".opt",
    "simulate_program": ".simul",
    "HierarchyConfig": ".cachesim",
    "paper_hierarchy": ".cachesim",
    "Cost": ".eval",
    "CostModel": ".eval",
    "available_cost_models": ".eval",
    "get_cost_model": ".eval",
    "register_cost_model": ".eval",
    "EvaluationRequest": ".service",
    "EvaluationService": ".service",
    "PortfolioConfig": ".service",
    "PortfolioSolver": ".service",
    "ResultCache": ".service",
    "SolverDaemon": ".service",
    "run_batch": ".service",
    "run_evaluation_batch": ".service",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
