"""Shared fixtures for the reproduction benchmark harness.

Everything expensive (benchmark programs, their constraint networks,
per-scheme layout solutions, simulation results) is computed once per
session and cached, so each ``bench_*`` module only pays for what it
uniquely measures.  Every module prints the reproduced table/figure
rows next to the paper's numbers; run with ``-s`` to see them inline::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.bench import benchmark_build_options, build_benchmark, BENCHMARK_NAMES
from repro.csp.backtracking import BacktrackingSolver
from repro.csp.enhanced import EnhancedSolver, EnhancementConfig
from repro.layout.layout import row_major
from repro.opt.heuristic import HeuristicOptimizer
from repro.opt.network_builder import build_layout_network
from repro.opt.optimizer import repair_inflation, select_transforms
from repro.simul.executor import simulate_program

#: Node cap for the slowest (base-scheme) runs: keeps a pathological
#: seed from stalling the harness; capped runs are reported as such.
#: ``REPRO_BENCH_NODE_CAP`` shrinks it for smoke runs (CI runs the
#: harness at a tiny size purely to catch kernel perf regressions).
BASE_NODE_CAP = int(os.environ.get("REPRO_BENCH_NODE_CAP", 40_000_000))

#: Solver seed used for every randomized run in the harness.
HARNESS_SEED = 1


@pytest.fixture(scope="session")
def build_options():
    return benchmark_build_options()


@pytest.fixture(scope="session")
def programs():
    """All five Table 1 programs."""
    return {name: build_benchmark(name) for name in BENCHMARK_NAMES}


@pytest.fixture(scope="session")
def networks(programs, build_options):
    """Constraint networks (with provenance) per benchmark."""
    return {
        name: build_layout_network(program, build_options)
        for name, program in programs.items()
    }


@pytest.fixture(scope="session")
def scheme_outcomes(programs, networks, build_options):
    """Solved layouts + timings per (benchmark, scheme).

    Schemes: "heuristic", "base", "enhanced".  Each entry is a dict
    with keys ``layouts``, ``seconds``, ``nodes`` and
    ``consistency_checks`` (both None for the heuristic), and
    ``capped`` (True when the base run hit the node budget and fell
    back to the enhanced scheme's layouts for Table 3).
    """
    results: dict[str, dict[str, dict]] = {}
    for name, program in programs.items():
        network = networks[name].network
        per_scheme: dict[str, dict] = {}

        heuristic = HeuristicOptimizer(
            build_options.include_reversals, build_options.skew_factors
        ).optimize(program)
        per_scheme["heuristic"] = {
            "layouts": heuristic.layouts,
            "seconds": heuristic.solve_seconds,
            "nodes": None,
            "consistency_checks": None,
            "capped": False,
        }

        enhanced = EnhancedSolver(seed=HARNESS_SEED).solve(network)
        assert enhanced.satisfiable, f"{name}: enhanced scheme failed"
        enhanced_assignment = dict(enhanced.assignment)
        repair_inflation(network, enhanced_assignment, program)
        per_scheme["enhanced"] = {
            "layouts": _full_layouts(program, enhanced_assignment),
            "seconds": enhanced.stats.time_seconds,
            "nodes": enhanced.stats.nodes,
            "consistency_checks": enhanced.stats.consistency_checks,
            "capped": False,
        }

        base = BacktrackingSolver(
            seed=HARNESS_SEED, max_nodes=BASE_NODE_CAP
        ).solve(network)
        capped = not base.complete
        assignment = dict(
            base.assignment if base.satisfiable else enhanced.assignment
        )
        repair_inflation(network, assignment, program)
        per_scheme["base"] = {
            "layouts": _full_layouts(program, assignment),
            "seconds": base.stats.time_seconds,
            "nodes": base.stats.nodes,
            "consistency_checks": base.stats.consistency_checks,
            "capped": capped,
        }
        results[name] = per_scheme
    return results


@pytest.fixture(scope="session")
def simulations(programs, scheme_outcomes, build_options):
    """Simulated cycles per (benchmark, version) for Table 3."""
    cycles: dict[str, dict[str, int]] = {}
    for name, program in programs.items():
        per_version: dict[str, int] = {}
        original = {decl.name: row_major(decl.rank) for decl in program.arrays}
        per_version["original"] = simulate_program(program, original).cycles
        for scheme in ("heuristic", "base", "enhanced"):
            layouts = scheme_outcomes[name][scheme]["layouts"]
            transforms = select_transforms(
                program,
                layouts,
                build_options.include_reversals,
                build_options.skew_factors,
            )
            per_version[scheme] = simulate_program(
                program, layouts, transforms=transforms
            ).cycles
        cycles[name] = per_version
    return cycles


def _full_layouts(program, assignment):
    layouts = dict(assignment)
    for decl in program.arrays:
        layouts.setdefault(decl.name, row_major(decl.rank))
    return layouts
