"""Tests for the solution-repair pass and the stats/report plumbing."""

import pytest

from repro.bench.programs import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.backjumping import ConflictDirectedSolver
from repro.csp.enhanced import EnhancedSolver
from repro.csp.stats import SolverResult, SolverStats
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.parser import parse_program
from repro.layout.layout import Layout, column_major, row_major
from repro.layout.locality import (
    access_delta,
    has_spatial_locality,
    has_temporal_locality,
)
from repro.layout.mapping import LayoutMapping
from repro.opt.network_builder import build_layout_network
from repro.opt.optimizer import LayoutOptimizer, repair_inflation
from repro.opt.report import format_table

#: B is read row-wise in a heavy nest; plenty of decoy layouts exist in
#: the domain via restructurings.
SIMPLE = """
array B[96][96]
array OUT[96][96]
nest sweep weight=4 {
    for i = 0 .. 95 { for j = 0 .. 95 { OUT[i][j] = B[i][j] } }
}
"""


class TestRepairInflation:
    def test_repair_keeps_solution(self):
        program = parse_program(SIMPLE)
        network = build_layout_network(program).network
        # Start from a deliberately exotic but valid solution if one
        # exists; otherwise from whatever the solver returns.
        from repro.csp.enhanced import EnhancedSolver

        result = EnhancedSolver().solve(network)
        assignment = dict(result.assignment)
        repair_inflation(network, assignment, program)
        assert network.is_solution(assignment)

    def test_repair_prefers_row_major_for_row_sweep(self):
        program = parse_program(SIMPLE)
        outcome = LayoutOptimizer(scheme="enhanced").optimize(program)
        assert outcome.layouts["B"] == row_major(2)
        assert outcome.layouts["OUT"] == row_major(2)

    def test_repair_is_idempotent(self):
        program = parse_program(SIMPLE)
        network = build_layout_network(program).network
        from repro.csp.enhanced import EnhancedSolver

        assignment = dict(EnhancedSolver().solve(network).assignment)
        repair_inflation(network, assignment, program)
        once = dict(assignment)
        repair_inflation(network, assignment, program)
        assert assignment == once


def _named_repair_inflation(network, assignment: dict, program) -> None:
    """The authoring-tier repair loop, kept as the parity oracle.

    Scores each (array, layout) lazily and tests every swap through
    ``check_pair`` on named values; :func:`repair_inflation` must reach
    the same assignment from the compiled kernel's support masks.
    """
    objective_cache: dict = {}

    def objective(array, layout):
        cached = objective_cache.get((array, layout))
        if cached is not None:
            return cached
        inflation = LayoutMapping.create(program.array(array), layout).inflation
        locality = 0
        for nest in program.nests_referencing(array):
            direction = tuple([0] * (nest.depth - 1) + [1])
            order = nest.index_order
            for reference in nest.references_to(array):
                delta = access_delta(reference, order, direction)
                if has_temporal_locality(delta) or has_spatial_locality(
                    layout, delta
                ):
                    locality += nest.weight
        score = (inflation, -locality)
        objective_cache[(array, layout)] = score
        return score

    for _ in range(len(network.variables)):
        changed = False
        for array in network.variables:
            current = assignment[array]
            best = current
            best_key = objective(array, current)
            for candidate in network.domain(array):
                if candidate == current:
                    continue
                key = objective(array, candidate)
                if key >= best_key:
                    continue
                consistent = all(
                    network.check_pair(
                        array, candidate, neighbor, assignment[neighbor]
                    )
                    for neighbor in network.neighbors(array)
                )
                if consistent:
                    best = candidate
                    best_key = key
            if best != current:
                assignment[array] = best
                changed = True
        if not changed:
            break


def _parity_programs():
    programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
    return programs + list(random_suite(60))


def _starting_solutions(layout_network):
    """Enhanced, cbj and weighted solutions of one layout network."""
    network = layout_network.network
    starts = {}
    for scheme, solver in (
        ("enhanced", EnhancedSolver()),
        ("cbj", ConflictDirectedSolver()),
    ):
        result = solver.solve(network)
        if result.assignment is not None:
            starts[scheme] = dict(result.assignment)
    weighted = BranchAndBoundSolver().solve_compiled(
        layout_network.kernel(), layout_network.weights
    )
    starts["weighted"] = dict(weighted.assignment)
    return starts


class TestRepairParity:
    """The kernel-indexed repair matches the named-value oracle."""

    def test_identical_assignments(self):
        options = benchmark_build_options()
        compared = moved = 0
        for program in _parity_programs():
            layout_network = build_layout_network(program, options)
            network = layout_network.network
            for scheme, start in _starting_solutions(layout_network).items():
                expected = dict(start)
                _named_repair_inflation(network, expected, program)
                actual = dict(start)
                repair_inflation(network, actual, program)
                assert actual == expected, (program.name, scheme)
                compared += 1
                moved += actual != start
        assert compared >= 3 * (len(BENCHMARK_NAMES) + 60) - 10
        assert moved > 0  # real swaps were compared, not just no-ops

    def test_extra_keys_left_untouched(self):
        program = build_benchmark("Med-Im04")
        layout_network = build_layout_network(program, benchmark_build_options())
        network = layout_network.network
        assignment = dict(EnhancedSolver().solve(network).assignment)
        sentinel = object()
        assignment["not-a-network-variable"] = sentinel
        assignment["ALSO_UNCONSTRAINED"] = column_major(3)
        repair_inflation(network, assignment, program)
        assert assignment["not-a-network-variable"] is sentinel
        assert assignment["ALSO_UNCONSTRAINED"] == column_major(3)
        del assignment["not-a-network-variable"], assignment["ALSO_UNCONSTRAINED"]
        assert network.is_solution(assignment)


class TestSolverStats:
    def test_total_effort(self):
        stats = SolverStats(nodes=5, consistency_checks=11)
        assert stats.total_effort == 16

    def test_as_dict_keys(self):
        stats = SolverStats()
        assert set(stats.as_dict()) == {
            "nodes",
            "backtracks",
            "backjumps",
            "consistency_checks",
            "restarts",
            "time_seconds",
        }

    def test_result_satisfiable(self):
        assert SolverResult({"x": 1}, SolverStats()).satisfiable
        assert not SolverResult(None, SolverStats()).satisfiable


class TestReportFormatting:
    def test_numeric_right_alignment(self):
        table = format_table(["n"], [[5], [123]])
        lines = table.splitlines()
        assert lines[-1] == "123"
        assert lines[-2] == "  5"

    def test_mixed_columns(self):
        table = format_table(
            ["name", "pct"], [["alpha", "50.0%"], ["b", "7.1%"]]
        )
        assert "alpha" in table
