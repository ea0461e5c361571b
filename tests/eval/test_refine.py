"""Tests for simulation-guided refinement in the optimizer."""

import pytest

from repro.csp.compiled import compile_network, enumerate_solutions
from repro.csp.random_networks import random_network
from repro.eval import SimulatedCostModel
from repro.ir.parser import parse_program
from repro.opt.network_builder import build_layout_network
from repro.opt.optimizer import LayoutOptimizer, select_transforms
from repro.simul.executor import simulate_program

#: Two nests pulling B in different directions: the network admits
#: several solutions and only simulation can price them against the
#: nests' relative weights.
TWO_NESTS = """
array B[64][64]
array OUT[64][64]
array ACC[64][64]
nest rows weight=2 {
    for i = 0 .. 63 { for j = 0 .. 63 { OUT[i][j] = B[i][j] } }
}
nest cols {
    for i = 0 .. 63 { for j = 0 .. 63 { ACC[j][i] = B[j][i] } }
}
"""


class TestEnumerateSolutions:
    def test_finds_multiple_distinct_solutions(self):
        network = build_layout_network(parse_program(TWO_NESTS))
        solutions = enumerate_solutions(network.kernel(), 4)
        assert 1 <= len(solutions) <= 4
        keys = {tuple(sorted(s.items())) for s in solutions}
        assert len(keys) == len(solutions)
        for solution in solutions:
            assert network.network.is_solution(solution)

    def test_limit_respected(self):
        network = build_layout_network(parse_program(TWO_NESTS))
        assert len(enumerate_solutions(network.kernel(), 1)) == 1

    def test_limit_stops_the_stream(self):
        """The depth-first stream stops at the limit: a smaller limit
        yields a prefix of a larger one."""
        kernel = compile_network(random_network(9, 3, 0.4, 0.2, seed=29))
        first = enumerate_solutions(kernel, 3)
        assert 1 <= len(first) <= 3
        assert enumerate_solutions(kernel, 12)[: len(first)] == first

    def test_unsat_stream_is_empty(self):
        unsat = random_network(8, 3, 0.9, 0.6, seed=31, plant_solution=False)
        assert enumerate_solutions(compile_network(unsat), 5) == []

    def test_bad_limit_rejected(self):
        network = build_layout_network(parse_program(TWO_NESTS))
        with pytest.raises(ValueError):
            enumerate_solutions(network.kernel(), 0)

    def test_deterministic(self):
        network = build_layout_network(parse_program(TWO_NESTS))
        assert enumerate_solutions(network.kernel(), 5) == enumerate_solutions(
            network.kernel(), 5
        )


class TestRefinedOptimizer:
    def test_refined_outcome_carries_cost_and_report(self):
        outcome = LayoutOptimizer(
            refine=SimulatedCostModel(), refine_top_k=4
        ).optimize(parse_program(TWO_NESTS))
        assert outcome.cost is not None
        assert outcome.cost.model == "simulated"
        assert outcome.refinement is not None
        assert outcome.refinement.chosen.layouts == outcome.layouts
        assert -1.0 <= outcome.refinement.agreement <= 1.0

    def test_refined_never_loses_to_unrefined(self):
        program = parse_program(TWO_NESTS)
        plain = LayoutOptimizer().optimize(program)
        refined = LayoutOptimizer(
            refine=SimulatedCostModel(), refine_top_k=6
        ).optimize(program)

        def cycles(layouts):
            transforms = select_transforms(program, layouts)
            return simulate_program(program, layouts, transforms=transforms).cycles

        assert cycles(refined.layouts) <= cycles(plain.layouts)
        assert refined.cost.value == cycles(refined.layouts)

    def test_refine_by_name(self):
        outcome = LayoutOptimizer(refine="analytic").optimize(
            parse_program(TWO_NESTS)
        )
        assert outcome.cost.model == "analytic"
        assert outcome.refinement.model == "analytic"

    def test_refine_weighted_scores_against_optimizer_options(self):
        """The weighted refine model must build its scoring network
        with the optimizer's own BuildOptions, not the defaults."""
        from repro.opt.network_builder import BuildOptions

        options = BuildOptions(skew_factors=(1, 2))
        optimizer = LayoutOptimizer(options=options, refine="weighted")
        assert optimizer._refine._options is options
        outcome = optimizer.optimize(parse_program(TWO_NESTS))
        assert outcome.cost.model == "weighted"
        assert outcome.cost.value == 0.0  # chosen candidate satisfies net

    def test_bad_top_k_rejected(self):
        with pytest.raises(ValueError):
            LayoutOptimizer(refine="analytic", refine_top_k=0)

    def test_unknown_refine_model_rejected(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            LayoutOptimizer(refine="clairvoyant")

    def test_portfolio_scheme_composes_with_refine(self):
        from repro.service.portfolio import PortfolioConfig

        config = PortfolioConfig(schemes=("enhanced",))
        outcome = LayoutOptimizer(
            scheme=config, refine=SimulatedCostModel(), refine_top_k=3
        ).optimize(parse_program(TWO_NESTS))
        assert outcome.cost is not None
        assert outcome.scheme.startswith("portfolio:")
