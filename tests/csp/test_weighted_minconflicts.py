"""Tests for weighted networks (branch & bound) and min-conflicts."""

import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.minconflicts import MinConflictsSolver
from repro.csp.network import ConstraintNetwork
from repro.csp.random_networks import random_network
from repro.csp.vectorized import batch_min_conflicts
from repro.csp.weighted import BranchAndBoundSolver, WeightedNetwork
from tests.csp.test_network import paper_example_network


def _conflicting_pair_network() -> ConstraintNetwork:
    """Two constraints over (x, y) would be contradictory if merged, so
    we encode them as a triangle: x-y wants equal, y-z wants equal,
    x-z wants different -- at most 2 of 3 satisfiable."""
    network = ConstraintNetwork()
    for name in ("x", "y", "z"):
        network.add_variable(name, [0, 1])
    equal = [(0, 0), (1, 1)]
    different = [(0, 1), (1, 0)]
    network.add_constraint("x", "y", equal)
    network.add_constraint("y", "z", equal)
    network.add_constraint("x", "z", different)
    return network


class TestWeightedNetwork:
    def test_default_weights(self):
        weighted = WeightedNetwork(paper_example_network())
        assert weighted.total_weight == pytest.approx(6.0)

    def test_explicit_weights(self):
        network = _conflicting_pair_network()
        weighted = WeightedNetwork(
            network,
            {frozenset(("x", "z")): 10.0},
        )
        assert weighted.weight_between("x", "z") == 10.0
        assert weighted.weight_between("x", "y") == 1.0

    def test_unconstrained_pair_weight_zero(self):
        weighted = WeightedNetwork(_conflicting_pair_network())
        assert weighted.weight_between("x", "x2") == 0.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedNetwork(
                _conflicting_pair_network(), {frozenset(("x", "y")): 0.0}
            )

    def test_satisfied_weight(self):
        network = _conflicting_pair_network()
        weighted = WeightedNetwork(network)
        assignment = {"x": 0, "y": 0, "z": 0}  # violates x-z only
        assert weighted.satisfied_weight(assignment) == pytest.approx(2.0)


class TestBranchAndBound:
    def test_satisfiable_network_fully_satisfied(self):
        weighted = WeightedNetwork(paper_example_network())
        result = BranchAndBoundSolver().solve(weighted)
        assert result.fully_satisfied
        assert weighted.network.is_solution(result.assignment)

    def test_unsat_network_best_effort(self):
        weighted = WeightedNetwork(_conflicting_pair_network())
        result = BranchAndBoundSolver().solve(weighted)
        assert not result.fully_satisfied
        assert result.satisfied_weight == pytest.approx(2.0)

    def test_weights_steer_which_constraint_is_dropped(self):
        """Future work #1: weights distinguish between solutions.  With
        x-z heavily weighted, the optimum violates an equality instead."""
        network = _conflicting_pair_network()
        weighted = WeightedNetwork(network, {frozenset(("x", "z")): 10.0})
        result = BranchAndBoundSolver().solve(weighted)
        assignment = result.assignment
        assert assignment["x"] != assignment["z"]  # x-z satisfied
        assert result.satisfied_weight == pytest.approx(11.0)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_optimum_at_least_greedy(self, seed):
        """B&B must do at least as well as any single assignment we can
        construct greedily (here: the planted assignment region)."""
        network = random_network(
            6, 3, density=0.6, tightness=0.4, seed=seed, plant_solution=True
        )
        weighted = WeightedNetwork(network)
        result = BranchAndBoundSolver().solve(weighted)
        # Planted solution exists, so the optimum is full satisfaction.
        assert result.fully_satisfied

    def test_optimum_equals_the_exhaustive_optimum(self):
        """An optimality oracle on networks with no planted solution,
        most of them unsatisfiable: the weight branch and bound
        satisfies equals the best over every assignment, computed only
        through the network's own ``allows`` checks."""
        unsatisfiable = 0
        for seed in range(300):
            network = random_network(
                6, 3, density=0.8, tightness=0.6, seed=seed,
                plant_solution=False,
            )
            rng = random.Random(seed)
            weights = {
                frozenset((c.first, c.second)): float(rng.randint(1, 5))
                for c in network.constraints
            }

            def satisfied(assignment):
                return sum(
                    weights[frozenset((c.first, c.second))]
                    for c in network.constraints
                    if c.allows(c.first, assignment[c.first], assignment[c.second])
                )

            names = network.variables
            optimum = max(
                satisfied(dict(zip(names, combo)))
                for combo in product(*(network.domain(name) for name in names))
            )
            unsatisfiable += optimum < sum(weights.values())
            result = BranchAndBoundSolver().solve(WeightedNetwork(network, weights))
            assert result.satisfied_weight == optimum, seed
            assert satisfied(result.assignment) == optimum, seed
        assert unsatisfiable == 283

    def test_stats_populated(self):
        weighted = WeightedNetwork(paper_example_network())
        result = BranchAndBoundSolver().solve(weighted)
        assert result.stats.nodes > 0


class TestMinConflicts:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            MinConflictsSolver(max_steps=0)
        with pytest.raises(ValueError):
            MinConflictsSolver(max_restarts=0)

    def test_restart_counter(self):
        # Unsatisfiable triangle: every restart is consumed.
        network = ConstraintNetwork()
        for name in ("x", "y", "z"):
            network.add_variable(name, [0, 1])
        different = [(0, 1), (1, 0)]
        network.add_constraint("x", "y", different)
        network.add_constraint("y", "z", different)
        network.add_constraint("x", "z", different)
        solver = MinConflictsSolver(seed=1, max_steps=30, max_restarts=3)
        result = solver.solve(network)
        assert result.stats.restarts == 3

    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_solutions_are_verified_solutions(self, seed):
        network = random_network(
            8, 4, density=0.3, tightness=0.3, seed=seed, plant_solution=True
        )
        result = MinConflictsSolver(seed=seed).solve(network)
        if result.satisfiable:
            assert network.is_solution(result.assignment)

    def test_batch_chains_match_standalone_runs(self):
        # A loose network: some seeds converge in a few steps, others
        # wander much longer, so the chains finish at different points.
        network = random_network(12, 4, 0.4, 0.25, seed=2)
        seeds = list(range(8))
        budgets = {"max_steps": 200, "max_restarts": 3}
        for engine in ("bitset", "auto"):
            batch = batch_min_conflicts(network, seeds, engine=engine, **budgets)
            for seed, result in zip(seeds, batch):
                solo = MinConflictsSolver(
                    seed=seed, engine="bitset", **budgets
                ).solve(network)
                assert result.assignment == solo.assignment, engine
                assert result.stats.nodes == solo.stats.nodes, engine
                assert result.stats.restarts == solo.stats.restarts, engine
                assert (
                    result.stats.consistency_checks
                    == solo.stats.consistency_checks
                ), engine

    def test_batch_deadline_cuts_the_walks_short(self):
        hard = random_network(30, 6, 0.4, 0.5, seed=4, plant_solution=False)
        for engine in ("bitset", "auto"):
            start = time.perf_counter()
            results = batch_min_conflicts(
                hard,
                list(range(8)),
                max_steps=1_000_000,
                max_restarts=1_000,
                engine=engine,
                deadline_at=time.monotonic() + 0.2,
            )
            assert time.perf_counter() - start < 5.0, engine
            assert all(result.assignment is None for result in results), engine


class TestRandomNetworkGenerator:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_network(1, 3, 0.5, 0.5)
        with pytest.raises(ValueError):
            random_network(3, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            random_network(3, 3, 1.5, 0.5)
        with pytest.raises(ValueError):
            random_network(3, 3, 0.5, 1.0)

    def test_determinism(self):
        a = random_network(6, 3, 0.5, 0.4, seed=9)
        b = random_network(6, 3, 0.5, 0.4, seed=9)
        assert a.variables == b.variables
        assert {
            (c.first, c.second): c.pairs for c in a.constraints
        } == {(c.first, c.second): c.pairs for c in b.constraints}

    def test_density_zero_no_constraints(self):
        network = random_network(5, 3, 0.0, 0.5, seed=0)
        assert network.constraints == ()

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_planted_solution_is_solution(self, seed):
        import random as pyrandom

        network = random_network(
            6, 4, density=0.8, tightness=0.6, seed=seed, plant_solution=True
        )
        # Reconstruct the planted assignment the generator used.
        rng = pyrandom.Random(seed)
        planted = {f"x{i}": rng.randrange(4) for i in range(6)}
        assert network.is_solution(planted)
