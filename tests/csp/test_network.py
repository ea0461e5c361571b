"""Unit tests for repro.csp.network."""

import pytest

from repro.csp.network import BinaryConstraint, ConstraintNetwork


def paper_example_network() -> ConstraintNetwork:
    """The four-array constraint network of Section 3.

    One correction: the paper lists S24 = {[(1 0), (0 1)], [(1 1), (1 0)]},
    but (1 0) is not in M2 = {(1 -1), (1 1)} -- a typo in the paper.  We
    use [(1 -1), (0 1)] for the first pair (the only in-domain reading);
    the paper's stated solution is unaffected.
    """
    network = ConstraintNetwork()
    network.add_variable("Q1", [(1, 0), (0, 1), (1, 1)])
    network.add_variable("Q2", [(1, -1), (1, 1)])
    network.add_variable("Q3", [(0, 1), (1, 1), (1, 2)])
    network.add_variable("Q4", [(1, 0), (0, 1), (1, 1)])
    network.add_constraint(
        "Q1", "Q2", [((1, 0), (1, 1)), ((0, 1), (1, -1))]
    )
    network.add_constraint(
        "Q1",
        "Q3",
        [((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 2))],
    )
    network.add_constraint(
        "Q1", "Q4", [((1, 0), (1, 0)), ((0, 1), (0, 1))]
    )
    network.add_constraint(
        "Q2", "Q3", [((1, 1), (0, 1)), ((1, -1), (1, 1))]
    )
    network.add_constraint(
        "Q2", "Q4", [((1, -1), (0, 1)), ((1, 1), (1, 0))]
    )
    network.add_constraint("Q3", "Q4", [((0, 1), (1, 0))])
    return network


#: The solution the paper states for its example network.
PAPER_SOLUTION = {
    "Q1": (1, 0),
    "Q2": (1, 1),
    "Q3": (0, 1),
    "Q4": (1, 0),
}


class TestConstruction:
    def test_duplicate_variable_rejected(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1])
        with pytest.raises(ValueError):
            network.add_variable("x", [2])

    def test_empty_domain_rejected(self):
        network = ConstraintNetwork()
        with pytest.raises(ValueError):
            network.add_variable("x", [])

    def test_duplicate_domain_values_rejected(self):
        network = ConstraintNetwork()
        with pytest.raises(ValueError):
            network.add_variable("x", [1, 1])

    def test_constraint_on_unknown_variable(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1])
        with pytest.raises(KeyError):
            network.add_constraint("x", "y", [(1, 1)])

    def test_out_of_domain_pair_rejected(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1])
        network.add_variable("y", [1])
        with pytest.raises(ValueError):
            network.add_constraint("x", "y", [(2, 1)])

    def test_self_constraint_rejected(self):
        with pytest.raises(ValueError):
            BinaryConstraint("x", "x", frozenset({(1, 1)}))

    def test_empty_constraint_rejected(self):
        with pytest.raises(ValueError):
            BinaryConstraint("x", "y", frozenset())

    def test_repeated_constraint_intersects(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1, 2])
        network.add_variable("y", [1, 2])
        network.add_constraint("x", "y", [(1, 1), (2, 2)])
        network.add_constraint("y", "x", [(1, 1), (2, 1)])  # re-oriented
        constraint = network.constraint_between("x", "y")
        assert constraint.pairs == frozenset({(1, 1)})

    def test_empty_intersection_rejected(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1, 2])
        network.add_variable("y", [1, 2])
        network.add_constraint("x", "y", [(1, 1)])
        with pytest.raises(ValueError):
            network.add_constraint("x", "y", [(2, 2)])

    def test_from_checked_equals_incremental_build(self):
        authored = paper_example_network()
        network = ConstraintNetwork.from_checked(
            {name: authored.domain(name) for name in authored.variables},
            authored.constraints,
        )
        assert network.variables == authored.variables
        assert network.constraints == authored.constraints
        for name in authored.variables:
            assert network.domain(name) == authored.domain(name)
            assert network.neighbors(name) == authored.neighbors(name)
        assert network.revision == authored.revision
        assert network.canonical_form() == authored.canonical_form()


class TestQueries:
    def test_paper_example_shape(self):
        network = paper_example_network()
        assert len(network.variables) == 4
        assert len(network.constraints) == 6
        # "Domain Size" of the example: 3 + 2 + 3 + 3.
        assert network.total_domain_size == 11
        assert network.search_space_size == 3 * 2 * 3 * 3

    def test_neighbors(self):
        network = paper_example_network()
        assert network.neighbors("Q1") == frozenset({"Q2", "Q3", "Q4"})
        assert network.degree("Q2") == 3

    def test_check_pair(self):
        network = paper_example_network()
        assert network.check_pair("Q1", (1, 0), "Q2", (1, 1))
        assert not network.check_pair("Q1", (1, 0), "Q2", (1, -1))
        # Order-insensitive.
        assert network.check_pair("Q2", (1, 1), "Q1", (1, 0))

    def test_unconstrained_pair_always_ok(self):
        network = ConstraintNetwork()
        network.add_variable("x", [1])
        network.add_variable("y", [2])
        assert network.check_pair("x", 1, "y", 2)

    def test_paper_solution_is_solution(self):
        network = paper_example_network()
        assert network.is_solution(PAPER_SOLUTION)

    def test_partial_assignment_not_solution(self):
        network = paper_example_network()
        partial = dict(PAPER_SOLUTION)
        del partial["Q4"]
        assert not network.is_solution(partial)

    def test_wrong_value_not_solution(self):
        network = paper_example_network()
        wrong = dict(PAPER_SOLUTION, Q4=(0, 1))
        assert not network.is_solution(wrong)

    def test_conflicted_constraints(self):
        network = paper_example_network()
        wrong = dict(PAPER_SOLUTION, Q4=(1, 1))
        violated = network.conflicted_constraints(wrong)
        assert violated  # Q1-Q4, Q2-Q4 and Q3-Q4 all break
        names = {frozenset((c.first, c.second)) for c in violated}
        assert frozenset(("Q3", "Q4")) in names


class TestConstraintObject:
    def test_other(self):
        constraint = BinaryConstraint("a", "b", frozenset({(1, 2)}))
        assert constraint.other("a") == "b"
        assert constraint.other("b") == "a"
        with pytest.raises(ValueError):
            constraint.other("c")

    def test_allows_orientation(self):
        constraint = BinaryConstraint("a", "b", frozenset({(1, 2)}))
        assert constraint.allows("a", 1, 2)
        assert constraint.allows("b", 2, 1)
        assert not constraint.allows("a", 2, 1)

    def test_supported_values(self):
        constraint = BinaryConstraint(
            "a", "b", frozenset({(1, 2), (3, 2), (1, 4)})
        )
        assert constraint.supported_values("a", 2) == frozenset({1, 3})
        assert constraint.supported_values("b", 1) == frozenset({2, 4})


class TestCopyWithDomains:
    def test_prunes_values_and_pairs(self):
        network = paper_example_network()
        pruned = network.copy_with_domains({"Q1": [(1, 0), (0, 1)]})
        assert pruned.domain("Q1") == ((1, 0), (0, 1))
        constraint = pruned.constraint_between("Q1", "Q3")
        assert all(a != (1, 1) for (a, _) in constraint.pairs)

    def test_wipeout_raises(self):
        network = paper_example_network()
        with pytest.raises(ValueError):
            network.copy_with_domains({"Q3": [(1, 2)], "Q4": [(0, 1)]})
