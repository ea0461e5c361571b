"""Unit tests for the compiled kernel (repro.csp.compiled)."""

import pickle

import pytest

from repro.bench import benchmark_build_options, build_benchmark
from repro.csp.arc_consistency import ac3
from repro.csp.compiled import CompiledNetwork, as_compiled, compile_network, iter_bits
from repro.csp.network import ConstraintNetwork
from repro.csp.random_networks import random_network
from repro.opt.network_builder import build_layout_network
from tests.csp.test_network import paper_example_network


class TestCompilation:
    def test_interning_tables(self):
        network = paper_example_network()
        kernel = compile_network(network)
        assert kernel.names == network.variables
        for i, name in enumerate(kernel.names):
            assert kernel.index_of[name] == i
            assert kernel.domains[i] == network.domain(name)
            assert kernel.full_masks[i] == (1 << len(network.domain(name))) - 1
            for a, value in enumerate(kernel.domains[i]):
                assert kernel.value_index[i][value] == a

    def test_neighbors_match_network(self):
        network = paper_example_network()
        kernel = compile_network(network)
        for i, name in enumerate(kernel.names):
            named = {kernel.names[j] for j in kernel.neighbors[i]}
            assert named == set(network.neighbors(name))
            assert list(kernel.neighbors[i]) == sorted(kernel.neighbors[i])

    def test_name_rank_orders_lexicographically(self):
        network = ConstraintNetwork()
        for name in ("bravo", "alpha", "charlie"):
            network.add_variable(name, [0])
        kernel = compile_network(network)
        by_rank = sorted(kernel.names, key=lambda n: kernel.name_rank[kernel.index_of[n]])
        assert by_rank == ["alpha", "bravo", "charlie"]

    def test_allows_matches_legacy_constraint(self):
        network = random_network(6, 4, density=0.8, tightness=0.5, seed=11)
        kernel = compile_network(network)
        for constraint in network.constraints:
            i = kernel.index_of[constraint.first]
            j = kernel.index_of[constraint.second]
            for a, value_i in enumerate(kernel.domains[i]):
                for b, value_j in enumerate(kernel.domains[j]):
                    expected = constraint.allows(constraint.first, value_i, value_j)
                    assert kernel.allows(i, a, j, b) == expected
                    assert kernel.allows(j, b, i, a) == expected

    def test_unconstrained_pair_allows_everything(self):
        network = ConstraintNetwork()
        network.add_variable("x", [0, 1])
        network.add_variable("y", [0, 1])
        kernel = compile_network(network)
        assert kernel.allows(0, 1, 1, 0)
        assert kernel.support_mask(0, 0, 1) == kernel.full_masks[1]

    def test_support_mask_matches_supported_values(self):
        network = random_network(5, 4, density=0.9, tightness=0.4, seed=2)
        kernel = compile_network(network)
        for constraint in network.constraints:
            i = kernel.index_of[constraint.first]
            j = kernel.index_of[constraint.second]
            for b, value_j in enumerate(kernel.domains[j]):
                mask = kernel.supports[(j, i)][b]
                supported = {
                    kernel.domains[i][a] for a in iter_bits(mask)
                }
                assert supported == set(
                    constraint.supported_values(constraint.first, value_j)
                )


class TestCaching:
    def test_recompilation_is_cached(self):
        network = paper_example_network()
        assert compile_network(network) is compile_network(network)

    def test_mutation_invalidates_cache(self):
        network = ConstraintNetwork()
        network.add_variable("x", [0, 1])
        network.add_variable("y", [0, 1])
        before = compile_network(network)
        network.add_constraint("x", "y", [(0, 0), (1, 1)])
        after = compile_network(network)
        assert after is not before
        assert not after.allows(0, 0, 1, 1)
        assert compile_network(network) is after

    def test_as_compiled_passthrough(self):
        kernel = compile_network(paper_example_network())
        assert as_compiled(kernel) is kernel


class TestRoundTrip:
    def test_named_index_round_trip(self):
        network = paper_example_network()
        kernel = compile_network(network)
        named = {name: network.domain(name)[0] for name in network.variables}
        values = kernel.to_indices(named)
        assert kernel.to_named(values) == named

    def test_partial_assignment_round_trip(self):
        network = paper_example_network()
        kernel = compile_network(network)
        name = network.variables[0]
        values = kernel.to_indices({name: network.domain(name)[-1]})
        assert values.count(None) == kernel.variable_count - 1
        assert kernel.to_named(values) == {name: network.domain(name)[-1]}

    def test_is_solution_agrees_with_network(self):
        network = random_network(4, 3, density=0.9, tightness=0.4, seed=5)
        kernel = compile_network(network)
        from itertools import product

        for combo in product(*(range(len(d)) for d in kernel.domains)):
            values = list(combo)
            assert kernel.is_solution(values) == network.is_solution(
                kernel.to_named(values)
            )

    def test_partial_is_not_solution(self):
        kernel = compile_network(paper_example_network())
        assert not kernel.is_solution([None] * kernel.variable_count)


class TestCanonicalForm:
    def test_matches_network_canonical_form(self):
        for seed in range(5):
            network = random_network(6, 4, density=0.6, tightness=0.5, seed=seed)
            kernel = compile_network(network)
            assert kernel.canonical_form() == network.canonical_form()

    def test_matches_on_paper_example(self):
        network = paper_example_network()
        assert compile_network(network).canonical_form() == network.canonical_form()


class TestPickling:
    def test_kernel_survives_pickling(self):
        network = paper_example_network()
        kernel = compile_network(network)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.names == kernel.names
        assert clone.supports == kernel.supports
        assert clone.canonical_form() == kernel.canonical_form()

    def test_pickle_excludes_the_native_lowering(self):
        kernel = compile_network(paper_example_network())
        # A ctypes handle does not pickle; a lambda stands in for it.
        kernel._native_cache = lambda: None
        clone = pickle.loads(pickle.dumps(kernel))
        assert getattr(clone, "_native_cache", None) is None
        assert clone.supports == kernel.supports


class TestIterBits:
    @pytest.mark.parametrize(
        "mask,expected",
        [(0, []), (1, [0]), (0b1010, [1, 3]), (0b1111, [0, 1, 2, 3])],
    )
    def test_ascending_positions(self, mask, expected):
        assert list(iter_bits(mask)) == expected

    def test_wide_sparse_masks(self):
        positions = [0, 1, 62, 63, 64, 65, 126, 200, 1000, 4095]
        mask = sum(1 << p for p in positions)
        assert list(iter_bits(mask)) == positions
        dense = (1 << 300) - 1
        assert list(iter_bits(dense)) == list(range(300))


def _ac3_with_duplicate_queue(kernel):
    """The pre-fix AC-3 loop: arcs re-enqueued while already pending."""
    from collections import deque

    masks = list(kernel.full_masks)
    queue = deque()
    for first, second in kernel.pairs:
        queue.append((first, second))
        queue.append((second, first))
    revisions = 0
    while queue:
        target, source = queue.popleft()
        revisions += 1
        support = kernel.supports[(target, source)]
        source_mask = masks[source]
        surviving = masks[target]
        pruned_here = False
        for value in iter_bits(masks[target]):
            if not support[value] & source_mask:
                surviving ^= 1 << value
                pruned_here = True
        masks[target] = surviving
        if not surviving:
            return revisions, masks, False
        if pruned_here:
            for neighbor in kernel.neighbors[target]:
                if neighbor != source:
                    queue.append((neighbor, target))
    return revisions, masks, True


class TestArcConsistencyQueue:
    def test_pending_set_cuts_revisions_on_table1_network(self):
        program = build_benchmark("Med-Im04")
        kernel = build_layout_network(program, benchmark_build_options()).kernel()
        duplicated_revisions, masks, consistent = _ac3_with_duplicate_queue(kernel)
        result = ac3(kernel, engine="bitset")
        assert result.consistent == consistent
        # Same fixpoint...
        for i in range(kernel.variable_count):
            expected = tuple(kernel.domains[i][value] for value in iter_bits(masks[i]))
            assert result.domains[kernel.names[i]] == expected
        # ...for strictly fewer revisions than the duplicating queue.
        assert result.revisions < duplicated_revisions
