"""Unit tests for program -> constraint network construction."""

import pytest

from repro.ir.parser import parse_program
from repro.layout.layout import column_major, diagonal, row_major
from repro.opt.network_builder import BuildOptions, build_layout_network

FIGURE2 = """
array Q1[512][512]
array Q2[512][512]
nest fig2 {
    for i1 = 0 .. 255 {
        for i2 = 0 .. 255 {
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }
    }
}
"""

TWO_NESTS = """
array A[128][128]
array B[128][128]
array C[128][128]
nest first weight=4 {
    for i = 0 .. 127 {
        for j = 0 .. 127 {
            A[i][j] = B[j][i]
        }
    }
}
nest second {
    for i = 0 .. 127 {
        for j = 0 .. 127 {
            C[i][j] = B[j][i]
        }
    }
}
"""


class TestFigure2Network:
    def test_variables_and_domains(self):
        program = parse_program(FIGURE2)
        result = build_layout_network(program)
        network = result.network
        assert set(network.variables) == {"Q1", "Q2"}
        # Q1's identity-preference (1 -1) must be in its domain.
        assert diagonal() in network.domain("Q1")
        assert column_major(2) in network.domain("Q2")

    def test_constraint_pairs_match_paper(self):
        """Identity wants (Q1, Q2) = ((1 -1), (0 1)); interchange wants
        ((0 1), (1 -1)) -- exactly the Section 2 discussion."""
        program = parse_program(FIGURE2)
        result = build_layout_network(program)
        constraint = result.network.constraint_between("Q1", "Q2")
        assert constraint is not None
        oriented = constraint.pairs
        if constraint.first == "Q2":
            oriented = frozenset((b, a) for (a, b) in oriented)
        assert (diagonal(), column_major(2)) in oriented
        assert (column_major(2), diagonal()) in oriented

    def test_notes_empty_for_sane_input(self):
        result = build_layout_network(parse_program(FIGURE2))
        assert result.notes == []


class TestDomainsAndWeights:
    def test_domain_size_reported(self):
        result = build_layout_network(parse_program(TWO_NESTS))
        assert result.domain_size == result.network.total_domain_size

    def test_standard_layouts_included_by_default(self):
        result = build_layout_network(parse_program(TWO_NESTS))
        for variable in result.network.variables:
            assert row_major(2) in result.network.domain(variable)

    def test_standard_layouts_can_be_excluded(self):
        options = BuildOptions(include_standard=False)
        result = build_layout_network(parse_program(TWO_NESTS), options)
        # Domains shrink to just the locality-derived candidates.
        default = build_layout_network(parse_program(TWO_NESTS))
        assert result.domain_size <= default.domain_size

    def test_weights_reflect_nest_costs(self):
        result = build_layout_network(parse_program(TWO_NESTS))
        program = parse_program(TWO_NESTS)
        weight_ab = result.weights[frozenset(("A", "B"))]
        weight_cb = result.weights[frozenset(("B", "C"))]
        # The first nest has weight 4, so its pair outweighs the second's.
        assert weight_ab == 4 * weight_cb

    def test_weighted_network_roundtrip(self):
        result = build_layout_network(parse_program(TWO_NESTS))
        weighted = result.weighted()
        assert weighted.total_weight == sum(result.weights.values())


class TestCombineModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BuildOptions(combine="vote")

    def test_intersect_mode_falls_back_on_conflict(self):
        """Two nests wanting incompatible pairs for (A, B): intersect
        mode cannot keep both, falls back to union with a note."""
        source = """
        array A[64][64]
        array B[64][64]
        nest wants_rows {
            for i = 0 .. 63 { for j = 0 .. 63 { A[i][j] = B[i][j] } }
        }
        nest wants_cols {
            for i = 0 .. 63 { for j = 0 .. 63 { A[j][i] = B[j][i] } }
        }
        """
        program = parse_program(source)
        result = build_layout_network(
            program, BuildOptions(combine="intersect")
        )
        # Both nests allow both (row, row) and (col, col) via identity
        # and interchange, so the intersection here is NOT empty; no
        # note is expected, and the network is satisfiable.
        assert result.network.constraint_between("A", "B") is not None

    def test_union_is_superset_of_intersect(self):
        program = parse_program(TWO_NESTS)
        union = build_layout_network(program, BuildOptions(combine="union"))
        intersect = build_layout_network(
            program, BuildOptions(combine="intersect")
        )
        for constraint in intersect.network.constraints:
            union_constraint = union.network.constraint_between(
                constraint.first, constraint.second
            )
            oriented = constraint.pairs
            if union_constraint.first != constraint.first:
                oriented = frozenset((b, a) for (a, b) in oriented)
            assert oriented <= union_constraint.pairs


class TestErrors:
    def test_program_without_references_rejected(self):
        source = "array A[4][4]"
        with pytest.raises(ValueError):
            build_layout_network(parse_program(source))


class TestKernel:
    """``LayoutNetwork.kernel()`` always reflects the current network."""

    def test_kernel_follows_network_mutation(self):
        from repro.bench.programs import benchmark_build_options, build_benchmark
        from repro.csp.compiled import compile_network

        built = build_layout_network(
            build_benchmark("MxM"), benchmark_build_options()
        )
        kernel = built.kernel()
        assert built.kernel() is kernel  # compiled once, at build time
        constraint = built.network.constraints[0]
        pair = min(constraint.pairs, key=repr)
        built.network.add_constraint(constraint.first, constraint.second, [pair])

        fresh = built.kernel()
        assert fresh is not kernel
        assert fresh is compile_network(built.network)
        i = fresh.index_of[constraint.first]
        j = fresh.index_of[constraint.second]
        a = fresh.value_index[i][pair[0]]
        b = fresh.value_index[j][pair[1]]
        expected = [0] * len(fresh.domains[i])
        expected[a] = 1 << b
        assert list(fresh.supports[(i, j)]) == expected

    def test_pickled_network_keeps_its_kernel(self):
        import pickle

        built = build_layout_network(parse_program(FIGURE2))
        kernel = built.kernel()
        restored = pickle.loads(pickle.dumps(built))
        _, shipped = restored.network._compiled_cache
        restored_kernel = restored.kernel()
        assert restored_kernel is shipped  # reused, not recompiled
        assert restored_kernel.supports == kernel.supports
        assert restored_kernel.names == kernel.names
