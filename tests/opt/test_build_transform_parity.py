"""Parity of the network build and transform selection with their oracles.

The per-reference ``access_delta`` combo derivation, the named-value
build loop (``layout_of`` scans, list-scan domain dedup, a
pair-orientation map) and the per-call ``access_delta`` transform
selection are kept here as references: the production code in
:mod:`repro.layout.candidates`, :mod:`repro.opt.network_builder` and
:mod:`repro.opt.passes.transforms` must produce the same combos, domains
(in order), constraints (in order, same orientation and pair sets),
weights, notes and chosen transforms on every program and every build
configuration.  The builder makes its bitmask kernel directly, so that
kernel must also equal :func:`~repro.csp.compiled.compile_network` of a
network authored from the oracle's pair sets, and every access delta of
the nest tables must equal its matrix product.
"""

import itertools

import pytest

from repro.bench.programs import BENCHMARK_NAMES, build_benchmark, random_suite
from repro.csp.compiled import compile_network
from repro.csp.network import ConstraintNetwork
from repro.ir.parser import parse_program
from repro.layout.candidates import LayoutCombo, candidate_layouts_for_array
from repro.layout.layout import standard_layouts
from repro.layout.locality import (
    access_delta,
    has_temporal_locality,
    layout_for_deltas,
    matrix_delta,
)
from repro.linalg.vectors import dot
from repro.opt.network_builder import BuildOptions, build_layout_network
from repro.opt.passes.transforms import _select_transforms
from repro.transform.catalog import legal_transforms, nest_transforms

CONFIGS = [
    BuildOptions(
        include_reversals=reversals, skew_factors=skews, combine=combine
    )
    for combine, reversals, skews in itertools.product(
        ("union", "intersect"), (False, True), ((), (1, 2, 3))
    )
]


def _config_id(options):
    return (
        f"{options.combine}-rev{int(options.include_reversals)}"
        f"-skew{''.join(map(str, options.skew_factors)) or 0}"
    )


#: Under the identity, A and B are both free (temporal) while C is
#: constrained; only the interchange relates A and B.  The (A, B)
#: constraint therefore first appears after (A, C) and (B, C).
WILDCARDS = """
array A[64][64]
array B[64][64]
array C[64][64]
nest sweep {
    for i = 0 .. 63 { for j = 0 .. 63 { C[i][j] = A[i][i] + B[i][0] } }
}
"""


@pytest.fixture(scope="module")
def programs():
    table1 = [build_benchmark(name) for name in BENCHMARK_NAMES]
    return (
        [parse_program(WILDCARDS)]
        + table1
        + list(random_suite(200, 1))
        + list(random_suite(100, 2))
    )


def _oracle_combos(program, nest, options):
    """Per legal transform, every array's layout from ``access_delta``."""
    combos = []
    seen = set()
    order = nest.index_order
    for transform in legal_transforms(
        nest, options.include_reversals, options.skew_factors
    ):
        direction = transform.innermost_direction()
        assignments = []
        for array in sorted(nest.arrays()):
            deltas = [
                access_delta(reference, order, direction)
                for reference in nest.references_to(array)
            ]
            layout = layout_for_deltas(deltas, program.array(array).rank)
            if layout is not None:
                assignments.append((array, layout))
        assignments = tuple(assignments)
        if assignments and assignments not in seen:
            seen.add(assignments)
            combos.append(LayoutCombo(nest.name, transform.name, assignments))
    return combos


def _oracle_domain(program, array, options, combos_by_nest):
    """List-scan domain derivation: locality layouts, then standards."""
    domain = []
    for nest in program.nests_referencing(array):
        for combo in combos_by_nest[nest.name]:
            layout = combo.layout_of(array)
            if layout is not None and layout not in domain:
                domain.append(layout)
    standard = standard_layouts(program.array(array).rank)
    if options.include_standard:
        domain.extend(layout for layout in standard if layout not in domain)
    if not domain:
        domain.append(standard[0])
    return domain


def _oracle_build(program, options):
    """The named-value build loop: (domains, constraints, weights, notes).

    ``constraints`` is a list of ``(first, second, pairs)`` in the order
    the network receives them; ``domains`` maps arrays, in variable
    order, to their value lists.
    """
    combos_by_nest = {
        nest.name: _oracle_combos(program, nest, options) for nest in program.nests
    }
    domains = {
        array: _oracle_domain(program, array, options, combos_by_nest)
        for array in program.referenced_arrays()
    }
    pair_sources = {}
    pair_orientation = {}
    weights = {}
    notes = []
    for nest in program.nests:
        combos = combos_by_nest[nest.name]
        if not combos:
            continue
        constrained = sorted(
            {array for combo in combos for array in combo.arrays()}
        )
        nest_pairs = {}
        for combo in combos:
            for i, first in enumerate(constrained):
                layout_first = combo.layout_of(first)
                for second in constrained[i + 1:]:
                    layout_second = combo.layout_of(second)
                    if layout_first is None and layout_second is None:
                        continue
                    key = frozenset((first, second))
                    pair_orientation.setdefault(key, (first, second))
                    oriented = pair_orientation[key]
                    firsts = (
                        [layout_first]
                        if layout_first is not None
                        else list(domains[first])
                    )
                    seconds = (
                        [layout_second]
                        if layout_second is not None
                        else list(domains[second])
                    )
                    bucket = nest_pairs.setdefault(key, set())
                    for value_first in firsts:
                        for value_second in seconds:
                            pair = (
                                (value_first, value_second)
                                if oriented == (first, second)
                                else (value_second, value_first)
                            )
                            bucket.add(pair)
        for key, pairs in nest_pairs.items():
            pair_sources.setdefault(key, []).append(pairs)
            weights[key] = weights.get(key, 0.0) + float(nest.estimated_cost)
    constraints = []
    for key, source_sets in pair_sources.items():
        first, second = pair_orientation[key]
        if options.combine == "intersect" and len(source_sets) > 1:
            merged = set.intersection(*source_sets)
            if not merged:
                merged = set.union(*source_sets)
                notes.append(
                    f"constraint ({first}, {second}): empty intersection "
                    "across nests; fell back to union"
                )
        else:
            merged = set.union(*source_sets)
        constraints.append((first, second, frozenset(merged)))
    return combos_by_nest, domains, constraints, weights, notes


def _oracle_select_transforms(program, layouts, include_reversals, skew_factors):
    """Per-call ``access_delta`` scoring with the identity tie-break."""
    chosen = {}
    for nest in program.nests:
        order = nest.index_order
        best = None
        best_score = -1
        for transform in legal_transforms(nest, include_reversals, skew_factors):
            direction = transform.innermost_direction()
            score = 0
            for reference in nest.body:
                layout = layouts.get(reference.array)
                if layout is None:
                    continue
                delta = access_delta(reference, order, direction)
                if has_temporal_locality(delta):
                    score += 7
                elif all(dot(row, delta) == 0 for row in layout.rows):
                    score += 6
            better = score > best_score or (
                score == best_score
                and best is not None
                and transform.is_identity
                and not best.is_identity
            )
            if better:
                best = transform
                best_score = score
        chosen[nest.name] = best
    return chosen


def _layout_maps(network, salt):
    """Layout maps drawn from the domains: full, every other array, none."""
    full = {
        array: network.domain(array)[(salt + 3 * i) % len(network.domain(array))]
        for i, array in enumerate(network.variables)
    }
    partial = {array: layout for i, (array, layout) in enumerate(full.items()) if i % 2}
    return full, partial, {}


@pytest.mark.parametrize("options", CONFIGS, ids=_config_id)
def test_build_and_transform_selection_match_oracles(programs, options):
    notes_seen = transforms_moved = 0
    for salt, program in enumerate(programs):
        built = build_layout_network(program, options)
        network = built.network
        combos, domains, constraints, weights, notes = _oracle_build(
            program, options
        )

        assert built.combos == combos, program.name

        assert list(network.variables) == list(domains), program.name
        for array, domain in domains.items():
            assert list(network.domain(array)) == domain, (program.name, array)
            # The dynamic planner's per-array domain is the builder's.
            assert candidate_layouts_for_array(
                program,
                array,
                options.include_standard,
                options.include_reversals,
                options.skew_factors,
            ) == domain, (program.name, array)
        assert [
            (c.first, c.second, c.pairs) for c in network.constraints
        ] == constraints, program.name
        assert list(built.weights.items()) == list(weights.items()), program.name
        assert built.notes == notes, program.name
        notes_seen += len(notes)

        for layouts in _layout_maps(network, salt):
            expected = _oracle_select_transforms(
                program, layouts, options.include_reversals, options.skew_factors
            )
            actual = _select_transforms(
                program, layouts, options.include_reversals, options.skew_factors
            )
            assert {name: t.matrix for name, t in actual.items()} == {
                name: t.matrix for name, t in expected.items()
            }, program.name
            assert list(actual) == list(expected)
            transforms_moved += sum(
                not transform.is_identity for transform in actual.values()
            )
    assert transforms_moved > 0  # real restructurings were compared
    if options.combine == "intersect":
        assert notes_seen > 0  # the union fallback was exercised


@pytest.mark.parametrize("options", CONFIGS, ids=_config_id)
def test_builder_kernel_matches_compiled_oracle_network(programs, options):
    for program in programs:
        built = build_layout_network(program, options)
        _, domains, constraints, _, _ = _oracle_build(program, options)
        authored = ConstraintNetwork()
        for array, domain in domains.items():
            authored.add_variable(array, domain)
        for first, second, pairs in constraints:
            authored.add_constraint(first, second, pairs)
        expected = compile_network(authored)

        kernel = built.kernel()
        assert built.kernel() is kernel  # cached at build, not recompiled
        assert built.network.revision == authored.revision, program.name
        assert kernel.names == expected.names, program.name
        assert kernel.domains == expected.domains, program.name
        assert kernel.value_index == expected.value_index, program.name
        assert kernel.full_masks == expected.full_masks, program.name
        # Both orientations of every constrained pair, and no others.
        assert kernel.supports == expected.supports, program.name
        assert kernel.pairs == expected.pairs, program.name
        assert kernel.neighbors == expected.neighbors, program.name
        assert kernel.name_rank == expected.name_rank, program.name


@pytest.mark.parametrize("options", CONFIGS, ids=_config_id)
def test_nest_table_deltas_are_the_matrix_products(programs, options):
    rows = 0
    for program in programs:
        for nest in program.nests:
            table = nest_transforms(
                nest, options.include_reversals, options.skew_factors
            )
            assert list(table.transforms) == legal_transforms(
                nest, options.include_reversals, options.skew_factors
            )
            assert table.transforms[0].is_identity
            order = nest.index_order
            width = len(nest.body)
            assert len(table.deltas) == width * len(table.transforms)
            for row, transform in enumerate(table.transforms):
                direction = transform.innermost_direction()
                for position, reference in enumerate(nest.body):
                    assert table.deltas[row * width + position] == matrix_delta(
                        reference.access_matrix(order), direction
                    ), (program.name, nest.name, transform.name)
                rows += 1
            assert table.original == table.deltas[:width]
    assert rows > 0
