"""The per-program combo memo and the per-nest transform tables."""

import pickle

from repro.bench.programs import benchmark_build_options, build_benchmark
from repro.layout.candidates import nest_layout_combos
from repro.opt.network_builder import build_layout_network
from repro.transform.catalog import nest_transforms


class TestPickledMemos:
    """Both memos travel with a program pickled to a pool worker."""

    def test_program_loads_back_with_equal_combos_and_hashes(self):
        options = benchmark_build_options()
        program = build_benchmark("Radar")
        built = build_layout_network(program, options)
        memo = program.__dict__["_layout_combo_cache"]
        assert memo

        restored = pickle.loads(pickle.dumps(program))
        shipped = restored.__dict__["_layout_combo_cache"]
        assert shipped == memo
        for key, combos in memo.items():
            assert [hash(combo) for combo in shipped[key]] == [
                hash(combo) for combo in combos
            ]
        for nest in restored.nests:
            combos = nest_layout_combos(
                restored, nest, options.include_reversals, options.skew_factors
            )
            assert combos == built.combos[nest.name]

    def test_nest_tables_ride_along(self):
        options = benchmark_build_options()
        program = build_benchmark("Track")
        build_layout_network(program, options)
        restored = pickle.loads(pickle.dumps(program))
        for nest, twin in zip(program.nests, restored.nests):
            table = nest_transforms(
                nest, options.include_reversals, options.skew_factors
            )
            shipped = twin.__dict__["_legal_transform_cache"][
                (options.include_reversals, options.skew_factors)
            ]
            assert shipped.deltas == table.deltas
            assert shipped.original == table.original
            assert [t.matrix for t in shipped.transforms] == [
                t.matrix for t in table.transforms
            ]
