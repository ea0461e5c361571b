"""Tests for the service's 'evaluate' request kind."""

import pytest

from repro.cachesim.hierarchy import HierarchyConfig
from repro.ir.parser import parse_program
from repro.layout.layout import column_major, row_major
from repro.service.cache import ResultCache
from repro.service.evaluate import (
    EvaluationRequest,
    EvaluationResult,
    EvaluationService,
    parse_hierarchy_overrides,
    run_evaluation_batch,
)
from repro.service.portfolio import PortfolioConfig

SOURCE = """
array B[64][64]
array OUT[64][64]
nest walk {
    for i = 0 .. 63 { for j = 0 .. 63 { OUT[i][j] = B[j][i] } }
}
"""


def _program(name="walk-prog"):
    from dataclasses import replace

    return replace(parse_program(SOURCE), name=name)


def _config():
    return PortfolioConfig(schemes=("enhanced",))


class TestParseHierarchyOverrides:
    def test_overrides_applied(self):
        config = parse_hierarchy_overrides("l1_size=16384, l2_latency=9")
        assert config.l1_size == 16384
        assert config.l2_latency == 9
        assert config.l2_size == HierarchyConfig().l2_size

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown hierarchy field"):
            parse_hierarchy_overrides("l3_size=1024")

    def test_bad_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_hierarchy_overrides("l1_size=big")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            parse_hierarchy_overrides("l1_size=3000")


class TestEvaluationService:
    def test_optimize_then_evaluate(self):
        service = EvaluationService(config=_config())
        result = service.evaluate(EvaluationRequest(program=_program()))
        assert result.cost_model == "simulated"
        assert result.unit == "cycles"
        assert result.value > 0
        assert result.winner == "enhanced"
        assert result.layouts["B"] == column_major(2)
        assert "cache_report" in result.details

    def test_explicit_layouts_skip_optimization(self):
        service = EvaluationService(config=_config())
        layouts = {"B": row_major(2), "OUT": row_major(2)}
        result = service.evaluate(
            EvaluationRequest(program=_program(), layouts=layouts)
        )
        assert result.winner is None
        assert result.layouts == layouts

    def test_per_request_hierarchy_changes_the_price(self):
        service = EvaluationService(config=_config())
        layouts = {"B": row_major(2), "OUT": column_major(2)}
        paper = service.evaluate(
            EvaluationRequest(program=_program(), layouts=layouts)
        )
        slow_memory = service.evaluate(
            EvaluationRequest(
                program=_program(),
                layouts=layouts,
                hierarchy=HierarchyConfig(memory_latency=300),
            )
        )
        assert slow_memory.value > paper.value

    def test_analytic_and_weighted_models_served(self):
        service = EvaluationService(config=_config())
        for model, unit in (
            ("analytic", "est-misses"),
            ("weighted", "violated-weight"),
        ):
            result = service.evaluate(
                EvaluationRequest(program=_program(), cost_model=model)
            )
            assert result.cost_model == model
            assert result.unit == unit

    def test_results_cached_by_hierarchy(self, tmp_path):
        cache = ResultCache(capacity=64, path=str(tmp_path / "cache.json"))
        service = EvaluationService(config=_config(), cache=cache)
        request = EvaluationRequest(program=_program())
        cold = service.evaluate(request)
        warm = service.evaluate(request)
        assert not cold.from_cache and warm.from_cache
        assert warm.value == cold.value
        # A different machine model must NOT hit the same entry.
        other = service.evaluate(
            EvaluationRequest(
                program=_program(),
                hierarchy=HierarchyConfig(l2_latency=9),
            )
        )
        assert not other.from_cache
        assert other.value != cold.value

    def test_round_trip_serialization(self):
        service = EvaluationService(config=_config())
        result = service.evaluate(EvaluationRequest(program=_program()))
        clone = EvaluationResult.from_dict(result.to_dict())
        assert clone.value == result.value
        assert clone.layouts == result.layouts
        assert clone.winner == result.winner

    def test_batch_front_end(self):
        results = run_evaluation_batch(
            [
                EvaluationRequest(program=_program("p1")),
                EvaluationRequest(
                    program=_program("p2"), cost_model="analytic"
                ),
            ],
            config=_config(),
        )
        assert [r.cost_model for r in results] == ["simulated", "analytic"]

    def test_cold_batch_caches_its_solves(self):
        """An evaluate batch runs each program's optimization once and
        caches it, so a solve batch over the same programs afterwards
        is served wholly from the cache."""
        from repro.bench import BENCHMARK_NAMES, build_benchmark
        from repro.service.batch import run_batch

        programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
        cache = ResultCache()
        run_evaluation_batch(
            [
                EvaluationRequest(program=program, cost_model="analytic")
                for program in programs
            ],
            config=_config(),
            cache=cache,
        )
        report = run_batch(programs, config=_config(), cache=cache)
        assert report.cache_hits == len(programs) == 5

    def test_in_process_batch_looks_each_request_up_once(self):
        """Each fresh request misses once on its evaluate token and
        once on its solve token, and stores both; a warm rerun is one
        hit per request."""
        programs = [
            parse_program(SOURCE.replace("64", str(n)).replace("63", str(n - 1)))
            for n in (32, 48, 80)
        ]
        requests = [
            EvaluationRequest(program=program, cost_model="analytic")
            for program in programs
        ]
        cache = ResultCache()
        cold = run_evaluation_batch(requests, config=_config(), cache=cache)
        assert not any(result.from_cache for result in cold)
        assert (cache.stats.misses, cache.stats.stores) == (6, 6)
        warm = run_evaluation_batch(requests, config=_config(), cache=cache)
        assert all(result.from_cache for result in warm)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert (cache.stats.hits, cache.stats.misses) == (3, 6)

    def test_cache_hit_reports_lookup_latency(self, tmp_path):
        cache = ResultCache(capacity=16, path=str(tmp_path / "cache.json"))
        service = EvaluationService(config=_config(), cache=cache)
        request = EvaluationRequest(program=_program())
        cold = service.evaluate(request)
        warm = service.evaluate(request)
        assert warm.from_cache
        assert warm.seconds < cold.seconds

    def test_bad_sampling_cap_rejected(self):
        with pytest.raises(ValueError, match="max_iterations_per_nest"):
            EvaluationRequest(program=_program(), max_iterations_per_nest=0)

    def test_sampling_cap_rejected_for_non_simulated(self):
        with pytest.raises(ValueError, match="does not simulate"):
            EvaluationRequest(
                program=_program(),
                cost_model="analytic",
                max_iterations_per_nest=100,
            )

    def test_cold_evaluate_reuses_cached_portfolio_result(self, tmp_path):
        """A new machine model misses the evaluation cache but must
        reuse the cached optimization (the expensive half)."""
        cache = ResultCache(capacity=64, path=str(tmp_path / "cache.json"))
        first = run_evaluation_batch(
            [EvaluationRequest(program=_program())],
            config=_config(),
            cache=cache,
        )[0]
        hits_before = cache.stats.hits
        second = run_evaluation_batch(
            [
                EvaluationRequest(
                    program=_program(),
                    hierarchy=HierarchyConfig(l2_latency=9),
                )
            ],
            config=_config(),
            cache=cache,
        )[0]
        assert not second.from_cache  # different machine => fresh score
        assert second.value != first.value
        assert cache.stats.hits > hits_before  # ...but the race was reused

    def test_hierarchy_override_rejected_for_weighted(self):
        with pytest.raises(ValueError, match="does not use a cache hierarchy"):
            EvaluationRequest(
                program=_program(),
                cost_model="weighted",
                hierarchy=HierarchyConfig(),
            )

    def test_hierarchy_line_size_reaches_analytic_model(self):
        service = EvaluationService(config=_config())
        layouts = {"B": column_major(2), "OUT": row_major(2)}
        narrow = service.evaluate(
            EvaluationRequest(
                program=_program(),
                cost_model="analytic",
                layouts=layouts,
                hierarchy=HierarchyConfig(l1_line=16),
            )
        )
        wide = service.evaluate(
            EvaluationRequest(
                program=_program(),
                cost_model="analytic",
                layouts=layouts,
                hierarchy=HierarchyConfig(l1_line=64),
            )
        )
        # Spatial locality is priced per line: narrower lines => more
        # estimated misses.
        assert narrow.value > wide.value


class TestCliEvaluate:
    def test_cli_evaluate_smoke(self, capsys):
        from repro.service.cli import main

        code = main(
            [
                "--programs",
                "MxM",
                "--evaluate",
                "--portfolio",
                "enhanced",
                "--no-cache",
                "--sim-cap",
                "2000",
                "--hierarchy",
                "l2_latency=9",
                "-v",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "evaluate [simulated]" in output
        assert "cycles" in output
        assert "hit rates" in output

    def test_cli_rejects_unknown_cost_model(self):
        from repro.service.cli import main

        with pytest.raises(SystemExit, match="unknown cost model"):
            main(["--programs", "MxM", "--evaluate", "--cost-model", "magic"])

    def test_cli_rejects_bad_hierarchy(self):
        from repro.service.cli import main

        with pytest.raises(SystemExit, match="unknown hierarchy field"):
            main(["--programs", "MxM", "--evaluate", "--hierarchy", "l9=1"])

    def test_cli_rejects_bad_sim_cap_before_any_work(self):
        from repro.service.cli import main

        with pytest.raises(SystemExit, match="--sim-cap"):
            main(["--programs", "MxM", "--evaluate", "--sim-cap", "0"])

    def test_cli_rejects_hierarchy_for_weighted(self):
        from repro.service.cli import main

        with pytest.raises(SystemExit, match="does not use a cache hierarchy"):
            main(
                [
                    "--programs",
                    "MxM",
                    "--evaluate",
                    "--cost-model",
                    "weighted",
                    "--hierarchy",
                    "l1_size=4096",
                ]
            )
