"""BatchReport arithmetic: the wall-clock-zero regression suite.

A fully-cached batch can complete inside the timer's resolution;
``throughput`` and the latency percentiles must stay finite, positive
numbers instead of reporting 0 programs/s (or dividing by zero).
"""

import math

import pytest

from repro.ir.parser import parse_program
from repro.service.batch import BatchReport, run_batch
from repro.service.cache import ResultCache
from repro.service.portfolio import PortfolioConfig, PortfolioResult

FIGURE2 = """
array Q1[520][260]
array Q2[520][260]
nest fig2 {
    for i1 = 0 .. 259 {
        for i2 = 0 .. 259 {
            Q1[i1+i2][i2] = Q2[i1+i2][i1]
        }
    }
}
"""


def _result(name: str = "p", seconds: float = 0.001) -> PortfolioResult:
    return PortfolioResult(
        program=name,
        fingerprint="fp",
        winner="enhanced",
        layouts={},
        exact=True,
        solve_seconds=seconds,
        outcomes=(),
        from_cache=True,
    )


class TestZeroWallClock:
    def test_throughput_is_finite_and_positive_on_zero_wall(self):
        report = BatchReport(
            results=[_result(f"p{i}") for i in range(4)],
            wall_seconds=0.0,
        )
        assert math.isfinite(report.throughput)
        assert report.throughput > 0.0

    def test_throughput_zero_only_for_empty_batches(self):
        empty = BatchReport(results=[], wall_seconds=0.0)
        assert empty.throughput == 0.0

    def test_format_survives_zero_wall_clock(self):
        report = BatchReport(
            results=[_result()], wall_seconds=0.0
        )
        text = report.format()
        assert "programs/s" in text
        assert "inf" not in text and "nan" not in text

    def test_negative_solve_seconds_clamped_in_latencies(self):
        """A clock hiccup must not produce negative percentiles."""
        report = BatchReport(
            results=[_result(seconds=-0.5), _result(seconds=0.25)],
            wall_seconds=1.0,
        )
        assert report.latencies() == [0.0, 0.25]
        assert report.latency_percentile(0.0) == 0.0
        assert report.latency_percentile(1.0) == 0.25

    def test_percentile_fraction_validated(self):
        report = BatchReport(results=[_result()], wall_seconds=1.0)
        with pytest.raises(ValueError):
            report.latency_percentile(1.5)

    def test_percentile_of_empty_batch_is_zero(self):
        report = BatchReport(results=[], wall_seconds=1.0)
        assert report.latency_percentile(0.5) == 0.0

    def test_percentile_extremes_are_min_and_max(self):
        report = BatchReport(
            results=[
                _result(seconds=s) for s in (0.4, 0.1, 0.3, 0.2)
            ],
            wall_seconds=1.0,
        )
        assert report.latency_percentile(0.0) == 0.1
        assert report.latency_percentile(1.0) == 0.4

    def test_single_item_batch_answers_that_item_for_every_fraction(self):
        report = BatchReport(
            results=[_result(seconds=0.125)], wall_seconds=1.0
        )
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert report.latency_percentile(fraction) == 0.125

    def test_sorted_latencies_cached_and_copy_isolated(self):
        report = BatchReport(
            results=[_result(seconds=s) for s in (0.3, 0.1, 0.2)],
            wall_seconds=1.0,
        )
        assert report.latency_percentile(0.5) == 0.2
        # Sorting happened once; repeated queries reuse the cache.
        assert report._sorted_latencies() is report._sorted_latencies()
        # Callers mutating the public list can't corrupt later queries.
        report.latencies().clear()
        assert report.latency_percentile(0.5) == 0.2
        # Appending a result invalidates the cached sort.
        report.results.append(_result(seconds=0.05))
        assert report.latency_percentile(0.0) == 0.05

    def test_fully_cached_real_batch_reports_positive_throughput(self):
        """End to end: a warm in-memory batch must never report 0/s."""
        program = parse_program(FIGURE2)
        cache = ResultCache()
        config = PortfolioConfig(schemes=("enhanced",))
        run_batch([program], config=config, cache=cache)
        warm = run_batch([program] * 8, config=config, cache=cache)
        assert warm.cached_fraction == 1.0
        assert math.isfinite(warm.throughput)
        assert warm.throughput > 0.0
