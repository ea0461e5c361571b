"""Service-layer throughput: batched portfolio serving, cold vs warm.

Not a paper table -- this measures the PR's serving architecture on the
paper's workload: the five Table 1 programs (plus synthetic filler)
pushed through ``repro.service.run_batch`` with a portfolio ladder and
a shared result cache.  Reported shape: the warm-cache batch must be
orders of magnitude faster than the cold batch (every program served
from the fingerprint-keyed cache).  The batch runs in process; the
warm worker pool is the daemon's, measured by
``bench_daemon_throughput.py``.

Run:  pytest benchmarks/bench_service_throughput.py --benchmark-only -s
"""

from repro.bench import random_suite
from repro.service import PortfolioConfig, ResultCache, run_batch

from benchmarks.conftest import HARNESS_SEED

#: The ladder measured here (the acceptance-criteria set).
PORTFOLIO = ("enhanced", "cbj", "weighted")


def _batch_programs(programs):
    """Five paper benchmarks plus deterministic synthetic filler."""
    return list(programs.values()) + list(random_suite(5, seed=HARNESS_SEED))


def test_cold_batch_throughput(benchmark, programs, build_options):
    """Cold-cache batch: every program runs the full portfolio ladder."""
    batch = _batch_programs(programs)
    config = PortfolioConfig(schemes=PORTFOLIO, seed=HARNESS_SEED)
    report_holder = {}

    def serve():
        report_holder["report"] = run_batch(
            batch,
            config,
            options=build_options,
            cache=ResultCache(),
        )

    benchmark.pedantic(serve, rounds=1, iterations=1)
    report = report_holder["report"]
    assert report.total == len(batch)
    assert report.cache_hits == 0
    benchmark.extra_info.update(
        {
            "throughput_programs_per_s": round(report.throughput, 2),
            "scheme_wins": report.scheme_wins(),
        }
    )
    print("\n[service cold]")
    print(report.format())


def test_warm_batch_is_cache_bound(benchmark, programs, build_options):
    """Warm-cache batch: ~all requests served without touching a solver."""
    batch = _batch_programs(programs)
    config = PortfolioConfig(schemes=PORTFOLIO, seed=HARNESS_SEED)
    cache = ResultCache()
    cold = run_batch(batch, config, options=build_options, cache=cache)
    report_holder = {}

    def serve():
        report_holder["report"] = run_batch(
            batch, config, options=build_options, cache=cache
        )

    benchmark.pedantic(serve, rounds=1, iterations=1)
    warm = report_holder["report"]
    assert warm.cached_fraction == 1.0
    speedup = cold.wall_seconds / max(warm.wall_seconds, 1e-9)
    benchmark.extra_info.update(
        {
            "cold_wall_s": round(cold.wall_seconds, 3),
            "warm_wall_s": round(warm.wall_seconds, 5),
            "speedup": round(speedup, 1),
        }
    )
    print("\n[service warm vs cold]")
    print(f"  cold: {cold.wall_seconds:.3f}s   warm: {warm.wall_seconds:.5f}s")
    print(f"  cache speedup: {speedup:.0f}x")
    print(warm.format())
