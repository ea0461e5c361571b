#!/usr/bin/env python3
"""Service demo: portfolio ladder + result cache over a small batch.

Serves the MxM benchmark and a handful of synthetic programs through
the portfolio solver twice: the first batch runs the scheme ladder
(schemes in priority order, the first exact answer takes the
program), the second batch is served entirely from the result cache.  The same flow is available
from the command line as ``python -m repro.service``.

Run:  python examples/service_demo.py
"""

from repro.bench import benchmark_build_options, build_benchmark, random_suite
from repro.service import PortfolioConfig, ResultCache, run_batch


def main() -> None:
    programs = [build_benchmark("MxM"), *random_suite(4, seed=7)]
    config = PortfolioConfig(
        schemes=("enhanced", "cbj", "weighted"), deadline_seconds=120.0
    )
    cache = ResultCache(capacity=64)
    print(
        f"Serving {len(programs)} programs through portfolio "
        f"[{', '.join(config.schemes)}]\n"
    )

    print("=== First batch (cold cache) ===")
    report = run_batch(
        programs,
        config,
        options=benchmark_build_options(),
        cache=cache,
    )
    for result in report.results:
        print(
            f"  {result.program:<12} winner={result.winner:<10} "
            f"{'exact' if result.exact else 'best-effort':<12} "
            f"{result.solve_seconds * 1000:7.1f}ms"
        )
    print(report.format())
    print()

    print("=== Second batch (warm cache) ===")
    repeat = run_batch(
        programs,
        config,
        options=benchmark_build_options(),
        cache=cache,
    )
    print(repeat.format())
    stats = cache.stats
    print(
        f"  cache stats: hits={stats.hits} misses={stats.misses} "
        f"stores={stats.stores}"
    )


if __name__ == "__main__":
    main()
