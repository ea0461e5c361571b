"""End-to-end engine invariance on the ``LayoutOptimizer`` request path.

The solver-level suites pin bitset/native parity on random constraint
networks.  This one pins it where answers are served: the same
programs optimized with ``REPRO_CSP_ENGINE=bitset`` and with
``REPRO_CSP_ENGINE=native`` must yield identical layouts, transforms,
``exact`` flags and effort counters.
"""

import pytest

from repro.bench import BENCHMARK_NAMES, random_suite
from repro.bench.programs import benchmark_build_options, build_benchmark
from repro.csp.native import build as native_build
from repro.csp.vectorized import ENGINE_ENV
from repro.opt.optimizer import LayoutOptimizer

pytestmark = pytest.mark.skipif(
    not native_build.usable(),
    reason="native kernel unavailable (no C compiler and no cached build)",
)


def _programs():
    return [build_benchmark(name) for name in BENCHMARK_NAMES] + list(
        random_suite(40, 1)
    )


def _observe(scheme: str, programs) -> list:
    optimizer = LayoutOptimizer(scheme=scheme, options=benchmark_build_options())
    observed = []
    for program in programs:
        outcome = optimizer.optimize(program)
        stats = outcome.stats.as_dict()
        stats.pop("time_seconds")
        observed.append(
            (
                program.name,
                outcome.layouts,
                outcome.transforms,
                outcome.exact,
                stats,
            )
        )
    return observed


@pytest.mark.parametrize("scheme", ["enhanced", "weighted"])
def test_bitset_and_native_serve_identical_outcomes(scheme, monkeypatch):
    programs = _programs()
    runs = {}
    for engine in ("bitset", "native"):
        monkeypatch.setenv(ENGINE_ENV, engine)
        runs[engine] = _observe(scheme, programs)
    assert len(runs["bitset"]) == len(BENCHMARK_NAMES) + 40
    for bitset, native in zip(runs["bitset"], runs["native"]):
        assert bitset == native, bitset[0]
