"""Benchmark programs (the paper's Table 1 workloads).

The original five embedded codes (Med-Im04, MxM, Radar, Shape, Track)
are proprietary; we rebuild each as a synthetic program matched to the
published characteristics -- total data size, constraint-network domain
size, and the access-pattern mix typical of the domain (see
:mod:`repro.bench.programs`).  ``MxM`` is the exception: triple matrix
multiplication is fully specified by its name and is written out
directly.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "SyntheticSpec": ".generator",
    "generate_program": ".generator",
    "PATTERNS": ".generator",
    "BENCHMARK_NAMES": ".programs",
    "TABLE1_REFERENCE": ".programs",
    "build_benchmark": ".programs",
    "benchmark_build_options": ".programs",
    "random_suite": ".programs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
