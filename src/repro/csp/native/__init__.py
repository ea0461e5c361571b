"""The native C propagation kernel tier (``engine="native"``).

Thin Python orchestration over one self-contained C file
(``kernel.c``) holding the solver inner loops: whole-run AC-3, the
complete forward-checking search, the complete min-conflicts walk
(with a byte-exact MT19937 replication of CPython's ``random.Random``
stream), and the enhanced scheme's variable/value ordering heuristics.
Compiled on first use with the host C compiler into a source-hash
keyed ``.so`` (:mod:`repro.csp.native.build`) and loaded via ctypes --
no new Python dependencies, and no numpy requirement either.

Engine dispatch lives in :func:`repro.csp.vectorized.resolve_engine`;
parity with the bitset engine -- identical solutions, RNG streams and
machine-independent effort counters -- is pinned by the hypothesis
suite in ``tests/csp/test_native_equivalence.py``.
"""

from repro.csp.native.build import (
    ABI_VERSION,
    CACHE_DIR_ENV,
    build_stats,
    cache_dir,
    compiler_available,
    library_path,
    load_library,
    reset_cache,
    usable,
)

__all__ = [
    "ABI_VERSION",
    "CACHE_DIR_ENV",
    "build_stats",
    "cache_dir",
    "compiler_available",
    "library_path",
    "load_library",
    "reset_cache",
    "usable",
]
