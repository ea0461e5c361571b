"""Trace-driven cache hierarchy and CPU timing model.

The paper evaluates execution time with SimpleScalar, modelling "an
embedded processor that can issue and execute two instructions in
parallel" with 8KB 2-way 32B-line split L1 caches, a unified 64KB 4-way
64B-line L2, and 1/6/70-cycle L1/L2/memory latencies (Section 5).  This
package is our from-scratch substitute: a trace-driven, write-back /
write-allocate set-associative cache model plus a dual-issue in-order
timing model.  Relative execution times under different memory layouts
-- all Table 3 needs -- are faithfully reproduced because they are
dominated by data-cache hit/miss behaviour on the reference stream.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Cache": ".cache",
    "ReplacementPolicy": ".cache",
    "MemoryHierarchy": ".hierarchy",
    "HierarchyConfig": ".hierarchy",
    "paper_hierarchy": ".hierarchy",
    "DualIssueCPU": ".cpu",
    "CPUConfig": ".cpu",
    "CacheStats": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
