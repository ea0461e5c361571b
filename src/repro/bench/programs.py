"""The five Table 1 benchmarks.

``MxM`` (triple matrix multiplication) is written out explicitly; the
other four are synthetic programs generated to match the published data
size and to land near the published constraint-network domain size.
All generation is deterministic; ``benchmarks/bench_table1_properties.py``
prints the measured characteristics beside the paper's, and
``scripts/pipeline_expectations.json`` pins each program's layouts and
Table 3 cycles.

The paper's numbers, for reference::

    Benchmark   Domain Size   Data Size
    Med-Im04        258        825.55KB
    MxM              34      1,173.56KB
    Radar           422        905.28KB
    Shape           656      1,284.06KB
    Track           388        744.80KB
"""

from __future__ import annotations

from repro.bench.generator import (
    SyntheticSpec,
    extents_for_data_size,
    generate_program,
)
from repro.ir.arrays import ArrayDecl
from repro.ir.expr import AffineExpr
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program
from repro.ir.reference import AccessKind, ArrayRef
from repro.opt.network_builder import BuildOptions

#: Paper-reported Table 1 values: name -> (domain size, data KB).
TABLE1_REFERENCE: dict[str, tuple[int, float]] = {
    "Med-Im04": (258, 825.55),
    "MxM": (34, 1173.56),
    "Radar": (422, 905.28),
    "Shape": (656, 1284.06),
    "Track": (388, 744.80),
}

BENCHMARK_NAMES: tuple[str, ...] = tuple(TABLE1_REFERENCE)

#: The matrix side of MxM: five 242x242 float32 matrices are 1,171.56KB,
#: within 0.2% of the paper's 1,173.56KB.
_MXM_EXTENT = 242
#: MxM nests block the i and j loops (so trace simulation stays
#: tractable) but keep the full k extent: the inner k-loop then streams
#: a whole 242-element column of B, touching 242 distinct L1 lines per
#: (i, j) iteration -- just like the full-size multiply, this thrashes
#: the 256-line L1 under the original ijk order.
_MXM_BLOCK = 44


def _build_mxm() -> Program:
    """Triple matrix multiplication: T = A*B, then D = T*C."""
    size = _MXM_EXTENT
    arrays = tuple(
        ArrayDecl(name, (size, size), "float32")
        for name in ("A", "B", "T", "C", "D")
    )
    i, j, k = AffineExpr.var("i"), AffineExpr.var("j"), AffineExpr.var("k")
    bound = _MXM_BLOCK - 1
    loops = (Loop("i", 0, bound), Loop("j", 0, bound), Loop("k", 0, size - 1))
    nest1 = LoopNest(
        "mm1",
        loops,
        (
            ArrayRef("A", (i, k), AccessKind.READ),
            ArrayRef("B", (k, j), AccessKind.READ),
            ArrayRef("T", (i, j), AccessKind.READ),
            ArrayRef("T", (i, j), AccessKind.WRITE),
        ),
    )
    nest2 = LoopNest(
        "mm2",
        loops,
        (
            ArrayRef("T", (i, k), AccessKind.READ),
            ArrayRef("C", (k, j), AccessKind.READ),
            ArrayRef("D", (i, j), AccessKind.READ),
            ArrayRef("D", (i, j), AccessKind.WRITE),
        ),
    )
    return Program("MxM", arrays, (nest1, nest2))


#: Synthetic specs for the other four benchmarks.  Array counts target
#: the published data sizes; nest counts and pattern mixes target the
#: published domain sizes.  Seeds are fixed for determinism and chosen
#: so the resulting network is satisfiable (verified by the test
#: suite).
_SYNTHETIC_SPECS: dict[str, SyntheticSpec] = {
    "Med-Im04": SyntheticSpec(
        name="Med-Im04",
        array_extents=extents_for_data_size(int(825.55 * 1024), 22),
        nest_count=13,
        arrays_per_nest=(2, 4),
        pattern_variety=0.20,
        conflict_nests=3,
        seed=104,
    ),
    "Radar": SyntheticSpec(
        name="Radar",
        array_extents=extents_for_data_size(int(905.28 * 1024), 27),
        nest_count=16,
        arrays_per_nest=(2, 4),
        pattern_variety=0.06,
        conflict_nests=4,
        seed=202,
    ),
    "Shape": SyntheticSpec(
        name="Shape",
        array_extents=extents_for_data_size(int(1284.06 * 1024), 30),
        nest_count=18,
        arrays_per_nest=(2, 3),
        pattern_variety=0.06,
        conflict_nests=4,
        seed=309,
    ),
    "Track": SyntheticSpec(
        name="Track",
        array_extents=extents_for_data_size(int(744.80 * 1024), 24),
        nest_count=15,
        arrays_per_nest=(2, 4),
        pattern_variety=0.12,
        conflict_nests=3,
        seed=404,
    ),
}

_CACHE: dict[str, Program] = {}


def build_benchmark(name: str) -> Program:
    """Build (and cache) one of the five benchmarks by name.

    Raises:
        KeyError: for an unknown benchmark name.
    """
    if name not in TABLE1_REFERENCE:
        raise KeyError(f"unknown benchmark {name!r}; know {BENCHMARK_NAMES}")
    if name not in _CACHE:
        if name == "MxM":
            _CACHE[name] = _build_mxm()
        else:
            _CACHE[name] = generate_program(_SYNTHETIC_SPECS[name])
    return _CACHE[name]


def random_suite(count: int, seed: int = 0) -> tuple[Program, ...]:
    """A deterministic suite of small synthetic programs.

    Used by the service layer's batch CLI and throughput benchmarks to
    generate load beyond the five Table 1 programs: each program is a
    fresh :class:`SyntheticSpec` draw (distinct seeds derived from
    ``seed``), small enough that any systematic scheme solves it in
    well under a second but varied enough that networks differ.

    Raises:
        ValueError: for a non-positive count.
    """
    if count < 1:
        raise ValueError("count must be positive")
    programs = []
    for index in range(count):
        spec = SyntheticSpec(
            name=f"Rand-{seed}-{index + 1:03d}",
            array_extents=extents_for_data_size(
                96 * 1024 + 8 * 1024 * (index % 5), 8 + index % 5
            ),
            nest_count=6 + index % 4,
            arrays_per_nest=(2, 3),
            pattern_variety=0.1 + 0.05 * (index % 3),
            conflict_nests=index % 2,
            seed=seed * 10_000 + 7 * index + 1,
        )
        programs.append(generate_program(spec))
    return tuple(programs)


def benchmark_build_options() -> BuildOptions:
    """The network-construction options used for all Table 1..3 runs.

    Skew factors 1..3 widen the per-nest restructuring catalog the
    way the paper's per-array domain sizes imply (tens of candidate
    layouts per benchmark come from non-permutation restructurings).
    """
    return BuildOptions(
        include_standard=True,
        include_reversals=False,
        skew_factors=(1, 2, 3),
        combine="union",
    )
