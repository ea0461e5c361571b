"""End-to-end program simulation.

Walks every nest's iteration space (in original or restructured order),
evaluates each compiled reference's linear address function, and feeds
instruction fetches and data accesses to the CPU/hierarchy models.
A nest's ``weight`` multiplies its contribution (it models an enclosing
repetition the IR does not represent explicitly) by simulating the nest
once and scaling cycles -- cache state is warm across repetitions, so
one pass is the steady-state approximation.

Two execution engines produce byte-identical totals:

* ``"periter"`` -- the reference engine: one Python-level CPU call per
  instruction fetch, op bundle and memory access.  Addresses advance
  through :class:`repro.simul.tracegen.IncrementalAddress` delta
  tables (O(1) per innermost step) on untransformed walks.
* ``"batch"`` -- the compiled engine: addresses are emitted
  array-at-a-time by :mod:`repro.simul.batchwalk` and the hierarchy
  consumes them through its run-collapsed batch interface.  After the
  first iteration of a nest its instruction lines are resident and
  untouchable by data fills (the L1 instruction cache only ever sees
  this nest's fetches), so instruction-fetch work is bulk-counted and
  the data stream is replayed exactly.

``engine="auto"`` (the default) picks ``batch`` when numpy is
importable and falls back to ``periter`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Mapping

from repro.cachesim.cpu import CPUConfig, DualIssueCPU
from repro.cachesim.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.ir.program import Program
from repro.ir.validate import validate_program
from repro.layout.layout import Layout
from repro.simul.addressmap import AddressMap
from repro.simul import batchwalk
from repro.simul.tracegen import compile_nest_accesses
from repro.transform.scanning import scan_transformed_box
from repro.transform.unimodular_loop import LoopTransform

#: Synthetic code region: nests get 512 bytes of "machine code" each.
_CODE_BASE = 0x0040_0000
_CODE_STRIDE = 512

#: Known engine names, in fallback preference order.
ENGINES = ("batch", "periter")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one program under one layout assignment.

    Attributes:
        cycles: total weighted CPU cycles.
        instructions: total weighted instruction count.
        memory_accesses: total weighted data accesses.
        cache_report: per-level hit/miss statistics.
        footprint_bytes: placed data footprint including inflation.
        engine: the engine that produced the result.
        sampled: True when iteration-space sampling truncated at least
            one nest (totals are then scaled estimates, not exact).
    """

    cycles: int
    instructions: int
    memory_accesses: int
    cache_report: dict[str, dict[str, float]]
    footprint_bytes: int
    engine: str = "periter"
    sampled: bool = False

    @property
    def l1_miss_rate(self) -> float:
        """L1 data-cache miss rate."""
        report = self.cache_report["L1D"]
        if report["accesses"] == 0:
            return 0.0
        return report["misses"] / report["accesses"]


def resolve_engine(engine: str) -> str:
    """Map an engine request to a concrete engine name.

    Raises:
        ValueError: for an unknown engine name.
    """
    if engine == "auto":
        return "batch" if batchwalk.HAVE_NUMPY else "periter"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    if engine == "batch" and not batchwalk.HAVE_NUMPY:
        raise ValueError("engine 'batch' requires numpy (pick 'auto' to fall back)")
    return engine


def simulate_program(
    program: Program,
    layouts: Mapping[str, Layout],
    transforms: Mapping[str, LoopTransform] | None = None,
    hierarchy_config: HierarchyConfig | None = None,
    cpu_config: CPUConfig | None = None,
    validate: bool = True,
    engine: str = "auto",
    hierarchy: MemoryHierarchy | None = None,
    max_iterations_per_nest: int | None = None,
) -> SimulationResult:
    """Simulate the program under the given layouts (and restructurings).

    Args:
        program: the program to execute.
        layouts: one layout per declared array.
        transforms: optional per-nest loop restructurings (nests absent
            from the mapping run in original order).
        hierarchy_config: cache geometry (defaults to the paper's).
        cpu_config: CPU issue model (defaults to the paper's 2-issue).
        validate: check subscript bounds before simulating -- an
            out-of-bounds program would silently read other arrays'
            address ranges and corrupt the measurement.
        engine: ``"batch"``, ``"periter"`` or ``"auto"`` (see module
            docstring); both engines produce byte-identical totals.
        hierarchy: an existing hierarchy to (reset and) reuse, so a
            caller evaluating many candidates pays construction once.
            Overrides ``hierarchy_config``.
        max_iterations_per_nest: iteration-space sampling cap: a nest
            whose trip count exceeds it simulates only the first cap
            points of its walk and scales its contribution by the
            truncation ratio.  ``None`` (default) simulates exactly.

    Raises:
        ValidationError: when ``validate`` is on and a subscript can
            leave its array.
        ValueError: for an unknown engine, a non-positive sampling cap,
            or ``engine="batch"`` without numpy.

    Returns:
        Aggregate cycle counts and cache statistics.
    """
    if max_iterations_per_nest is not None and max_iterations_per_nest <= 0:
        raise ValueError("max_iterations_per_nest must be positive")
    engine = resolve_engine(engine)
    if validate:
        validate_program(program)
    cpu_config = cpu_config if cpu_config is not None else CPUConfig()
    if hierarchy is not None:
        hierarchy.reset()
    else:
        hierarchy = MemoryHierarchy(hierarchy_config)
    cpu = DualIssueCPU(hierarchy, cpu_config)
    address_map = AddressMap(program, layouts)
    transforms = transforms or {}

    total_cycles = 0
    total_instructions = 0
    total_accesses = 0
    sampled = False
    for position, nest in enumerate(program.nests):
        plan = compile_nest_accesses(
            nest,
            address_map,
            code_base=_CODE_BASE + position * _CODE_STRIDE,
            ops_per_reference=cpu_config.ops_per_reference,
            loop_overhead_ops=cpu_config.loop_overhead_ops,
        )
        walked = nest.trip_count
        if max_iterations_per_nest is not None:
            walked = min(walked, max_iterations_per_nest)
        start_cycles = cpu.cycles
        start_instructions = cpu.instructions
        start_accesses = cpu.memory_accesses
        transform = transforms.get(nest.name)
        if engine == "batch":
            _run_nest_batch(cpu, plan, transform, walked)
        else:
            _run_nest_periter(cpu, plan, transform, walked)
        scale = nest.weight
        if walked < nest.trip_count:
            sampled = True
            scale = nest.weight * nest.trip_count / walked
        total_cycles += round(scale * (cpu.cycles - start_cycles))
        total_instructions += round(
            scale * (cpu.instructions - start_instructions)
        )
        total_accesses += round(scale * (cpu.memory_accesses - start_accesses))

    return SimulationResult(
        cycles=total_cycles,
        instructions=total_instructions,
        memory_accesses=total_accesses,
        cache_report=hierarchy.report(),
        footprint_bytes=address_map.total_footprint_bytes(),
        engine=engine,
        sampled=sampled,
    )


def _run_nest_periter(
    cpu: DualIssueCPU, plan, transform: LoopTransform | None, walked: int
) -> None:
    """Reference engine: one CPU call per fetch/ops/access."""
    nest = plan.nest
    accesses = plan.accesses
    ops = plan.ops_per_iteration
    code_base = plan.code_base
    instruction_count = ops + len(accesses)
    if transform is not None and not transform.is_identity:
        for count, point in enumerate(scan_transformed_box(transform, nest.iteration_box())):
            if count >= walked:
                break
            cpu.fetch_instructions(code_base, instruction_count)
            cpu.execute_ops(ops)
            for access in accesses:
                address = access.const + sum(
                    c * v for c, v in zip(access.coeffs, point)
                )
                cpu.execute_memory(address, access.size, access.is_write)
        return

    # Untransformed walk: an odometer over the box with O(1) address
    # stepping via each access's precomputed delta table.
    box = nest.iteration_box()
    walkers = [access.incremental(box) for access in accesses]
    sizes = [access.size for access in accesses]
    writes = [access.is_write for access in accesses]
    counters = [low for (low, _) in box]
    depth = len(box)
    remaining = walked
    while True:
        cpu.fetch_instructions(code_base, instruction_count)
        cpu.execute_ops(ops)
        for walker, size, is_write in zip(walkers, sizes, writes):
            cpu.execute_memory(walker.address, size, is_write)
        remaining -= 1
        if remaining <= 0:
            return
        axis = depth - 1
        while counters[axis] == box[axis][1]:
            counters[axis] = box[axis][0]
            axis -= 1
        counters[axis] += 1
        for walker in walkers:
            walker.step(axis)


def _run_nest_batch(
    cpu: DualIssueCPU, plan, transform: LoopTransform | None, walked: int
) -> None:
    """Compiled engine: block address generation + run-collapsed caches.

    The first iteration replays through the per-access CPU interface
    (its instruction fetches miss and interleave with data accesses in
    the unified L2); afterwards every fetch of this nest is a
    guaranteed L1I hit, so instruction-side work is bulk-counted and
    only the data stream is simulated -- through the hierarchy's exact
    batch interface.
    """
    import numpy as np

    nest = plan.nest
    accesses = plan.accesses
    ops = plan.ops_per_iteration
    code_base = plan.code_base
    n_refs = len(accesses)
    instruction_count = ops + n_refs
    hierarchy = cpu.hierarchy
    config = hierarchy.config
    l1_line = hierarchy.l1_data.line_size

    sizes = np.array([access.size for access in accesses], dtype=np.int64)
    writes_row = np.array(
        [access.is_write for access in accesses], dtype=bool
    )
    ops_cycles = ceil(ops / cpu.config.issue_width)
    fetch_first = code_base // hierarchy.l1_instruction.line_size
    fetch_last = (
        code_base + 4 * instruction_count - 1
    ) // hierarchy.l1_instruction.line_size
    fetch_lines = fetch_last - fetch_first + 1

    first_iteration = True
    for count, addresses in batchwalk.iter_address_blocks(
        plan, transform, max_iterations=walked
    ):
        start = 0
        if first_iteration:
            first_iteration = False
            cpu.fetch_instructions(code_base, instruction_count)
            cpu.execute_ops(ops)
            row = addresses[0]
            for r, access in enumerate(accesses):
                cpu.execute_memory(int(row[r]), access.size, access.is_write)
            start = 1
            if count == 1:
                continue
        block = addresses[start:]
        iterations = count - start

        # Instruction side, bulk: every fetch hits L1I (filled by the
        # first iteration, and data fills cannot evict L1I lines).
        l1i_stats = hierarchy.l1_instruction.stats
        l1i_stats.accesses += fetch_lines * iterations
        l1i_stats.hits += fetch_lines * iterations
        cpu.instructions += ops * iterations
        cpu.cycles += ops_cycles * iterations

        # Data side: one line per access unless something straddles.
        if bool(((block & (l1_line - 1)) + sizes > l1_line).any()):
            for row in block.tolist():
                for r, access in enumerate(accesses):
                    cpu.execute_memory(row[r], access.size, access.is_write)
            continue
        lines = (block // l1_line).reshape(-1)
        line_writes = np.broadcast_to(
            writes_row, (iterations, n_refs)
        ).reshape(-1)
        total, l1_misses, l2_misses = hierarchy.access_data_lines(
            lines, line_writes
        )
        cpu.instructions += total
        cpu.memory_accesses += total
        cpu.cycles += (
            total * config.l1_latency
            + l1_misses * config.l2_latency
            + l2_misses * config.memory_latency
        )
