"""Engine resolution for the CSP solvers, and batched min-conflicts.

Every solver takes an ``engine=`` knob with two real engines behind it:

* ``bitset`` -- the compiled kernel's (:mod:`repro.csp.compiled`)
  shift-and-mask loops in Python.  It defines the semantics and is the
  fallback on hosts without a C compiler.
* ``native`` -- the C kernel (:mod:`repro.csp.native`), compiled on
  first use.  It reproduces the bitset engine's RNG streams, effort
  counters and returned solutions byte for byte (the hypothesis suite
  in ``tests/csp/test_native_equivalence.py`` enforces this).

``auto`` picks native for networks of at least
:data:`NATIVE_MIN_SUPPORT_CELLS` directed support cells when a kernel
can be loaded, and bitset otherwise.  :func:`batch_min_conflicts`
runs one min-conflicts chain per seed over one shared kernel.

The module keeps its historical name because external tooling imports
:func:`resolve_engine` and :func:`native_available` from here.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Sequence

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats

logger = logging.getLogger(__name__)

#: Engine spec tokens accepted everywhere an ``engine=`` knob exists.
ENGINE_BITSET = "bitset"
ENGINE_NATIVE = "native"
ENGINE_AUTO = "auto"
ENGINES = (ENGINE_AUTO, ENGINE_BITSET, ENGINE_NATIVE)

#: Environment override consulted by ``engine="auto"`` resolution; set
#: to ``bitset`` or ``native`` to force one engine process-wide (the
#: service CLI's ``--engine`` writes this so pool worker processes
#: inherit the choice).
ENGINE_ENV = "REPRO_CSP_ENGINE"


def _env_cells(name: str, default: int) -> int:
    """An integer tuning knob with an environment override.

    ``scripts/calibrate_crossovers.py`` measures the host's actual
    crossover point and prints a ready-to-paste ``export`` line for
    it; unparseable values fall back to the default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", name, raw)
        return default


#: ``auto`` prefers the native C kernel from this many directed
#: support cells up (when a compiled kernel is available); below it,
#: the single ctypes dispatch and the lowering cost more than the
#: Python bitset loops.  Override with
#: ``REPRO_NATIVE_MIN_SUPPORT_CELLS``.
NATIVE_MIN_SUPPORT_CELLS = _env_cells("REPRO_NATIVE_MIN_SUPPORT_CELLS", 64)


def _native_usable() -> bool:
    """True when the native C kernel can run in this process.

    The first call may compile the kernel (cached on disk thereafter);
    the loaded-or-failed outcome is memoized by the build module, so
    subsequent engine resolutions cost one function call.
    """
    try:
        from repro.csp.native import build
    except ImportError:  # pragma: no cover - package always ships
        return False
    return build.usable()


def native_available() -> bool:
    """True when the native engine can run in this process."""
    return _native_usable()


#: Degradation keys already logged by :func:`resolve_engine` -- the
#: fleet-wide env override must not spam one warning per solver call
#: on hosts that cannot honor it (each *occurrence* is still counted
#: through the obs layer).
_DEGRADATIONS_WARNED: set[str] = set()


def _degraded(reason: str, message: str, *args) -> None:
    """Count an engine degradation; log it once per process."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.counter(
        "repro_engine_degradations_total",
        labels={"reason": reason},
        help="Engine env-override degradations by reason.",
    )
    if reason not in _DEGRADATIONS_WARNED:
        _DEGRADATIONS_WARNED.add(reason)
        logger.warning(message, *args)


def support_cells(kernel: CompiledNetwork) -> int:
    """Directed support cells: ``|D_i| * |D_j|`` over directed pairs."""
    return sum(
        len(masks) * kernel.domain_size(j)
        for (_, j), masks in kernel.supports.items()
    )


def resolve_engine(
    spec: str, network: ConstraintNetwork | CompiledNetwork
) -> str:
    """Resolve an engine spec to ``"bitset"`` or ``"native"``.

    ``auto`` consults the :data:`ENGINE_ENV` environment override
    first, then a size rule: networks at or above
    :data:`NATIVE_MIN_SUPPORT_CELLS` directed support cells run on the
    native C kernel when one can be compiled or loaded, and everything
    else runs on bitsets.  An explicit ``"native"`` without a working
    compiler or cached kernel raises.  The *environment* override
    instead degrades native -> bitset, and an unrecognized override
    value (a typo, or a retired engine name) is treated as ``auto``;
    either way with a single logged warning per process, so a
    fleet-wide knob never crashes a host that cannot honor it (every
    degraded call is still counted via the
    ``repro_engine_degradations_total`` obs counter).

    Raises:
        ValueError: for an unknown spec.
        RuntimeError: for an explicit ``"native"`` with no usable
            native kernel.
    """
    if spec not in ENGINES:
        raise ValueError(f"unknown engine {spec!r}; pick one of {ENGINES}")
    if spec == ENGINE_AUTO:
        override = os.environ.get(ENGINE_ENV, "").strip().lower()
        if override == ENGINE_BITSET:
            return ENGINE_BITSET
        if override == ENGINE_NATIVE:
            if _native_usable():
                return ENGINE_NATIVE
            _degraded(
                "native-unusable",
                "%s=native but no native kernel could be built "
                "(no C compiler?); using bitset",
                ENGINE_ENV,
            )
            return ENGINE_BITSET
        if override and override != ENGINE_AUTO:
            _degraded(
                "unknown-override",
                "ignoring unknown %s=%r (pick one of %s); using auto",
                ENGINE_ENV,
                override,
                ENGINES,
            )
        cells = support_cells(as_compiled(network))
        if cells >= NATIVE_MIN_SUPPORT_CELLS and _native_usable():
            return ENGINE_NATIVE
        return ENGINE_BITSET
    if spec == ENGINE_NATIVE and not _native_usable():
        raise RuntimeError(
            "engine='native' requested but the native kernel is unavailable "
            "(no C compiler on PATH/$CC and no cached build)"
        )
    return spec


# -- batched min-conflicts chains ----------------------------------------


def batch_min_conflicts(
    network: ConstraintNetwork | CompiledNetwork,
    seeds: Sequence[int],
    max_steps: int = 10_000,
    max_restarts: int = 10,
    engine: str = ENGINE_AUTO,
    deadline_at: float | None = None,
) -> list[SolverResult]:
    """Run one min-conflicts chain per seed; all chains share one kernel.

    Chain ``k`` is byte-identical -- assignment, RNG stream, effort
    counters -- to ``MinConflictsSolver(seed=seeds[k], max_steps=...,
    max_restarts=...).solve(network)``: a multi-seed restart portfolio
    over one kernel, lowered once.  Each returned result's
    ``time_seconds`` reports the batch wall clock.

    ``deadline_at`` (absolute ``time.monotonic()``) ends still-running
    chains with no assignment once it passes -- the local search is
    incomplete anyway, so a deadline just shortens the walk.

    Raises:
        ValueError: for an empty seed list or non-positive budgets.
    """
    if not seeds:
        raise ValueError("batch_min_conflicts needs at least one seed")
    if max_steps <= 0 or max_restarts <= 0:
        raise ValueError("max_steps and max_restarts must be positive")
    kernel = as_compiled(network)
    if resolve_engine(engine, kernel) == ENGINE_NATIVE:
        return _batch_min_conflicts_native(
            kernel, list(seeds), max_steps, max_restarts, deadline_at
        )
    from repro.csp.minconflicts import MinConflictsSolver


    start = time.perf_counter()
    results = []
    for seed in seeds:
        solver = MinConflictsSolver(
            seed=seed,
            max_steps=max_steps,
            max_restarts=max_restarts,
            engine=ENGINE_BITSET,
        )
        if deadline_at is not None:
            solver.set_deadline(deadline_at - time.monotonic())
        results.append(solver.solve(kernel))
    elapsed = time.perf_counter() - start
    for result in results:
        result.stats.time_seconds = elapsed
    return results


def _batch_min_conflicts_native(
    kernel: CompiledNetwork,
    seeds: list[int],
    max_steps: int,
    max_restarts: int,
    deadline_at: float | None = None,
) -> list[SolverResult]:
    """One native walk per seed; per-chain parity, batch wall clock.

    Each chain is the whole-walk C loop (no per-step interpreter
    round-trips); the chains share the single kernel lowering.
    """
    from repro.csp.native import ops as native_ops

    start = time.perf_counter()
    results = []
    for seed in seeds:
        stats = SolverStats()
        values, nodes, checks, restarts = native_ops.min_conflicts(
            kernel, seed, max_steps, max_restarts, deadline_at
        )
        stats.nodes = nodes
        stats.consistency_checks = checks
        stats.restarts = restarts
        assignment = kernel.to_named(values) if values is not None else None
        results.append(SolverResult(assignment, stats, complete=False))
    elapsed = time.perf_counter() - start
    for result in results:
        result.stats.time_seconds = elapsed
    return results
