"""The second-generation propagation kernel: numpy support matrices.

:class:`~repro.csp.compiled.CompiledNetwork` (PR 2) made a single
consistency check a machine-int shift-and-mask.  The solver inner
loops, however, still *iterate* in Python: AC-3 revises one value at a
time, min-conflicts scans every directed arc per step, the enhanced
orderings walk neighbor lists per candidate.  On the paper's networks
those loops dominate end-to-end solve time.

:class:`VectorizedKernel` packs every ``(variable, neighbor)`` support
relation into dense numpy planes so whole-domain questions become one
array operation:

* **AC-3 revision** -- "which live values of ``t`` still have support
  in ``s``?" is one masked ``any`` over the pair's support matrix;
* **least-constraining value** -- support counts are precomputed rows
  summed with one ``sum`` per ordering decision;
* **most-constraining variable** -- future degrees are one
  adjacency-matrix/vector product;
* **min-conflicts** -- conflict counts live in an incrementally
  maintained vector, and ``batch_min_conflicts`` steps K independent
  restart chains in lockstep through one shared gather.

Everything is *parity-preserving*: the bitset kernel defines the
semantics, and the numpy engine reproduces its RNG streams, effort
counters and returned solutions byte for byte (the hypothesis suite in
``tests/csp/test_vectorized_equivalence.py`` enforces this).  Engine
choice is per solver call -- ``engine="bitset" | "numpy" | "auto"`` --
with ``auto`` picking numpy only when it is importable and the network
is big enough for array dispatch overhead to pay for itself.

The planes are flat numpy arrays, which makes the kernel *shareable*:
:func:`export_shared` publishes them into one
:mod:`multiprocessing.shared_memory` segment keyed by the request
fingerprint, and :func:`attach_shared` maps them back zero-copy, so a
resident daemon's warm workers attach one kernel instead of each
rebuilding (or re-unpickling) their own.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
from typing import Hashable, Mapping, Sequence

from repro.csp.compiled import CompiledNetwork, as_compiled, iter_bits
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats

try:  # numpy is an optional dependency of the csp layer
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None

logger = logging.getLogger(__name__)

Value = Hashable

#: Engine spec tokens accepted everywhere an ``engine=`` knob exists.
ENGINE_BITSET = "bitset"
ENGINE_NUMPY = "numpy"
ENGINE_NATIVE = "native"
ENGINE_AUTO = "auto"
ENGINES = (ENGINE_AUTO, ENGINE_BITSET, ENGINE_NUMPY, ENGINE_NATIVE)

#: Environment override consulted by ``engine="auto"`` resolution; set
#: to ``bitset``, ``numpy`` or ``native`` to force one engine
#: process-wide (the service CLI's ``--engine`` writes this so pool
#: worker processes inherit the choice).
ENGINE_ENV = "REPRO_CSP_ENGINE"


def _env_cells(name: str, default: int) -> int:
    """An integer tuning knob with an environment override.

    ``scripts/calibrate_crossovers.py`` measures the host's actual
    crossover points and prints ready-to-paste ``export`` lines for
    these variables; unparseable values fall back to the default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", name, raw)
        return default


#: ``auto`` picks numpy only when the network carries at least this
#: many directed support cells (sum of ``|D_i| * |D_j|`` over directed
#: constrained pairs): below it, per-call array dispatch overhead
#: exceeds what Python machine-int bitsets already cost.  Override
#: with ``REPRO_AUTO_MIN_SUPPORT_CELLS``.
AUTO_MIN_SUPPORT_CELLS = _env_cells("REPRO_AUTO_MIN_SUPPORT_CELLS", 256)

#: ``auto`` prefers the native C kernel from this many directed
#: support cells up (when a compiled kernel is available).  The native
#: per-call overhead is a single ctypes dispatch -- far below numpy's
#: per-op array dispatch -- so its crossover against the pure-Python
#: bitset loops sits much lower than numpy's.  Override with
#: ``REPRO_NATIVE_MIN_SUPPORT_CELLS``.
NATIVE_MIN_SUPPORT_CELLS = _env_cells("REPRO_NATIVE_MIN_SUPPORT_CELLS", 64)

#: ``auto`` falls back to bitsets when the padded support tensor would
#: exceed this many bytes (pathologically large random networks).
AUTO_MAX_TENSOR_BYTES = 32 * 1024 * 1024

#: Per-arc AC-3 crossover, in directed support cells (``|D_t| * |D_s|``
#: for the arc being revised).  A numpy whole-domain revision costs a
#: flat ~7-8us of array dispatch regardless of size, while the bitset
#: revision grows with the live-value count: measured on the reference
#: box, bitset wins 10.8x at 4 cells, 4.3x at 64, 1.2x at 784, and
#: numpy takes over between 784 and 1024 cells (0.84x at 1024, 0.41x
#: at 4096).  ``ac3(engine="auto")`` therefore revises below-threshold
#: arcs with bitsets even when the network as a whole resolves to the
#: numpy engine; explicit ``engine=`` specs and the :data:`ENGINE_ENV`
#: override keep the single-engine behavior.  (The native engine has
#: no such split: its per-arc revision beats the bitset loop at every
#: measured width, so a native AC-3 run revises every arc natively.)
#: Override with ``REPRO_AC3_ARC_CROSSOVER_CELLS``.
AC3_ARC_CROSSOVER_CELLS = _env_cells("REPRO_AC3_ARC_CROSSOVER_CELLS", 900)


def numpy_available() -> bool:
    """True when the numpy engine can run in this process."""
    return np is not None


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
    """Directed support-matrix cells the vectorized kernel would hold."""
    return sum(
        len(masks) * kernel.domain_size(j)
        for (_, j), masks in kernel.supports.items()
    )


def _tensor_bytes(kernel: CompiledNetwork) -> int:
    """Projected size of the padded support tensor (the largest plane)."""
    count = kernel.variable_count
    if count == 0:
        return 0
    max_degree = max((len(n) for n in kernel.neighbors), default=0)
    max_domain = max((kernel.domain_size(i) for i in range(count)), default=0)
    return count * max_degree * max_domain * max_domain


def resolve_engine(
    spec: str, network: ConstraintNetwork | CompiledNetwork
) -> str:
    """Resolve an engine spec to ``"bitset"``, ``"numpy"`` or ``"native"``.

    ``auto`` consults the :data:`ENGINE_ENV` environment override
    first, then a size heuristic: networks at or above
    :data:`NATIVE_MIN_SUPPORT_CELLS` directed support cells run on the
    native C kernel when one can be compiled or loaded, the numpy
    band between :data:`AUTO_MIN_SUPPORT_CELLS` and
    :data:`AUTO_MAX_TENSOR_BYTES` follows, and everything smaller
    stays on bitsets.  An explicit ``"numpy"`` without numpy installed
    (or ``"native"`` without a working compiler or cached kernel)
    raises; the *environment* override degrades down the ladder --
    native -> numpy -> bitset -- with a single logged warning per
    process instead, so a fleet-wide knob never crashes a host that
    cannot honor it (every degraded call is still counted via the
    ``repro_engine_degradations_total`` obs counter).

    Raises:
        ValueError: for an unknown spec.
        RuntimeError: for an explicit ``"numpy"`` with numpy missing,
            or an explicit ``"native"`` with no usable native kernel.
    """
    if spec not in ENGINES:
        raise ValueError(f"unknown engine {spec!r}; pick one of {ENGINES}")
    if spec == ENGINE_AUTO:
        override = os.environ.get(ENGINE_ENV, "").strip().lower()
        if override == ENGINE_BITSET:
            return ENGINE_BITSET
        if override == ENGINE_NUMPY:
            if np is None:
                _degraded(
                    "numpy-missing",
                    "%s=numpy but numpy is not installed; using bitset",
                    ENGINE_ENV,
                )
                return ENGINE_BITSET
            return ENGINE_NUMPY
        if override == ENGINE_NATIVE:
            if _native_usable():
                return ENGINE_NATIVE
            if np is not None:
                _degraded(
                    "native-unusable",
                    "%s=native but no native kernel could be built "
                    "(no C compiler?); using numpy",
                    ENGINE_ENV,
                )
                return ENGINE_NUMPY
            _degraded(
                "native-unusable",
                "%s=native but no native kernel could be built "
                "(no C compiler?); using bitset",
                ENGINE_ENV,
            )
            return ENGINE_BITSET
        kernel = as_compiled(network)
        cells = support_cells(kernel)
        if cells >= NATIVE_MIN_SUPPORT_CELLS and _native_usable():
            return ENGINE_NATIVE
        if np is None:
            return ENGINE_BITSET
        if cells < AUTO_MIN_SUPPORT_CELLS:
            return ENGINE_BITSET
        if _tensor_bytes(kernel) > AUTO_MAX_TENSOR_BYTES:
            return ENGINE_BITSET
        return ENGINE_NUMPY
    if spec == ENGINE_NUMPY and np is None:
        raise RuntimeError("engine='numpy' requested but numpy is not installed")
    if spec == ENGINE_NATIVE and not _native_usable():
        raise RuntimeError(
            "engine='native' requested but the native kernel is unavailable "
            "(no C compiler on PATH/$CC and no cached build)"
        )
    return spec


def _mask_row(mask: int, width: int):
    """A support bitmask as a (width,) bool array."""
    nbytes = max(1, (width + 7) // 8)
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].astype(bool)


#: Names and order of the shareable planes (the manifest schema).
_PLANE_NAMES = (
    "domain_sizes",
    "name_rank",
    "degrees",
    "neighbors_pad",
    "slot_valid",
    "arc_src",
    "arc_dst",
    "arc_off",
    "sup_flat",
    "support_tensor",
    "lcv_counts",
    "adjacency",
)


class VectorizedKernel:
    """Dense numpy planes of one compiled network's support structure.

    Built by :func:`as_vectorized` (cached on the compiled kernel) or
    attached zero-copy from a shared-memory segment.  All planes are
    read-only by convention; shared attachments enforce it.

    Planes (``V`` variables, ``A`` directed arcs, padded to
    ``max_degree`` / ``max_domain``):

    * ``domain_sizes``, ``name_rank``, ``degrees``: ``(V,)`` int64.
    * ``neighbors_pad``: ``(V, max_degree)`` int64 neighbor indices
      (zero-padded); ``slot_valid`` marks the real slots.
    * ``arc_src`` / ``arc_dst`` / ``arc_off``: ``(A,)`` int64 directed
      arcs in ``(variable, neighbor-order)`` order; ``arc_off`` indexes
      each arc's row-major support block inside ``sup_flat``.
    * ``sup_flat``: all directed support matrices, flattened -- the
      min-conflicts full-scan gather runs on this.
    * ``support_tensor``: ``(V, max_degree, max_domain, max_domain)``
      bool -- ``[v, d, a, b]`` is True iff value ``a`` of ``v`` is
      compatible with value ``b`` of its ``d``-th neighbor.
    * ``lcv_counts``: ``(V, max_degree, max_domain)`` int64 static
      support popcounts (the least-constraining-value sums).
    * ``adjacency``: ``(V, V)`` int64 0/1 (the most-constraining
      future-degree matrix-vector product).
    """

    def __init__(self, planes: Mapping[str, "np.ndarray"], shm=None):
        for name in _PLANE_NAMES:
            setattr(self, name, planes[name])
        self._shm = shm  # keeps a shared segment mapped while in use
        self.variable_count = int(self.domain_sizes.shape[0])
        self.max_degree = int(self.neighbors_pad.shape[1])
        self.max_domain = int(self.support_tensor.shape[2])
        self.arc_count = int(self.arc_src.shape[0])
        #: one full min-conflicts scan touches every directed arc once
        self.scan_checks = self.arc_count
        # Derived (cheap, never shared): python-int views for the
        # scalar-heavy paths, and the (i, j) -> neighbor-slot map.
        self.domain_size_list = self.domain_sizes.tolist()
        self.degree_list = self.degrees.tolist()
        self.neighbor_lists = [
            self.neighbors_pad[v, : self.degree_list[v]].tolist()
            for v in range(self.variable_count)
        ]
        self.slot_of = {
            (v, j): d
            for v in range(self.variable_count)
            for d, j in enumerate(self.neighbor_lists[v])
        }

    @property
    def shared(self) -> bool:
        """True when the planes live in an attached shared segment."""
        return self._shm is not None

    @property
    def nbytes(self) -> int:
        """Total plane payload size."""
        return sum(getattr(self, name).nbytes for name in _PLANE_NAMES)

    def planes(self) -> dict[str, "np.ndarray"]:
        """The shareable planes, by name."""
        return {name: getattr(self, name) for name in _PLANE_NAMES}

    def support_matrix(self, variable: int, slot: int):
        """The (dom_v, dom_n) bool support matrix of one neighbor slot."""
        neighbor = self.neighbor_lists[variable][slot]
        return self.support_tensor[
            variable,
            slot,
            : self.domain_size_list[variable],
            : self.domain_size_list[neighbor],
        ]


def build_vectorized(kernel: CompiledNetwork) -> VectorizedKernel:
    """Construct the numpy planes from a compiled kernel (uncached).

    Raises:
        RuntimeError: when numpy is not installed.
    """
    if np is None:
        raise RuntimeError("numpy is required to build a VectorizedKernel")
    count = kernel.variable_count
    doms = [kernel.domain_size(i) for i in range(count)]
    max_domain = max(doms, default=0)
    degrees = [len(kernel.neighbors[i]) for i in range(count)]
    max_degree = max(degrees, default=0)

    domain_sizes = np.array(doms, dtype=np.int64).reshape(count)
    name_rank = np.array(kernel.name_rank, dtype=np.int64).reshape(count)
    degrees_arr = np.array(degrees, dtype=np.int64).reshape(count)
    neighbors_pad = np.zeros((count, max_degree), dtype=np.int64)
    slot_valid = np.zeros((count, max_degree), dtype=bool)
    support_tensor = np.zeros(
        (count, max_degree, max_domain, max_domain), dtype=bool
    )
    lcv_counts = np.zeros((count, max_degree, max_domain), dtype=np.int64)
    adjacency = np.zeros((count, count), dtype=np.int64)

    arc_src: list[int] = []
    arc_dst: list[int] = []
    arc_off: list[int] = []
    blocks: list = []
    offset = 0
    for i in range(count):
        for d, j in enumerate(kernel.neighbors[i]):
            neighbors_pad[i, d] = j
            slot_valid[i, d] = True
            adjacency[i, j] = 1
            masks = kernel.supports[(i, j)]
            block = np.zeros((doms[i], doms[j]), dtype=bool)
            for a, mask in enumerate(masks):
                block[a] = _mask_row(mask, doms[j])
            support_tensor[i, d, : doms[i], : doms[j]] = block
            lcv_counts[i, d, : doms[i]] = block.sum(axis=1)
            arc_src.append(i)
            arc_dst.append(j)
            arc_off.append(offset)
            blocks.append(block.ravel())
            offset += block.size

    planes = {
        "domain_sizes": domain_sizes,
        "name_rank": name_rank,
        "degrees": degrees_arr,
        "neighbors_pad": neighbors_pad,
        "slot_valid": slot_valid,
        "arc_src": np.array(arc_src, dtype=np.int64),
        "arc_dst": np.array(arc_dst, dtype=np.int64),
        "arc_off": np.array(arc_off, dtype=np.int64),
        "sup_flat": (
            np.concatenate(blocks) if blocks else np.zeros(0, dtype=bool)
        ),
        "support_tensor": support_tensor,
        "lcv_counts": lcv_counts,
        "adjacency": adjacency,
    }
    return VectorizedKernel(planes)


def as_vectorized(
    network: ConstraintNetwork | CompiledNetwork,
) -> VectorizedKernel:
    """The vectorized planes of a network, cached on its compiled kernel.

    The cache attribute is excluded from kernel pickling (see
    :meth:`CompiledNetwork.__getstate__`), so shipping a compiled
    kernel to a worker process never serializes the numpy planes --
    workers rebuild, inherit via ``fork``, or attach the shared
    segment.
    """
    kernel = as_compiled(network)
    cached = getattr(kernel, "_vector_cache", None)
    if cached is not None:
        return cached
    vectorized = build_vectorized(kernel)
    kernel._vector_cache = vectorized
    return vectorized


def install_vectorized(kernel: CompiledNetwork, vectorized: VectorizedKernel) -> None:
    """Install pre-built (e.g. shared-attached) planes as the cache."""
    kernel._vector_cache = vectorized


class MaskedLexArgmin:
    """One-argmin reproduction of a lexicographic ``min`` with a mask.

    The reference heuristics pick ``min(candidates, key=lambda v:
    (dynamic(v), *static_tail(v)))`` where the static tail ends in the
    unique name rank.  Encode the tail as one non-negative int64
    vector (``static``), and a selection becomes ``argmin(dynamic *
    scale + static)`` over the live candidates -- ``scale`` exceeds
    every static value, so the dynamic component is the most
    significant digit, and uniqueness of the rank digit makes the
    argmin's first-minimum rule coincide with the reference ``min``.
    Shared by the engine's most-constraining-variable selection and
    forward checking's MRV so the subtle digit encoding lives once.
    """

    def __init__(self, static):
        self.static = static
        self.scale = int(static.max()) + 1 if static.size else 1
        self._big = np.iinfo(np.int64).max

    def argmin(self, dynamic, live_mask) -> int:
        """Index minimizing ``(dynamic, static)`` among live entries.

        ``dynamic`` must be non-negative and small enough that
        ``dynamic * scale + static`` stays below int64 (true for every
        count-valued heuristic over sane network sizes).
        """
        key = dynamic * self.scale + self.static
        return int(np.where(live_mask, key, self._big).argmin())


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
    max_restarts=...).solve(network)``; the numpy engine merely steps
    every live chain in lockstep so the per-step conflict mathematics
    of the whole batch runs as single array gathers.  This is the
    vectorized form of a multi-seed restart portfolio: one kernel, K
    diversified walks, one pass.  Each returned result's
    ``time_seconds`` reports the batch wall clock (the chains ran
    concurrently, so per-chain times are not separable).

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
    resolved = resolve_engine(engine, kernel)
    if resolved == ENGINE_BITSET:
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
    if resolved == ENGINE_NATIVE:
        return _batch_min_conflicts_native(
            kernel, list(seeds), max_steps, max_restarts, deadline_at
        )
    return _batch_min_conflicts_numpy(
        kernel, list(seeds), max_steps, max_restarts, deadline_at
    )


def _batch_min_conflicts_native(
    kernel: CompiledNetwork,
    seeds: list[int],
    max_steps: int,
    max_restarts: int,
    deadline_at: float | None = None,
) -> list[SolverResult]:
    """One native walk per seed; per-chain parity, batch wall clock.

    Each chain is the whole-walk C loop (no per-step interpreter
    round-trips), so unlike the numpy engine there is nothing to gain
    from lockstepping -- sequential chains already amortize the single
    kernel lowering.
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


class _Chain:
    """Per-seed state of one lockstep min-conflicts chain."""

    __slots__ = ("rng", "stats", "steps_left", "restarts_left", "result", "done")

    def __init__(self, rng, max_steps: int, max_restarts: int):
        self.rng = rng
        self.stats = SolverStats()
        self.steps_left = max_steps
        self.restarts_left = max_restarts
        self.result: SolverResult | None = None
        self.done = False


#: Round-scan accounting of the most recent numpy batch: how many
#: chain rows the conflicted-variable gathers actually touched versus
#: the dense ``rounds * chains`` a full-batch gather would have.  The
#: mixed-length-chain regression test reads this to pin the
#: finished-rows-skipped behavior without timing anything.
_LAST_BATCH_DIAGNOSTICS: dict[str, int] = {}


def last_batch_diagnostics() -> dict[str, int]:
    """Scan accounting of the most recent numpy lockstep batch.

    Keys: ``chains``, ``rounds``, ``rows_scanned`` (rows gathered by
    the conflicted-variable scans; finished chains' rows are skipped,
    so on mixed-length chain sets this is strictly less than
    ``rounds * chains``).  Empty until a numpy batch has run.
    """
    return dict(_LAST_BATCH_DIAGNOSTICS)


def _batch_min_conflicts_numpy(
    kernel: CompiledNetwork,
    seeds: list[int],
    max_steps: int,
    max_restarts: int,
    deadline_at: float | None = None,
) -> list[SolverResult]:
    import random

    vectorized = as_vectorized(kernel)
    count = vectorized.variable_count
    chain_count = len(seeds)
    start = time.perf_counter()
    chains = [_Chain(random.Random(seed), max_steps, max_restarts) for seed in seeds]
    values = np.zeros((chain_count, count), dtype=np.int64)
    # Conflict counts live as one (chains, variables) plane so the
    # per-round conflicted scan is a single gather over the *active*
    # rows -- finished chains' rows are masked out of the gather
    # entirely instead of being rescanned every round.  Per-step
    # writes are a handful of neighbor deltas into one row view.
    counts = np.zeros((chain_count, count), dtype=np.int64)

    arc_src = vectorized.arc_src
    dst_doms = vectorized.domain_sizes[vectorized.arc_dst]
    dom_list = vectorized.domain_size_list
    deg_list = vectorized.degree_list
    neighbor_lists = vectorized.neighbor_lists
    neighbor_index = [
        np.array(neighbors, dtype=np.int64) for neighbors in neighbor_lists
    ]

    def begin_restart(index: int) -> None:
        """(Re)randomize one chain and rebuild its conflict counts."""
        chain = chains[index]
        row = [chain.rng.randrange(dom_list[v]) for v in range(count)]
        values[index] = row
        if vectorized.arc_count:
            flat = (
                vectorized.arc_off
                + values[index, arc_src] * dst_doms
                + values[index, vectorized.arc_dst]
            )
            violated = ~vectorized.sup_flat[flat]
            counts[index] = np.bincount(
                arc_src, weights=violated, minlength=count
            ).astype(np.int64)
        else:
            counts[index] = 0
        chain.steps_left = max_steps

    def finish(index: int, assignment) -> None:
        chain = chains[index]
        chain.result = SolverResult(assignment, chain.stats, complete=False)
        chain.done = True

    def end_of_improve(index: int) -> None:
        """One restart budget exhausted: restart or give up."""
        chain = chains[index]
        chain.stats.restarts += 1
        chain.restarts_left -= 1
        if chain.restarts_left == 0:
            finish(index, None)
        else:
            begin_restart(index)

    active = list(range(chain_count))
    for index in active:
        begin_restart(index)

    rounds = 0
    rows_scanned = 0
    d_index = np.arange(vectorized.max_degree)[None, :, None]
    a_index = np.arange(vectorized.max_domain)[None, None, :]
    while active:
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # Local search is incomplete by contract; expiry just ends
            # the remaining walks without an assignment.
            for index in active:
                finish(index, None)
            break
        rounds += 1
        rows_scanned += len(active)
        live_counts = counts[np.array(active, dtype=np.int64)]
        has_conflict = live_counts.any(axis=1)
        stepping: list[int] = []
        chosen: list[int] = []
        for pos, index in enumerate(active):
            chain = chains[index]
            # One reference `_improve` iteration: full conflict scan
            # (the counter bills it; the counts plane already knows
            # the answer), then solution / step-budget bookkeeping.
            chain.stats.consistency_checks += vectorized.scan_checks
            if not has_conflict[pos]:
                finish(index, kernel.to_named(values[index].tolist()))
                continue
            conflicted = np.flatnonzero(live_counts[pos]).tolist()
            stepping.append(index)
            chosen.append(chain.rng.choice(conflicted))
        if stepping:
            rows = np.array(stepping, dtype=np.int64)
            variables = np.array(chosen, dtype=np.int64)
            neighbor_ids = vectorized.neighbors_pad[variables]
            neighbor_vals = values[rows[:, None], neighbor_ids]
            # allowed[s, d, a]: is value `a` of chain s's chosen
            # variable compatible with its d-th neighbor's value?
            # Padded slots of the support tensor are all-False, so no
            # validity mask is needed: they contribute zero support.
            allowed = vectorized.support_tensor[
                variables[:, None, None],
                d_index,
                a_index,
                neighbor_vals[:, :, None],
            ]
            per_value = vectorized.degrees[variables][:, None] - allowed.sum(
                axis=1
            )
            for s, index in enumerate(stepping):
                chain = chains[index]
                variable = chosen[s]
                degree = deg_list[variable]
                dom = dom_list[variable]
                chain.stats.consistency_checks += degree * dom
                row = per_value[s, :dom].tolist()
                best = min(row)
                candidates = [a for a, c in enumerate(row) if c == best]
                value = chain.rng.choice(candidates)
                old = int(values[index, variable])
                if value != old:
                    delta = (
                        allowed[s, :degree, old].astype(np.int64)
                        - allowed[s, :degree, value].astype(np.int64)
                    )
                    counts[index, neighbor_index[variable]] += delta
                    counts[index, variable] = row[value]
                    values[index, variable] = value
                chain.stats.nodes += 1
                chain.steps_left -= 1
                if chain.steps_left == 0:
                    end_of_improve(index)
        active = [index for index in active if not chains[index].done]

    _LAST_BATCH_DIAGNOSTICS.clear()
    _LAST_BATCH_DIAGNOSTICS.update(
        {"chains": chain_count, "rounds": rounds, "rows_scanned": rows_scanned}
    )
    elapsed = time.perf_counter() - start
    results = []
    for chain in chains:
        chain.stats.time_seconds = elapsed
        results.append(chain.result)
    return results


# -- shared-memory kernel sharing ----------------------------------------

#: Manifest/layout version; attachments reject other versions.
SHARED_FORMAT_VERSION = 1

#: Header: [magic u64][manifest length u64]; magic written *last*, so
#: a reader never maps a half-written segment (it polls briefly via
#: ``attach_shared(..., timeout=)`` instead).
_HEADER = struct.Struct("<QQ")
_MAGIC = 0x31564B52504552  # "REPRKV1"
_ALIGN = 64


def shared_segment_name(key: str) -> str:
    """Deterministic segment name for a kernel key (e.g. fingerprint)."""
    import hashlib

    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    return f"repro-vk-{digest}"


def _shared_memory_module():
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without shm
        return None
    return shared_memory


def _untrack(shm) -> None:
    """Opt a segment out of resource_tracker auto-unlink.

    Lifetime is owned explicitly (the daemon unlinks segments it knows
    about at shutdown); without this, the first worker process to exit
    would unlink segments its siblings still use.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def export_shared(vectorized: VectorizedKernel, key: str) -> str | None:
    """Publish the planes into a fresh shared segment; return its name.

    Returns None when shared memory is unavailable or the segment
    already exists (somebody else published first -- attach instead).
    """
    shared_memory = _shared_memory_module()
    if shared_memory is None or np is None:
        return None
    planes = vectorized.planes()
    manifest_planes = []
    offset = _HEADER.size
    manifest_probe = {
        "version": SHARED_FORMAT_VERSION,
        "key": key,
        "planes": [
            {
                "name": name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": 0,
            }
            for name, array in planes.items()
        ],
    }
    manifest_budget = len(json.dumps(manifest_probe).encode("utf-8")) + 256
    offset += manifest_budget
    for name, array in planes.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        manifest_planes.append(
            {
                "name": name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    manifest = {
        "version": SHARED_FORMAT_VERSION,
        "key": key,
        "planes": manifest_planes,
    }
    payload = json.dumps(manifest).encode("utf-8")
    if len(payload) > manifest_budget:  # pragma: no cover - sizing guard
        return None
    name = shared_segment_name(key)
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    except FileExistsError:
        return None
    except OSError as exc:  # pragma: no cover - e.g. /dev/shm full
        logger.warning("could not create shared kernel segment: %s", exc)
        return None
    try:
        shm.buf[_HEADER.size : _HEADER.size + len(payload)] = payload
        for entry in manifest_planes:
            array = planes[entry["name"]]
            flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
            raw = flat.tobytes()
            shm.buf[entry["offset"] : entry["offset"] + len(raw)] = raw
        # Publish: magic last, so concurrent attachers never see a
        # half-written manifest or plane.
        _HEADER.pack_into(shm.buf, 0, _MAGIC, len(payload))
        _untrack(shm)
        shm.close()
        return name
    except Exception:  # pragma: no cover - defensive cleanup
        try:
            shm.unlink()
        except OSError:
            pass
        shm.close()
        raise


def attach_shared(key: str, timeout: float = 0.25) -> VectorizedKernel | None:
    """Map a published kernel zero-copy; None when absent or not ready.

    Polls briefly (``timeout`` seconds) for the publisher's final
    magic write, so an attacher racing the publisher by microseconds
    still wins instead of falling back to a local rebuild.
    """
    shared_memory = _shared_memory_module()
    if shared_memory is None or np is None:
        return None
    deadline = time.perf_counter() + timeout
    while True:
        try:
            shm = shared_memory.SharedMemory(name=shared_segment_name(key))
            break
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # A publisher has shm_open'd the name but not yet sized it
            # (mmap of a zero-byte segment raises ValueError): not
            # ready yet, poll like an unwritten magic header.
            if time.perf_counter() >= deadline:
                return None
            time.sleep(0.001)
    _untrack(shm)
    while True:
        if len(shm.buf) >= _HEADER.size:
            magic, manifest_len = _HEADER.unpack_from(shm.buf, 0)
            if magic == _MAGIC:
                break
        if time.perf_counter() >= deadline:
            shm.close()
            return None
        time.sleep(0.001)
    try:
        manifest = json.loads(
            bytes(shm.buf[_HEADER.size : _HEADER.size + manifest_len])
        )
    except ValueError:
        shm.close()
        return None
    if (
        manifest.get("version") != SHARED_FORMAT_VERSION
        or manifest.get("key") != key
    ):
        shm.close()
        return None
    planes: dict[str, "np.ndarray"] = {}
    for entry in manifest["planes"]:
        array = np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(entry["dtype"]),
            buffer=shm.buf,
            offset=entry["offset"],
        )
        array.flags.writeable = False
        planes[entry["name"]] = array
    if set(planes) != set(_PLANE_NAMES):
        shm.close()
        return None
    return VectorizedKernel(planes, shm=shm)


def unlink_shared(key: str) -> bool:
    """Remove a published segment (best-effort); True when it existed."""
    shared_memory = _shared_memory_module()
    if shared_memory is None:
        return False
    try:
        shm = shared_memory.SharedMemory(name=shared_segment_name(key))
    except (FileNotFoundError, OSError):
        return False
    try:
        # No _untrack here: unlink() unregisters from the resource
        # tracker itself, balancing the register this open performed.
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - racing unlink
        return False
    finally:
        shm.close()
    return True


def ensure_shared_kernel(kernel: CompiledNetwork, key: str) -> str:
    """Give the kernel vectorized planes, shared across processes.

    Resolution order, returning how the planes were obtained:

    * ``"cached"``: the kernel already carries planes (e.g. inherited
      across a ``fork``) -- nothing to do;
    * ``"attached"``: another process published them; mapped zero-copy;
    * ``"published"``: built here and exported for siblings to attach;
    * ``"local"``: built here, sharing unavailable (no shm, race loss
      with an unreadable segment, numpy-free host).
    """
    if getattr(kernel, "_vector_cache", None) is not None:
        return "cached"
    attached = attach_shared(key, timeout=0.0)
    if attached is not None:
        install_vectorized(kernel, attached)
        return "attached"
    vectorized = as_vectorized(kernel)
    if export_shared(vectorized, key) is not None:
        return "published"
    # Creation raced: someone else is publishing right now; prefer
    # their copy (frees ours) but keep the local build on any failure.
    attached = attach_shared(key)
    if attached is not None:
        install_vectorized(kernel, attached)
        return "attached"
    # The segment exists but its magic never appeared within the
    # attach timeout: its publisher died mid-write (e.g. OOM-killed).
    # Reclaim the name so the fingerprint isn't wedged into local
    # rebuilds (plus a poll stall) for the rest of the deployment.
    if unlink_shared(key):
        from repro.obs import metrics as obs_metrics

        obs_metrics.counter(
            "repro_shared_kernel_events_total",
            labels={"event": "reclaimed"},
            help="Vectorized-kernel acquisition events by kind.",
        )
        if export_shared(vectorized, key) is not None:
            return "published"
    return "local"
