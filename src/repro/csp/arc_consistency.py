"""AC-3 arc consistency preprocessing.

Enforcing arc consistency before search removes domain values with no
support in some neighboring domain.  On layout networks this often
shrinks domains substantially (an array layout wanted by no consistent
restructuring of any nest is dropped up front), and can prove
unsatisfiability without any search at all.

The work queue tracks membership with a pending set: an arc whose
revision is already scheduled is never enqueued twice, so a revision
wave through a high-degree variable costs one revision per arc instead
of one per re-trigger (the classic AC-3 duplicate-queue waste).

Two engines run the revision loop (``engine="auto"`` sizes the choice
per network):

* ``bitset``: a value survives iff its support bitmask intersects the
  source's live domain mask -- one AND per live value;
* ``native``: the same loop, queue discipline included, as one C call
  (:mod:`repro.csp.native`), with identical revision counts and pruned
  domains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable

from repro.csp.compiled import CompiledNetwork, as_compiled, iter_bits
from repro.csp.network import ConstraintNetwork
from repro.csp.vectorized import ENGINE_AUTO, ENGINE_NATIVE, resolve_engine

Value = Hashable


@dataclass(frozen=True)
class ArcConsistencyResult:
    """Outcome of an AC-3 run.

    Attributes:
        consistent: False iff some domain was wiped out (UNSAT proof).
        domains: the reduced domains (meaningful only when consistent).
        revisions: number of arc revisions performed.
        removed: total number of values pruned.
    """

    consistent: bool
    domains: dict[str, tuple[Value, ...]]
    revisions: int
    removed: int


def ac3(
    network: ConstraintNetwork | CompiledNetwork, engine: str = ENGINE_AUTO
) -> ArcConsistencyResult:
    """Run AC-3 on the network and return the reduced domains.

    The input network is not modified; use
    :meth:`ConstraintNetwork.copy_with_domains` to build the pruned
    network when the result is consistent.
    """
    kernel = as_compiled(network)
    resolved = resolve_engine(engine, kernel)
    if resolved == ENGINE_NATIVE:
        return _ac3_native(kernel)
    masks = list(kernel.full_masks)
    queue, pending = _seed_queue(kernel)

    supports = kernel.supports
    revisions = 0
    removed = 0
    while queue:
        arc = queue.popleft()
        pending.discard(arc)
        target, source = arc
        revisions += 1
        support = supports[(target, source)]
        source_mask = masks[source]
        surviving = masks[target]
        pruned_here = False
        for value in iter_bits(masks[target]):
            if not support[value] & source_mask:
                surviving ^= 1 << value
                removed += 1
                pruned_here = True
        masks[target] = surviving
        if not surviving:
            return ArcConsistencyResult(False, {}, revisions, removed)
        if pruned_here:
            _requeue_neighbors(kernel, target, source, queue, pending)
    domains = {
        kernel.names[i]: tuple(kernel.domains[i][value] for value in iter_bits(masks[i]))
        for i in range(kernel.variable_count)
    }
    return ArcConsistencyResult(True, domains, revisions, removed)


def _seed_queue(
    kernel: CompiledNetwork,
) -> tuple[deque[tuple[int, int]], set[tuple[int, int]]]:
    """Both orientations of every pair, each arc queued at most once."""
    queue: deque[tuple[int, int]] = deque()
    pending: set[tuple[int, int]] = set()
    for first, second in kernel.pairs:
        for arc in ((first, second), (second, first)):
            if arc not in pending:
                pending.add(arc)
                queue.append(arc)
    return queue, pending


def _requeue_neighbors(
    kernel: CompiledNetwork,
    target: int,
    source: int,
    queue: deque[tuple[int, int]],
    pending: set[tuple[int, int]],
) -> None:
    """Re-examine arcs into a pruned variable (each at most once)."""
    for neighbor in kernel.neighbors[target]:
        if neighbor == source:
            continue
        arc = (neighbor, target)
        if arc not in pending:
            pending.add(arc)
            queue.append(arc)


def _ac3_native(kernel: CompiledNetwork) -> ArcConsistencyResult:
    """The whole AC-3 run -- queue discipline included -- in C.

    The native kernel replicates the seeding order, the pending-set
    dedup and the requeue wave exactly, so revisions, removed counts
    and the reduced domains match the bitset loop bit for bit.
    """
    from repro.csp.native import ops as native_ops

    consistent, masks, revisions, removed = native_ops.ac3(kernel)
    if not consistent:
        return ArcConsistencyResult(False, {}, revisions, removed)
    domains = {
        kernel.names[i]: tuple(
            kernel.domains[i][value] for value in iter_bits(masks[i])
        )
        for i in range(kernel.variable_count)
    }
    return ArcConsistencyResult(True, domains, revisions, removed)

