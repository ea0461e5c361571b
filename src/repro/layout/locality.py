"""The locality equation of Section 2.

Two successive iterations ``I`` and ``I + e`` (``e`` the innermost
iteration direction) of a nest touch elements of a reference
``d = A I + b`` that differ by the *access delta* ``delta = A e``.  A
hyperplane row ``Y`` preserves spatial locality iff ``Y . delta = 0``;
a full layout does iff every row annihilates ``delta``.  When
``delta = 0`` the reference enjoys *temporal* locality in the innermost
loop -- every layout is equally good.

:func:`preferred_layout` solves the paper's worked example directly:
for ``Q1[i1+i2][i2]`` with innermost direction ``(0 1)`` the delta is
``(1 1)`` and the unique canonical solution of ``y . (1 1) = 0`` is
``(1 -1)`` -- the diagonal layout.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.ir.reference import ArrayRef
from repro.layout.layout import Layout
from repro.linalg.matrices import mat_vec, mat_transpose, rank
from repro.linalg.nullspace import left_nullspace_basis
from repro.linalg.unimodular import complete_to_nonsingular
from repro.linalg.vectors import dot, is_zero_vector


def access_delta(
    reference: ArrayRef,
    index_order: Sequence[str],
    direction: Sequence[int],
) -> tuple[int, ...]:
    """The element-space step ``A e`` for an iteration-space step ``e``.

    Memoized by value: the transform pass, candidate derivation, the
    analytic model and the dynamic planner ask for the same few
    (reference, order, direction) triples thousands of times.

    Raises:
        ValueError: if a subscript uses an index not in
            ``index_order`` (never cached; raised on every call).
    """
    return _access_delta(reference, tuple(index_order), tuple(direction))


@lru_cache(maxsize=16384)
def _access_delta(
    reference: ArrayRef,
    index_order: tuple[str, ...],
    direction: tuple[int, ...],
) -> tuple[int, ...]:
    """Cached core of :func:`access_delta` (hashable arguments only)."""
    return mat_vec(reference.access_matrix(index_order), direction)


def has_spatial_locality(layout: Layout, delta: Sequence[int]) -> bool:
    """True iff every layout row annihilates the access delta."""
    return all(dot(row, delta) == 0 for row in layout.rows)


def has_temporal_locality(delta: Sequence[int]) -> bool:
    """True iff successive iterations touch the same element."""
    return is_zero_vector(delta)


def layout_for_deltas(
    deltas: Sequence[Sequence[int]], dimension: int
) -> Layout | None:
    """Best layout whose rows annihilate as many deltas as possible.

    The hyperplane rows are a basis of the left null space of the
    matrix whose columns are the (nonzero) deltas.  When the null space
    has fewer than ``dimension - 1`` vectors, the layout is completed
    with deterministic extra rows -- the leading rows still carry the
    locality.  Returns ``None`` when every delta is zero (pure temporal
    locality; no layout preference) or when no nonzero hyperplane
    annihilates any delta is required (empty deltas).

    Raises:
        ValueError: when the deltas span the full space, i.e. no
            hyperplane at all can annihilate them -- callers treat this
            as "no layout preference is achievable" by catching it via
            the ``None`` path of :func:`preferred_layout`.
    """
    nonzero = tuple(
        sorted({tuple(delta) for delta in deltas if not is_zero_vector(delta)})
    )
    if not nonzero:
        return None
    return _layout_for_nonzero_deltas(nonzero, dimension)


@lru_cache(maxsize=16384)
def _layout_for_nonzero_deltas(
    nonzero: tuple[tuple[int, ...], ...], dimension: int
) -> Layout | None:
    """Cached core of :func:`layout_for_deltas`.

    The solution depends only on the *set* of nonzero deltas (the left
    null space of their span), so the caller canonicalizes to a sorted
    deduplicated tuple; distinct transforms of distinct nests routinely
    produce the same few delta sets.
    """
    columns = mat_transpose(list(nonzero))  # dimension x n_deltas
    basis = left_nullspace_basis(columns)
    if not basis:
        return None
    rows = list(basis[: dimension - 1])
    if len(rows) < dimension - 1:
        completed = complete_to_nonsingular(rows, dimension)
        for candidate in completed[len(rows):]:
            if len(rows) == dimension - 1:
                break
            trial = rows + [candidate]
            if rank(trial) == len(trial):
                rows.append(candidate)
    return Layout(dimension, rows)


def preferred_layout(
    reference: ArrayRef,
    index_order: Sequence[str],
    direction: Sequence[int],
) -> Layout | None:
    """The layout a single reference wants under an innermost direction.

    Returns ``None`` when the reference has temporal locality (any
    layout works) or when no hyperplane can align with the access
    pattern (no preference expressible).
    """
    delta = access_delta(reference, index_order, direction)
    if has_temporal_locality(delta):
        return None
    return layout_for_deltas([delta], reference.rank)
