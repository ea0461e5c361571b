"""Candidate transform enumeration per nest.

The constraint network needs one "best layout combination" per
candidate loop restructuring (Section 3), so the catalog determines the
size of every constraint.  The default catalog contains all loop
permutations, optionally composed with a reversal of the new innermost
loop, and optionally small skews of the innermost loop -- a superset of
the interchange example the paper walks through for Figure 2.

Each nest memoizes one table per catalog configuration
(:func:`nest_transforms`): its legal transforms and every body
reference's access delta under each, which combo derivation, transform
selection and inflation repair all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from repro.ir.dependence import analyze_nest_dependences
from repro.ir.loops import LoopNest
from repro.layout.locality import matrix_delta
from repro.transform.legality import is_legal
from repro.transform.unimodular_loop import (
    LoopTransform,
    compose,
    permutation_transform,
    reversal_transform,
    skew_transform,
)


#: (depth, include_reversals, skew_factors) -> transform tuple.  The
#: catalog is a pure function of these three scalars and enumerating it
#: means exact rational matrix work per transform, so every nest of the
#: same depth shares one enumeration for the process lifetime (depths
#: are tiny -- the cache cannot grow meaningfully).
_CATALOG_CACHE: dict[tuple, tuple[LoopTransform, ...]] = {}


def candidate_transforms(
    depth: int,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> list[LoopTransform]:
    """All catalog transforms for a nest depth, identity first.

    Args:
        depth: nesting depth.
        include_reversals: also compose each permutation with a
            reversal of the new innermost loop.
        skew_factors: for each factor ``f``, include a skew of the
            innermost loop by ``f`` times the outermost loop (only for
            depth >= 2).
    """
    key = (depth, include_reversals, tuple(skew_factors))
    cached = _CATALOG_CACHE.get(key)
    if cached is not None:
        return list(cached)
    result: list[LoopTransform] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()

    def push(transform: LoopTransform) -> None:
        if transform.matrix not in seen:
            seen.add(transform.matrix)
            result.append(transform)

    for order in permutations(range(depth)):
        push(permutation_transform(order))
    if include_reversals:
        for order in permutations(range(depth)):
            base = permutation_transform(order)
            push(compose(reversal_transform(depth, depth - 1), base))
    if depth >= 2:
        # Skew the outermost loop by the innermost one: this changes the
        # old-space step of the new innermost loop (last column of
        # (S P)^-1), producing genuinely new access deltas.  Skewing the
        # innermost loop instead would leave that step unchanged.
        for factor in skew_factors:
            if not factor:
                continue
            skew = skew_transform(depth, 0, depth - 1, factor)
            for order in permutations(range(depth)):
                push(compose(skew, permutation_transform(order)))
    # Keep identity first for deterministic downstream ordering.
    result.sort(key=lambda t: (not t.is_identity,))
    _CATALOG_CACHE[key] = tuple(result)
    return result


class BoundedIntern:
    """Hands back one shared object per distinct (hashable) value.

    The per-program and per-nest memos hold the same few small tuples
    many times over, so sharing them keeps the memos small.  A service
    keeps meeting new programs, so the intern stops adding at ``limit``
    entries instead of growing with them; a value it no longer takes is
    simply returned unshared.
    """

    __slots__ = ("_limit", "_values")

    def __init__(self, limit: int):
        self._limit = limit
        self._values: dict = {}

    def __call__(self, value):
        shared = self._values.get(value)
        if shared is not None:
            return shared
        if len(self._values) < self._limit:
            self._values[value] = value
        return value


#: Shares equal access deltas across nest tables and equal (array,
#: layout) pairs across combo memos.  On the Table 1 programs plus 200
#: random ones it saves 1.9 MB (deltas) and 1.6 MB (pairs) of the 7.0 MB
#: the memos would otherwise retain.  Random suites stay at 25 distinct
#: deltas and 430 distinct pairs (4,205 programs over nine seeds); the
#: limit leaves room for parsed programs with their own array names and
#: caps the intern at about 0.7 MB.
memo_intern = BoundedIntern(4096)


@dataclass(frozen=True, slots=True)
class NestTransforms:
    """A nest's legal restructurings and its access deltas under each.

    Attributes:
        transforms: the legal catalog transforms, identity first.
        deltas: flat, one row of ``len(nest.body)`` per transform:
            ``deltas[t * len(nest.body) + r]`` is the access delta of
            body reference ``r`` for one step of transform ``t``'s
            innermost loop.
        original: the identity's row (the nest's own loop order).
    """

    transforms: tuple[LoopTransform, ...]
    deltas: tuple[tuple[int, ...], ...]
    original: tuple[tuple[int, ...], ...]


def nest_transforms(
    nest: LoopNest,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> NestTransforms:
    """The catalog filtered by dependence legality, with access deltas.

    Memoized on the (immutable) nest: the dependence analysis, the
    per-transform legality filter and every (restructuring, reference)
    access delta are computed once per nest and catalog configuration,
    however many arrays, schemes or requests ask.  Combo derivation,
    transform selection and inflation repair all read this one table.
    """
    cache = nest.__dict__.setdefault("_legal_transform_cache", {})
    key = (include_reversals, tuple(skew_factors))
    table = cache.get(key)
    if table is None:
        info = analyze_nest_dependences(nest)
        legal = tuple(
            transform
            for transform in candidate_transforms(
                nest.depth, include_reversals, skew_factors
            )
            if is_legal(info, transform)
        )
        order = nest.index_order
        matrices = [reference.access_matrix(order) for reference in nest.body]
        deltas = tuple(
            memo_intern(matrix_delta(matrix, transform.innermost_direction()))
            for transform in legal
            for matrix in matrices
        )
        # Identity is always legal and always first.
        original = deltas[: len(matrices)]
        table = cache[key] = NestTransforms(legal, deltas, original)
    return table


def legal_transforms(
    nest: LoopNest,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> list[LoopTransform]:
    """The catalog filtered by dependence legality for one nest.

    Identity first; read from the memoized :func:`nest_transforms`
    table.
    """
    return list(nest_transforms(nest, include_reversals, skew_factors).transforms)


def original_access_deltas(nest: LoopNest) -> tuple[tuple[int, ...], ...]:
    """Access delta of every body reference under the nest's own order.

    One row per reference of ``nest.body``, for one step of the
    original innermost loop: the identity's row of the nest's
    :func:`nest_transforms` table.  The identity leads every catalog
    configuration, so whichever configuration's table the nest already
    holds serves; only a nest with no table yet gets the default one.
    Inflation repair scores locality in the original loop order on
    every optimize call.
    """
    cache = nest.__dict__.get("_legal_transform_cache")
    if cache:
        return next(iter(cache.values())).original
    return nest_transforms(nest).original
