"""Per-nest candidate layout derivation.

For each legal loop restructuring of a nest, every array referenced by
the nest gets the layout that aligns its storage with the restructured
access pattern (Section 2's worked example; Section 3 turns each such
per-restructuring combination into members of the binary constraints).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import Layout, standard_layouts
from repro.layout.locality import layout_for_deltas, matrix_delta
from repro.transform.catalog import legal_transforms
from repro.transform.unimodular_loop import LoopTransform


@dataclass(frozen=True)
class LayoutCombo:
    """The preferred layouts of a nest's arrays under one restructuring.

    Attributes:
        nest: the nest name.
        transform: name of the loop transform producing this combo.
        assignments: (array, layout) pairs, sorted by array name; arrays
            with no layout preference under the transform are absent.
    """

    nest: str
    transform: str
    assignments: tuple[tuple[str, Layout], ...]

    def layout_of(self, array: str) -> Layout | None:
        """The combo's layout for an array, or None if unconstrained."""
        for name, layout in self.assignments:
            if name == array:
                return layout
        return None

    def arrays(self) -> tuple[str, ...]:
        """Arrays constrained by this combo."""
        return tuple(name for name, _ in self.assignments)


def _combo_for_transform(
    nest: LoopNest,
    accesses: list[tuple[str, int, list[tuple[tuple[int, ...], ...]]]],
    transform: LoopTransform,
) -> LayoutCombo:
    """Preferred layouts of every array in the nest under one transform.

    ``accesses`` lists, per array of the nest in name order, its rank
    and the access matrices of its references.
    """
    direction = transform.innermost_direction()
    assignments: list[tuple[str, Layout]] = []
    for array_name, rank, matrices in accesses:
        deltas = [matrix_delta(matrix, direction) for matrix in matrices]
        layout = layout_for_deltas(deltas, rank)
        if layout is not None:
            assignments.append((array_name, layout))
    return LayoutCombo(nest.name, transform.name, tuple(assignments))


def nest_layout_combos(
    program: Program,
    nest: LoopNest,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> list[LayoutCombo]:
    """All distinct layout combinations of a nest, one per legal transform.

    Combos with identical assignments (different transforms inducing
    the same layouts) are deduplicated, keeping the first transform's
    name; combos constraining no array are dropped.

    Results are memoized on the (immutable) program: deriving the
    combos means enumerating legal unimodular transforms and running
    exact rational linear algebra per transform, and every consumer --
    the per-array domain derivation, the network builder, the heuristic
    optimizer -- asks for the same nests.  The memo rides along when a
    program is pickled to a worker process, so workers skip the
    enumeration too.
    """
    cache = program.__dict__.setdefault("_layout_combo_cache", {})
    key = (nest.name, include_reversals, tuple(skew_factors))
    combos = cache.get(key)
    if combos is None:
        combos = []
        seen: set[tuple[tuple[str, Layout], ...]] = set()
        transforms = legal_transforms(nest, include_reversals, skew_factors)
        order = nest.index_order
        accesses = [
            (
                array_name,
                program.array(array_name).rank,
                [
                    reference.access_matrix(order)
                    for reference in nest.references_to(array_name)
                ],
            )
            for array_name in sorted(nest.arrays())
        ]
        for transform in transforms:
            combo = _combo_for_transform(nest, accesses, transform)
            if not combo.assignments:
                continue
            if combo.assignments in seen:
                continue
            seen.add(combo.assignments)
            combos.append(combo)
        cache[key] = combos
    return list(combos)


def candidate_layouts_for_array(
    program: Program,
    array: str,
    include_standard: bool = True,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> list[Layout]:
    """The domain M_i of an array: every layout some nest wants for it.

    Args:
        program: the program being optimized.
        array: the array name.
        include_standard: also include the conventional layouts
            (row-major always included so the array has a fallback).

    The result is deterministic: locality-derived layouts in nest order
    first, then any standard layouts not already present.
    """
    decl = program.array(array)
    domain: dict[Layout, None] = {}  # insertion-ordered set
    for nest in program.nests_referencing(array):
        for combo in nest_layout_combos(
            program, nest, include_reversals, skew_factors
        ):
            layout = combo.layout_of(array)
            if layout is not None:
                domain[layout] = None
    standard = standard_layouts(decl.rank)
    if include_standard:
        domain.update(dict.fromkeys(standard))
    if not domain:
        domain[standard[0]] = None
    return list(domain)
