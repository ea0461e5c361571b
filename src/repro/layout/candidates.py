"""Per-nest candidate layout derivation.

For each legal loop restructuring of a nest, every array referenced by
the nest gets the layout that aligns its storage with the restructured
access pattern (Section 2's worked example; Section 3 turns each such
per-restructuring combination into members of the binary constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.loops import LoopNest
from repro.ir.program import Program
from repro.layout.layout import Layout, standard_layouts
from repro.layout.locality import layout_for_deltas
from repro.transform.catalog import memo_intern, nest_transforms


@dataclass(frozen=True, slots=True)
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
    combos means running exact rational linear algebra on the access
    deltas of every legal transform (read from the nest's
    :func:`~repro.transform.catalog.nest_transforms` table), and every
    consumer -- the per-array domain derivation, the network builder,
    the heuristic optimizer -- asks for the same nests.  The memo rides
    along when a program is pickled to a worker process, so workers
    skip the derivation too.
    """
    cache = program.__dict__.setdefault("_layout_combo_cache", {})
    key = (nest.name, include_reversals, tuple(skew_factors))
    combos = cache.get(key)
    if combos is None:
        combos = []
        seen: set[tuple[tuple[str, Layout], ...]] = set()
        table = nest_transforms(nest, include_reversals, skew_factors)
        width = len(nest.body)
        # Per array of the nest, in name order: its rank and the body
        # positions of its references (their columns in the table).
        accesses = [
            (
                array_name,
                program.array(array_name).rank,
                [
                    position
                    for position, reference in enumerate(nest.body)
                    if reference.array == array_name
                ],
            )
            for array_name in sorted(nest.arrays())
        ]
        deltas = table.deltas
        for row, transform in enumerate(table.transforms):
            start = row * width
            assignments: list[tuple[str, Layout]] = []
            for array_name, rank, positions in accesses:
                layout = layout_for_deltas(
                    [deltas[start + position] for position in positions], rank
                )
                if layout is not None:
                    assignments.append(memo_intern((array_name, layout)))
            combo_key = tuple(assignments)
            if not combo_key or combo_key in seen:
                continue
            seen.add(combo_key)
            combos.append(LayoutCombo(nest.name, transform.name, combo_key))
        cache[key] = combos
    return list(combos)


def candidate_layouts_for_array(
    program: Program,
    array: str,
    include_standard: bool = True,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> list[Layout]:
    """The domain M_i of one array; see :func:`candidate_domains`."""
    return candidate_domains(
        program, (array,), include_standard, include_reversals, skew_factors
    )[array]


def candidate_domains(
    program: Program,
    arrays: Sequence[str],
    include_standard: bool = True,
    include_reversals: bool = False,
    skew_factors: tuple[int, ...] = (),
) -> dict[str, list[Layout]]:
    """The domain M_i of each array: every layout some nest wants for it.

    Args:
        program: the program being optimized.
        arrays: the array names, each a key of the result.
        include_standard: also include the conventional layouts
            (row-major always included so the array has a fallback).

    One pass over the nests' combos.  Each domain is deterministic:
    locality-derived layouts in nest order first, then any standard
    layouts not already present.
    """
    wanted: dict[str, dict[Layout, None]] = {array: {} for array in arrays}
    for nest in program.nests:
        for combo in nest_layout_combos(
            program, nest, include_reversals, skew_factors
        ):
            for array, layout in combo.assignments:
                domain = wanted.get(array)  # insertion-ordered set
                if domain is not None:
                    domain[layout] = None
    domains = {}
    for array, domain in wanted.items():
        standard = standard_layouts(program.array(array).rank)
        if include_standard:
            domain.update(dict.fromkeys(standard))
        if not domain:
            domain[standard[0]] = None
        domains[array] = list(domain)
    return domains
