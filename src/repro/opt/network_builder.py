"""Program -> constraint network construction (Section 3).

Variables are the program's referenced arrays; the domain ``M_i`` of an
array is every layout some nest would like it to have (plus the
standard layouts as fallbacks); the constraint ``S_ij`` collects, for
every nest touching both arrays and every candidate restructuring of
that nest, the pair of layouts that restructuring wants -- "each pair
represents the best layout choice under a given loop restructuring".

Two nests can constrain the same array pair.  The paper keeps a single
``S_ij`` per pair, so the pairs must be combined; we support both
interpretations:

* ``combine="union"`` (default, matching the paper's example): a
  selected pair need only be the preference of *some* nest;
* ``combine="intersect"``: the pair must suit *every* nest -- stricter,
  and often unsatisfiable, in which case the builder falls back to the
  union for that pair and records a note.

Each constraint also carries a weight (the total estimated cost of the
contributing nests) for the weighted future-work extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.csp.compiled import CompiledNetwork, compile_network
from repro.csp.network import ConstraintNetwork
from repro.csp.weighted import WeightedNetwork
from repro.ir.program import Program
from repro.layout.candidates import (
    LayoutCombo,
    candidate_layouts_for_array,
    nest_layout_combos,
)
from repro.layout.layout import Layout


@dataclass(frozen=True)
class BuildOptions:
    """Knobs for network construction.

    Attributes:
        include_standard: add the conventional layouts to every domain.
        include_reversals: consider reversal-composed restructurings.
        skew_factors: innermost-loop skew factors to consider.
        combine: "union" or "intersect" (see module docstring).
    """

    include_standard: bool = True
    include_reversals: bool = False
    skew_factors: tuple[int, ...] = ()
    combine: str = "union"

    def __post_init__(self) -> None:
        if self.combine not in ("union", "intersect"):
            raise ValueError(f"unknown combine mode {self.combine!r}")


@dataclass
class LayoutNetwork:
    """The built network plus provenance information.

    Attributes:
        network: the binary constraint network over array layouts
            (the authoring representation).
        weights: per-pair constraint weights (nest cost totals).
        combos: the per-nest layout combinations that generated it.
        notes: human-readable remarks (e.g. intersect fallbacks).
    """

    network: ConstraintNetwork
    weights: dict[frozenset[str], float]
    combos: dict[str, list[LayoutCombo]]
    notes: list[str] = field(default_factory=list)

    def kernel(self) -> CompiledNetwork:
        """The compiled execution form of the current ``network``.

        :func:`~repro.csp.compiled.compile_network` caches the kernel on
        the network keyed by its revision, so this is free after the
        build's eager compile -- also in a worker that unpickled the
        network, since the cached kernel pickles with it -- and a
        network mutated after the build is recompiled, never served
        stale.
        """
        return compile_network(self.network)

    def weighted(self) -> WeightedNetwork:
        """The network with its nest-cost weights attached."""
        return WeightedNetwork(self.network, self.weights)

    @property
    def domain_size(self) -> int:
        """The paper's Table 1 'Domain Size' (sum of domain sizes)."""
        return self.network.total_domain_size


def build_layout_network(
    program: Program, options: BuildOptions | None = None
) -> LayoutNetwork:
    """Construct the layout constraint network of a program.

    Raises:
        ValueError: if the program references no arrays.
    """
    options = options if options is not None else BuildOptions()
    arrays = program.referenced_arrays()
    if not arrays:
        raise ValueError(f"program {program.name} references no arrays")

    network = ConstraintNetwork()
    for array in arrays:
        domain = candidate_layouts_for_array(
            program,
            array,
            include_standard=options.include_standard,
            include_reversals=options.include_reversals,
            skew_factors=options.skew_factors,
        )
        network.add_variable(array, domain)

    combos_by_nest: dict[str, list[LayoutCombo]] = {}
    # Keyed (first, second) with first < second: every nest visits its
    # arrays in sorted order, so this is also each constraint's
    # orientation.
    pair_sources: dict[tuple[str, str], list[set[tuple[Layout, Layout]]]] = {}
    weights: dict[frozenset[str], float] = {}
    notes: list[str] = []

    for nest in program.nests:
        combos = nest_layout_combos(
            program,
            nest,
            include_reversals=options.include_reversals,
            skew_factors=options.skew_factors,
        )
        combos_by_nest[nest.name] = combos
        if not combos:
            continue
        preferences = [dict(combo.assignments) for combo in combos]
        constrained = sorted({array for prefs in preferences for array in prefs})
        # An array a restructuring leaves free (temporal locality) is a
        # *wildcard*: any layout in its domain is acceptable alongside
        # the partner's preference under that restructuring.
        wildcards = {array: network.domain(array) for array in constrained}
        nest_pairs: dict[tuple[str, str], set[tuple[Layout, Layout]]] = {}
        for prefs in preferences:
            for i, first in enumerate(constrained):
                layout_first = prefs.get(first)
                firsts = (
                    (layout_first,)
                    if layout_first is not None
                    else wildcards[first]
                )
                for second in constrained[i + 1:]:
                    layout_second = prefs.get(second)
                    if layout_second is not None:
                        seconds = (layout_second,)
                    elif layout_first is None:
                        # This restructuring leaves both arrays free
                        # (temporal locality): it imposes nothing.
                        continue
                    else:
                        seconds = wildcards[second]
                    bucket = nest_pairs.get((first, second))
                    if bucket is None:
                        bucket = nest_pairs[(first, second)] = set()
                    for value_first in firsts:
                        for value_second in seconds:
                            bucket.add((value_first, value_second))
        cost = float(nest.estimated_cost)
        for key, pairs in nest_pairs.items():
            pair_sources.setdefault(key, []).append(pairs)
            weight_key = frozenset(key)
            weights[weight_key] = weights.get(weight_key, 0.0) + cost

    for (first, second), source_sets in pair_sources.items():
        if options.combine == "intersect" and len(source_sets) > 1:
            merged = set.intersection(*source_sets)
            if not merged:
                merged = set.union(*source_sets)
                notes.append(
                    f"constraint ({first}, {second}): empty intersection "
                    "across nests; fell back to union"
                )
        else:
            merged = set.union(*source_sets)
        network.add_constraint(first, second, merged)

    # Compile eagerly: the kernel is cached on the network, so no
    # consumer (one scheme, a whole portfolio ladder, the fingerprinter)
    # ever pays recompilation.
    compile_network(network)
    return LayoutNetwork(network, weights, combos_by_nest, notes)
