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

The build works on domain indices, not on named pairs: the domains
come from :func:`~repro.layout.candidates.candidate_domains`, and
every constraint is built straight into per-value support bitmasks --
a restructuring's wanted pair sets one bit, a wildcard side is the
full mask, ``union`` ORs the nests' masks and ``intersect`` ANDs them.
:func:`~repro.csp.compiled.network_from_supports` then makes the
:class:`~repro.csp.network.ConstraintNetwork` from the masks, with its
compiled kernel already cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from repro.csp.compiled import (
    CompiledNetwork,
    compile_network,
    network_from_supports,
)
from repro.csp.network import ConstraintNetwork
from repro.csp.weighted import WeightedNetwork
from repro.ir.program import Program
from repro.layout.candidates import (
    LayoutCombo,
    candidate_domains,
    nest_layout_combos,
)


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
        the network keyed by its revision, and the build seeds that
        cache, so this is free -- also in a worker that unpickled the
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

    combos_by_nest = {
        nest.name: nest_layout_combos(
            program,
            nest,
            include_reversals=options.include_reversals,
            skew_factors=options.skew_factors,
        )
        for nest in program.nests
    }
    domains = candidate_domains(
        program,
        arrays,
        options.include_standard,
        options.include_reversals,
        options.skew_factors,
    )
    value_index = tuple(
        {layout: a for a, layout in enumerate(domains[array])} for array in arrays
    )
    index_of = {array: i for i, array in enumerate(arrays)}
    sizes = [len(index) for index in value_index]

    # Keyed (i, j) with arrays[i] < arrays[j] by name: every nest visits
    # its arrays in sorted order, so this is also each constraint's
    # orientation.  Each source is one nest's per-value support masks
    # over j's domain, one mask per value of i.
    pair_sources: dict[tuple[int, int], list[list[int]]] = {}
    weights: dict[frozenset[str], float] = {}
    notes: list[str] = []

    for nest in program.nests:
        combos = combos_by_nest[nest.name]
        if not combos:
            continue
        constrained = sorted(
            {array for combo in combos for array, _ in combo.assignments}
        )
        position = {array: k for k, array in enumerate(constrained)}
        variables = [index_of[array] for array in constrained]
        # Per restructuring, the preferred value index of every
        # constrained array, or None where it leaves the array free.
        rows = []
        for combo in combos:
            row = [None] * len(constrained)
            for array, layout in combo.assignments:
                row[position[array]] = value_index[index_of[array]][layout]
            rows.append(row)
        # A free array (temporal locality) is a *wildcard*: any layout
        # in its domain is acceptable alongside the partner's preference
        # under that restructuring -- a full mask when the partner side
        # is free, a full column when the first side is.
        nest_masks: dict[tuple[int, int], list[int]] = {}
        columns: dict[tuple[int, int], int] = {}
        for row in rows:
            for k, a in enumerate(row):
                i = variables[k]
                for offset, b in enumerate(row[k + 1:], k + 1):
                    if b is None and a is None:
                        # Both arrays free: this restructuring imposes
                        # nothing on the pair.
                        continue
                    key = (i, variables[offset])
                    masks = nest_masks.get(key)
                    if masks is None:
                        masks = nest_masks[key] = [0] * sizes[i]
                    if a is None:
                        columns[key] = columns.get(key, 0) | (1 << b)
                    elif b is None:
                        masks[a] |= (1 << sizes[key[1]]) - 1
                    else:
                        masks[a] |= 1 << b
        cost = float(nest.estimated_cost)
        for key, masks in nest_masks.items():
            column = columns.get(key)
            if column is not None:
                masks = [mask | column for mask in masks]
            pair_sources.setdefault(key, []).append(masks)
            weight_key = frozenset((arrays[key[0]], arrays[key[1]]))
            weights[weight_key] = weights.get(weight_key, 0.0) + cost

    constraints = []
    for (i, j), sources in pair_sources.items():
        if len(sources) == 1:
            merged = sources[0]
        elif options.combine == "intersect":
            merged = [reduce(and_, masks) for masks in zip(*sources)]
            if not any(merged):
                merged = [reduce(or_, masks) for masks in zip(*sources)]
                notes.append(
                    f"constraint ({arrays[i]}, {arrays[j]}): empty "
                    "intersection across nests; fell back to union"
                )
        else:
            merged = [reduce(or_, masks) for masks in zip(*sources)]
        constraints.append((i, j, merged))

    # The network comes with its kernel already cached, so no consumer
    # (one scheme, a whole portfolio ladder, the fingerprinter) ever
    # pays compilation.
    network = network_from_supports(arrays, value_index, constraints)
    return LayoutNetwork(network, weights, combos_by_nest, notes)
