"""The compiled constraint kernel: integer indices and bitset domains.

:class:`~repro.csp.network.ConstraintNetwork` is the *authoring*
representation -- named variables, arbitrary hashable domain values,
constraints as ``frozenset``s of allowed value pairs.  It is convenient
to build and inspect, but its consistency check (`BinaryConstraint.allows`)
pays Python-object prices: string comparisons plus a frozenset-of-tuples
membership test, on the single hottest operation of every solver.

:class:`CompiledNetwork` is the *execution* representation the solver
family actually runs on.  Compilation interns every variable and domain
value to a dense integer index and stores each constraint as per-value
**support bitmasks** (plain Python ints used as bitsets): for a
constrained pair ``(i, j)`` and a value index ``a`` of variable ``i``,
``supports[(i, j)][a]`` has bit ``b`` set iff ``(a, b)`` is allowed.
That turns the solver inner loops into single machine-int operations:

* ``allows``            -> one shift-and-mask: ``(mask >> b) & 1``;
* ``supported_values``  -> the mask itself;
* forward checking      -> ``domain_mask & support_mask``;
* AC-3 revision         -> ``support_mask & source_domain_mask != 0``;
* support counting      -> ``int.bit_count``.

Compilation is cached on the network (keyed by its mutation revision,
so a network extended after compilation recompiles transparently) and
round-trips back to named assignments at the boundary via
:meth:`CompiledNetwork.to_named` / :meth:`CompiledNetwork.to_indices`.
A builder that already holds the support masks skips compilation:
:func:`network_from_supports` makes the authoring network from them and
seeds the cache at its revision with the equal kernel (the layout
network builder does this).  The kernel is picklable, so a compiled
form can cross a process boundary without recompiling.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.csp.network import BinaryConstraint, ConstraintNetwork

Value = Hashable


#: One CPython machine-word's worth of mask (63 payload bits).
_WORD_MASK = (1 << 63) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask, ascending.

    Lowest-set-bit extraction (``word & -word`` + ``bit_length``), on
    one 63-bit chunk of the mask at a time: every arithmetic op in the
    inner loop runs on a machine-sized int, so the cost per yielded
    value is O(1) regardless of how wide the full mask is (a naive
    ``mask ^= low`` loop pays a big-int pass over *all* words of the
    mask for every bit it yields).
    """
    base = 0
    while mask:
        word = mask & _WORD_MASK
        mask >>= 63
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        base += 63


class CompiledNetwork:
    """An integer-indexed, bitset-domain view of a constraint network.

    Built by :func:`compile_network`; all attributes are read-only by
    convention (the solver layers share one instance per network).

    Attributes:
        names: variable names, in declaration order; the variable with
            name ``names[i]`` has index ``i`` everywhere below.
        index_of: variable name -> index.
        domains: per variable, the domain *value objects* in declaration
            order; value index ``a`` of variable ``i`` is
            ``domains[i][a]``.
        value_index: per variable, value object -> value index.
        full_masks: per variable, the all-values bitmask
            ``(1 << len(domains[i])) - 1``.
        neighbors: per variable, the sorted indices of constrained
            neighbors.
        supports: ``(i, j) -> tuple of masks``: for each value index
            ``a`` of ``i``, a bitmask over ``j``'s domain of the values
            compatible with ``i = a``.  Both orientations are stored.
        pairs: the constrained pairs in constraint insertion order,
            keeping the authoring orientation (used for deterministic
            iteration, e.g. the AC-3 seed queue).
        name_rank: per variable, its rank in lexicographic name order
            (solvers tie-break on names; comparing two small ints is
            cheaper than comparing two strings).
    """

    def __init__(
        self,
        names: tuple[str, ...],
        domains: tuple[tuple[Value, ...], ...],
        neighbors: tuple[tuple[int, ...], ...],
        supports: dict[tuple[int, int], tuple[int, ...]],
        pairs: tuple[tuple[int, int], ...],
        value_index: tuple[dict[Value, int], ...],
    ):
        self.names = names
        self.domains = domains
        self.neighbors = neighbors
        self.supports = supports
        self.pairs = pairs
        self.index_of = {name: i for i, name in enumerate(names)}
        self.value_index = value_index
        self.full_masks = tuple((1 << len(domain)) - 1 for domain in domains)
        order = sorted(range(len(names)), key=lambda i: names[i])
        rank = [0] * len(names)
        for position, i in enumerate(order):
            rank[i] = position
        self.name_rank = tuple(rank)

    # -- sizes -----------------------------------------------------------

    @property
    def variable_count(self) -> int:
        return len(self.names)

    def domain_size(self, variable: int) -> int:
        return len(self.domains[variable])

    # -- the kernel operations -------------------------------------------

    def support_mask(self, variable: int, value: int, neighbor: int) -> int:
        """Bitmask over ``neighbor``'s domain compatible with the value.

        An unconstrained pair supports everything (full mask).
        """
        masks = self.supports.get((variable, neighbor))
        if masks is None:
            return self.full_masks[neighbor]
        return masks[value]

    def allows(
        self, variable: int, value: int, neighbor: int, neighbor_value: int
    ) -> bool:
        """One shift-and-mask consistency check (True if unconstrained)."""
        masks = self.supports.get((variable, neighbor))
        if masks is None:
            return True
        return bool((masks[value] >> neighbor_value) & 1)

    # -- boundary round-trip ---------------------------------------------

    def to_named(self, values: Sequence[int | None]) -> dict[str, Value]:
        """Index assignment -> named assignment (None entries skipped)."""
        return {
            self.names[i]: self.domains[i][a]
            for i, a in enumerate(values)
            if a is not None
        }

    def to_indices(self, assignment: Mapping[str, Value]) -> list[int | None]:
        """Named assignment -> per-variable value indices (None = unset).

        Raises:
            KeyError: for unknown variables or out-of-domain values.
        """
        values: list[int | None] = [None] * len(self.names)
        for name, value in assignment.items():
            i = self.index_of[name]
            values[i] = self.value_index[i][value]
        return values

    def is_solution(self, values: Sequence[int | None]) -> bool:
        """True iff the index assignment is total and consistent."""
        if any(a is None for a in values):
            return False
        for (i, j), masks in self.supports.items():
            if i < j and not (masks[values[i]] >> values[j]) & 1:
                return False
        return True

    # -- interning-table reuse -------------------------------------------

    def canonical_form(self, value_token=str) -> tuple:
        """Identical to :meth:`ConstraintNetwork.canonical_form`.

        Produced from the interning tables instead of re-scanning
        frozensets of value pairs; the service fingerprints are built on
        this, so the output must stay byte-for-byte compatible with the
        authoring network's method.
        """
        variables = tuple(
            sorted(
                (name, tuple(sorted(value_token(value) for value in domain)))
                for name, domain in zip(self.names, self.domains)
            )
        )
        constraints = []
        for i, j in self.pairs:
            low, high = (i, j) if self.names[i] < self.names[j] else (j, i)
            masks = self.supports[(low, high)]
            low_domain, high_domain = self.domains[low], self.domains[high]
            constraints.append(
                (
                    self.names[low],
                    self.names[high],
                    tuple(
                        sorted(
                            (value_token(low_domain[a]), value_token(high_domain[b]))
                            for a in range(len(low_domain))
                            for b in iter_bits(masks[a])
                        )
                    ),
                )
            )
        return (variables, tuple(sorted(constraints)))

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the native lowering cache from pickles.

        The native lowering (:mod:`repro.csp.native.ops`) holds a
        ``ctypes`` library handle, which does not pickle at all;
        workers rebuild it from the shared on-disk ``.so`` cache
        instead.
        """
        state = dict(self.__dict__)
        state.pop("_native_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __str__(self) -> str:
        return (
            f"CompiledNetwork({len(self.names)} vars, "
            f"{len(self.pairs)} constraints)"
        )


def compile_network(network: ConstraintNetwork) -> CompiledNetwork:
    """Compile (with caching) a network to its execution form.

    The compiled kernel is cached on the network instance, keyed by the
    network's mutation revision: repeated calls are free, and a network
    mutated after compilation (more variables or constraints) is
    recompiled on the next call.
    """
    cached = getattr(network, "_compiled_cache", None)
    if cached is not None and cached[0] == network.revision:
        return cached[1]

    names = network.variables
    index_of = {name: i for i, name in enumerate(names)}
    domains = tuple(network.domain(name) for name in names)
    value_index = tuple(
        {value: a for a, value in enumerate(domain)} for domain in domains
    )
    neighbor_sets: list[set[int]] = [set() for _ in names]
    supports: dict[tuple[int, int], tuple[int, ...]] = {}
    pairs: list[tuple[int, int]] = []
    for constraint in network.constraints:
        i = index_of[constraint.first]
        j = index_of[constraint.second]
        forward = [0] * len(domains[i])
        backward = [0] * len(domains[j])
        index_i, index_j = value_index[i], value_index[j]
        for value_i, value_j in constraint.pairs:
            a = index_i[value_i]
            b = index_j[value_j]
            forward[a] |= 1 << b
            backward[b] |= 1 << a
        supports[(i, j)] = tuple(forward)
        supports[(j, i)] = tuple(backward)
        pairs.append((i, j))
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)

    kernel = CompiledNetwork(
        names=names,
        domains=domains,
        neighbors=tuple(tuple(sorted(s)) for s in neighbor_sets),
        supports=supports,
        pairs=tuple(pairs),
        value_index=value_index,
    )
    network._compiled_cache = (network.revision, kernel)
    return kernel


def network_from_supports(
    names: Sequence[str],
    value_index: Sequence[dict[Value, int]],
    constraints: Sequence[tuple[int, int, Sequence[int]]],
) -> ConstraintNetwork:
    """A network built straight from per-value support masks, compiled.

    ``value_index[i]`` maps each domain value of variable ``names[i]``
    to its index, in domain order.  ``constraints`` lists ``(i, j,
    forward)`` in insertion order: ``forward[a]`` is the bitmask over
    ``j``'s domain of the values compatible with value ``a`` of ``i``
    (the kernel's ``supports[(i, j)]``).  The network comes from
    :meth:`~ConstraintNetwork.from_checked`, each pair frozenset
    materialized from the masks, so it equals one built by
    :meth:`~ConstraintNetwork.add_variable` and
    :meth:`~ConstraintNetwork.add_constraint` in the same order; its
    kernel is already cached at the network's revision, equal to what
    :func:`compile_network` would make.  The per-pair domain checks and
    the re-indexing are skipped, so the caller vouches for the input:
    non-empty domains, distinct endpoints, one constraint per pair,
    masks inside the partner's domain.
    """
    domains = tuple(tuple(index) for index in value_index)
    authored: list[BinaryConstraint] = []
    neighbor_sets: list[set[int]] = [set() for _ in names]
    supports: dict[tuple[int, int], tuple[int, ...]] = {}
    pairs: list[tuple[int, int]] = []
    for i, j, forward in constraints:
        first, second = names[i], names[j]
        domain_i, domain_j = domains[i], domains[j]
        backward = [0] * len(domain_j)
        allowed = []
        for a, mask in enumerate(forward):
            value = domain_i[a]
            bit = 1 << a
            # Lowest-set-bit loop inline rather than iter_bits: a mask
            # here is one domain wide, a few dozen bits, where a
            # generator per mask costs more than its bits.
            while mask:
                low = mask & -mask
                mask ^= low
                b = low.bit_length() - 1
                allowed.append((value, domain_j[b]))
                backward[b] |= bit
        authored.append(BinaryConstraint(first, second, frozenset(allowed)))
        supports[(i, j)] = tuple(forward)
        supports[(j, i)] = tuple(backward)
        pairs.append((i, j))
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    network = ConstraintNetwork.from_checked(dict(zip(names, domains)), authored)
    kernel = CompiledNetwork(
        names=tuple(names),
        domains=domains,
        neighbors=tuple(tuple(sorted(s)) for s in neighbor_sets),
        supports=supports,
        pairs=tuple(pairs),
        value_index=tuple(value_index),
    )
    network._compiled_cache = (network.revision, kernel)
    return network


def as_compiled(network: ConstraintNetwork | CompiledNetwork) -> CompiledNetwork:
    """Accept either representation; compile (cached) when needed."""
    if isinstance(network, CompiledNetwork):
        return network
    return compile_network(network)


def enumerate_solutions(
    network: ConstraintNetwork | CompiledNetwork,
    limit: int,
    max_nodes: int = 200_000,
) -> list[dict[str, Value]]:
    """Up to ``limit`` distinct solutions, deterministically ordered.

    A forward-checking depth-first search over the compiled kernel:
    variables in static max-degree order, values in domain-index order,
    domains as bitmasks.  Solvers return *one* solution; the evaluation
    layer's simulation-guided refinement wants the top-k candidates to
    re-rank, and this is where they come from.  ``max_nodes`` bounds
    the effort on pathological networks (the partial enumeration found
    so far is returned).

    Raises:
        ValueError: for a non-positive limit.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    kernel = as_compiled(network)
    count = kernel.variable_count
    if count == 0:
        return []
    order = sorted(
        range(count),
        key=lambda v: (-len(kernel.neighbors[v]), kernel.name_rank[v]),
    )
    position = {variable: depth for depth, variable in enumerate(order)}
    solutions: list[dict[str, Value]] = []
    values: list[int | None] = [None] * count
    masks = list(kernel.full_masks)
    nodes = 0

    def search(depth: int) -> bool:
        nonlocal nodes
        if depth == count:
            solutions.append(kernel.to_named(values))
            return len(solutions) >= limit
        variable = order[depth]
        mask = masks[variable]
        while mask:
            if nodes >= max_nodes:
                return True
            nodes += 1
            low = mask & -mask
            mask ^= low
            value = low.bit_length() - 1
            values[variable] = value
            saved: list[tuple[int, int]] = []
            dead = False
            for neighbor in kernel.neighbors[variable]:
                if position[neighbor] <= depth:
                    continue
                pruned = masks[neighbor] & kernel.support_mask(
                    variable, value, neighbor
                )
                saved.append((neighbor, masks[neighbor]))
                masks[neighbor] = pruned
                if not pruned:
                    dead = True
                    break
            if not dead and search(depth + 1):
                return True
            for neighbor, previous in saved:
                masks[neighbor] = previous
            values[variable] = None
        return False

    search(0)
    return solutions
