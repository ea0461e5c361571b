"""The binary constraint network ``CN = <P, M, S>``.

Variables ``P`` are array names; each domain ``M_i`` is a list of
candidate memory layouts; each constraint ``S_ij`` is a set of allowed
(layout_i, layout_j) pairs -- one pair per candidate restructuring of a
nest touching both arrays (paper, Section 3).  The classes here are
generic over hashable values, so the same machinery runs the layout
networks, the random scaling networks and the unit-test toys.

This is the *authoring* tier: convenient to build, inspect and reason
about.  The solvers run on the *execution* tier --
:mod:`repro.csp.compiled` interns variables and values to dense integer
indices and turns every constraint into per-value support bitmasks;
:func:`repro.csp.compiled.compile_network` converts (cached, keyed on
:attr:`ConstraintNetwork.revision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

Value = Hashable


@dataclass(frozen=True)
class BinaryConstraint:
    """A constraint ``S_ij``: the allowed value pairs for two variables.

    The pair set is stored oriented from ``first`` to ``second``;
    :meth:`allows` accepts the variables in either order.
    """

    first: str
    second: str
    pairs: frozenset[tuple[Value, Value]]

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError(f"constraint relates {self.first} to itself")
        if not self.pairs:
            raise ValueError(
                f"constraint ({self.first}, {self.second}) allows nothing; "
                "the network is trivially unsatisfiable"
            )

    def involves(self, variable: str) -> bool:
        """True if the constraint mentions the variable."""
        return variable in (self.first, self.second)

    def other(self, variable: str) -> str:
        """The other endpoint.

        Raises:
            ValueError: if the variable is not an endpoint.
        """
        if variable == self.first:
            return self.second
        if variable == self.second:
            return self.first
        raise ValueError(f"{variable} not in constraint ({self.first},{self.second})")

    def allows(self, variable: str, value: Value, other_value: Value) -> bool:
        """True iff (value for variable, other_value for the other) is allowed."""
        if variable == self.first:
            return (value, other_value) in self.pairs
        if variable == self.second:
            return (other_value, value) in self.pairs
        raise ValueError(f"{variable} not in constraint ({self.first},{self.second})")

    @cached_property
    def _support_index(
        self,
    ) -> tuple[dict[Value, frozenset[Value]], dict[Value, frozenset[Value]]]:
        """Per-value support sets, built lazily on first use.

        ``(by_second, by_first)``: ``by_second[b]`` is the set of first
        values compatible with ``second = b`` and vice versa.  (Stored
        in the instance ``__dict__``, so the frozen dataclass's
        equality and hash -- fields only -- are unaffected.)
        """
        by_second: dict[Value, set[Value]] = {}
        by_first: dict[Value, set[Value]] = {}
        for a, b in self.pairs:
            by_second.setdefault(b, set()).add(a)
            by_first.setdefault(a, set()).add(b)
        return (
            {b: frozenset(values) for b, values in by_second.items()},
            {a: frozenset(values) for a, values in by_first.items()},
        )

    def supported_values(self, variable: str, other_value: Value) -> frozenset[Value]:
        """Values of ``variable`` compatible with the other side's value.

        O(1) after the first call on the constraint: the support sets
        are indexed lazily instead of rescanning the full pair set.
        """
        by_second, by_first = self._support_index
        if variable == self.first:
            return by_second.get(other_value, frozenset())
        if variable == self.second:
            return by_first.get(other_value, frozenset())
        raise ValueError(f"{variable} not in constraint ({self.first},{self.second})")


class ConstraintNetwork:
    """An immutable-after-build binary constraint network.

    Build with :meth:`add_variable` / :meth:`add_constraint`; all query
    methods may be used at any time.  Adding a second constraint over
    the same variable pair intersects the allowed pairs (both nests'
    requirements must hold simultaneously).
    """

    def __init__(self) -> None:
        self._domains: dict[str, tuple[Value, ...]] = {}
        self._constraints: dict[frozenset[str], BinaryConstraint] = {}
        self._neighbors: dict[str, set[str]] = {}
        self._revision = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_checked(
        cls,
        domains: Mapping[str, tuple[Value, ...]],
        constraints: Iterable[BinaryConstraint],
    ) -> ConstraintNetwork:
        """A network from parts its caller has already checked.

        Equal, revision included, to declaring every domain with
        :meth:`add_variable` in mapping order and then adding every
        constraint with :meth:`add_constraint` in order, without their
        per-value checks.  The caller vouches for what those would
        check: non-empty, duplicate-free domains, and at most one
        constraint per variable pair, between declared variables and
        over their domain values.
        """
        network = cls()
        network._domains = dict(domains)
        network._neighbors = {name: set() for name in network._domains}
        for constraint in constraints:
            first, second = constraint.first, constraint.second
            network._constraints[frozenset((first, second))] = constraint
            network._neighbors[first].add(second)
            network._neighbors[second].add(first)
        # One step per add_variable and per add_constraint it stands for.
        network._revision = len(network._domains) + len(network._constraints)
        return network

    def add_variable(self, name: str, domain: Sequence[Value]) -> None:
        """Declare a variable with its domain.

        Raises:
            ValueError: on duplicate names or empty domains.
        """
        if name in self._domains:
            raise ValueError(f"variable {name} already declared")
        values = tuple(domain)
        if not values:
            raise ValueError(f"variable {name} has an empty domain")
        if len(set(values)) != len(values):
            raise ValueError(f"variable {name} domain has duplicates")
        self._domains[name] = values
        self._neighbors[name] = set()
        self._revision += 1

    def add_constraint(
        self, first: str, second: str, pairs: Iterable[tuple[Value, Value]]
    ) -> None:
        """Add (or strengthen) the constraint between two variables.

        Pairs referencing values outside the declared domains are
        rejected.  A repeated (first, second) constraint intersects with
        the existing one; the orientation of the stored constraint is
        that of the first call.

        Raises:
            KeyError: for undeclared variables.
            ValueError: for out-of-domain pairs or an empty result.
        """
        if first not in self._domains:
            raise KeyError(first)
        if second not in self._domains:
            raise KeyError(second)
        pair_set = frozenset((a, b) for a, b in pairs)
        first_domain = set(self._domains[first])
        second_domain = set(self._domains[second])
        for a, b in pair_set:
            if a not in first_domain:
                raise ValueError(f"pair value {a!r} not in domain of {first}")
            if b not in second_domain:
                raise ValueError(f"pair value {b!r} not in domain of {second}")
        key = frozenset((first, second))
        existing = self._constraints.get(key)
        if existing is not None:
            # Intersect, re-orienting the new pairs if necessary.
            if existing.first == first:
                oriented = pair_set
            else:
                oriented = frozenset((b, a) for (a, b) in pair_set)
            merged = existing.pairs & oriented
            if not merged:
                raise ValueError(
                    f"constraints on ({first}, {second}) have empty intersection"
                )
            self._constraints[key] = BinaryConstraint(
                existing.first, existing.second, merged
            )
            self._revision += 1
            return
        self._constraints[key] = BinaryConstraint(first, second, pair_set)
        self._neighbors[first].add(second)
        self._neighbors[second].add(first)
        self._revision += 1

    # -- queries ----------------------------------------------------------

    @property
    def revision(self) -> int:
        """Mutation counter; keys the cached compiled kernel."""
        return self._revision

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in declaration order."""
        return tuple(self._domains)

    def domain(self, variable: str) -> tuple[Value, ...]:
        """The declared domain of a variable."""
        return self._domains[variable]

    @property
    def constraints(self) -> tuple[BinaryConstraint, ...]:
        """All constraints (arbitrary but deterministic order)."""
        return tuple(self._constraints.values())

    def constraint_between(self, first: str, second: str) -> BinaryConstraint | None:
        """The constraint over a pair, or None if unconstrained."""
        return self._constraints.get(frozenset((first, second)))

    def neighbors(self, variable: str) -> frozenset[str]:
        """Variables sharing a constraint with the given one."""
        return frozenset(self._neighbors[variable])

    def degree(self, variable: str) -> int:
        """Number of constraints touching the variable."""
        return len(self._neighbors[variable])

    @property
    def total_domain_size(self) -> int:
        """Sum of domain sizes -- the paper's Table 1 'Domain Size'."""
        return sum(len(domain) for domain in self._domains.values())

    @property
    def search_space_size(self) -> int:
        """Product of domain sizes (number of total assignments)."""
        product = 1
        for domain in self._domains.values():
            product *= len(domain)
        return product

    def check_pair(
        self, first: str, first_value: Value, second: str, second_value: Value
    ) -> bool:
        """True iff the two assignments are mutually consistent."""
        constraint = self.constraint_between(first, second)
        if constraint is None:
            return True
        return constraint.allows(first, first_value, second_value)

    def is_solution(self, assignment: Mapping[str, Value]) -> bool:
        """True iff the assignment is total and satisfies every constraint."""
        if set(assignment) != set(self._domains):
            return False
        for variable, value in assignment.items():
            if value not in self._domains[variable]:
                return False
        return all(
            constraint.allows(
                constraint.first,
                assignment[constraint.first],
                assignment[constraint.second],
            )
            for constraint in self._constraints.values()
        )

    def conflicted_constraints(
        self, assignment: Mapping[str, Value]
    ) -> tuple[BinaryConstraint, ...]:
        """Constraints violated by a (possibly partial) assignment."""
        violated = []
        for constraint in self._constraints.values():
            if constraint.first in assignment and constraint.second in assignment:
                if not constraint.allows(
                    constraint.first,
                    assignment[constraint.first],
                    assignment[constraint.second],
                ):
                    violated.append(constraint)
        return tuple(violated)

    def canonical_form(self, value_token=str) -> tuple:
        """Order-independent structural summary of the network.

        Two networks built from the same variables, domains and
        constraint pair-sets -- in *any* insertion order, with either
        constraint orientation -- produce identical canonical forms.
        ``value_token`` maps domain values to stable, sortable string
        tokens (defaults to :func:`str`; the service layer passes a
        collision-resistant encoder).  This is the hook behind
        :mod:`repro.service.fingerprint`.
        """
        variables = tuple(
            sorted(
                (name, tuple(sorted(value_token(value) for value in domain)))
                for name, domain in self._domains.items()
            )
        )
        constraints = []
        for constraint in self._constraints.values():
            low, high = sorted((constraint.first, constraint.second))
            if constraint.first == low:
                oriented = constraint.pairs
            else:
                oriented = frozenset((b, a) for (a, b) in constraint.pairs)
            constraints.append(
                (
                    low,
                    high,
                    tuple(
                        sorted(
                            (value_token(a), value_token(b))
                            for (a, b) in oriented
                        )
                    ),
                )
            )
        return (variables, tuple(sorted(constraints)))

    def copy_with_domains(
        self, domains: Mapping[str, Sequence[Value]]
    ) -> "ConstraintNetwork":
        """A copy with (possibly pruned) domains; constraints filtered.

        Pairs whose values fell out of the new domains are dropped.

        Raises:
            ValueError: if a constraint loses all its pairs (the pruned
                network is unsatisfiable) or a domain becomes empty.
        """
        clone = ConstraintNetwork()
        for variable in self.variables:
            clone.add_variable(variable, domains.get(variable, self.domain(variable)))
        for constraint in self.constraints:
            surviving = [
                (a, b)
                for (a, b) in constraint.pairs
                if a in clone.domain(constraint.first)
                and b in clone.domain(constraint.second)
            ]
            clone.add_constraint(constraint.first, constraint.second, surviving)
        return clone

    def __str__(self) -> str:
        lines = [f"ConstraintNetwork({len(self.variables)} vars, "
                 f"{len(self.constraints)} constraints)"]
        for variable in self.variables:
            lines.append(f"  {variable}: {len(self.domain(variable))} values")
        return "\n".join(lines)
