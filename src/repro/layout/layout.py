"""Full memory layouts as ordered hyperplane sets.

For a ``k``-dimensional array a layout is an ordered tuple of ``k - 1``
linearly independent hyperplane rows ``Y1 ... Y(k-1)``; two elements
share full spatial locality iff every row gives them equal dot products
(paper, end of Section 2).  Row order matters: ``Y1`` is the most
significant storage direction.  A 1-dimensional array has exactly one
layout, the empty tuple of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.layout.hyperplane import Hyperplane
from repro.linalg.matrices import rank
from repro.linalg.vectors import dot


@dataclass(frozen=True)
class Layout:
    """An ordered, canonical set of hyperplane rows for one array rank.

    Attributes:
        dimension: the array rank ``k``.
        rows: ``k - 1`` canonical hyperplane vectors, most significant
            first.

    Layouts are hashed and compared millions of times per optimize (as
    domain values, constraint pairs and memo keys), so the hash is
    computed once at construction.  It equals the dataclass hash of the
    fields, ``hash((dimension, rows))``, so every set and dict keyed by
    layouts iterates in the same order as with the generated hash.  The
    stored hash never rides in a pickle: it is recomputed on load.
    """

    dimension: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, dimension: int, rows: Sequence[Sequence[int]]):
        canonical_rows = tuple(Hyperplane(row).vector for row in rows)
        if dimension < 1:
            raise ValueError("layout dimension must be >= 1")
        if len(canonical_rows) != dimension - 1:
            raise ValueError(
                f"a {dimension}-dimensional layout needs {dimension - 1} "
                f"hyperplane rows, got {len(canonical_rows)}"
            )
        for row in canonical_rows:
            if len(row) != dimension:
                raise ValueError(
                    f"hyperplane row {row} does not live in dimension {dimension}"
                )
        if canonical_rows and rank(canonical_rows) != len(canonical_rows):
            raise ValueError("layout hyperplane rows must be linearly independent")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "rows", canonical_rows)
        object.__setattr__(self, "_hash", hash((dimension, canonical_rows)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.dimension == other.dimension
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"dimension": self.dimension, "rows": self.rows}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(
            state, _hash=hash((state["dimension"], state["rows"]))
        )

    @property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """Rows wrapped as :class:`Hyperplane` objects."""
        return tuple(Hyperplane(row) for row in self.rows)

    def colocated(self, first: Sequence[int], second: Sequence[int]) -> bool:
        """True iff both elements lie on the same member of every family.

        This is the paper's multi-row membership test
        ``Yi . d1 == Yi . d2`` for all ``i``.
        """
        return all(
            dot(row, first) == dot(row, second) for row in self.rows
        )

    def describe(self) -> str:
        """Human-readable name for well-known 2-D layouts, else the rows."""
        if self.dimension == 2 and len(self.rows) == 1:
            names = {
                (1, 0): "row-major",
                (0, 1): "column-major",
                (1, -1): "diagonal",
                (1, 1): "anti-diagonal",
            }
            known = names.get(self.rows[0])
            if known is not None:
                return f"{known} {Hyperplane(self.rows[0])}"
        return str(self)

    def __str__(self) -> str:
        if not self.rows:
            return "<1-d layout>"
        return "; ".join(str(Hyperplane(row)) for row in self.rows)


def row_major(dimension: int) -> Layout:
    """The default C layout: last index varies fastest.

    For 2-D this is hyperplane ``(1 0)`` (Figure 1(a)); for 3-D the
    ordered rows are ``(1 0 0), (0 1 0)``.
    """
    rows = []
    for i in range(dimension - 1):
        row = [0] * dimension
        row[i] = 1
        rows.append(tuple(row))
    return Layout(dimension, rows)


def column_major(dimension: int) -> Layout:
    """Fortran layout: first index varies fastest.

    For 3-D this is the paper's example: rows ``(0 0 1), (0 1 0)``.
    """
    rows = []
    for i in range(dimension - 1):
        row = [0] * dimension
        row[dimension - 1 - i] = 1
        rows.append(tuple(row))
    return Layout(dimension, rows)


def diagonal() -> Layout:
    """The 2-D diagonal layout ``(1 -1)`` of Figure 1(c)."""
    return Layout(2, [(1, -1)])


def antidiagonal() -> Layout:
    """The 2-D anti-diagonal layout ``(1 1)`` of Figure 1(d)."""
    return Layout(2, [(1, 1)])


@lru_cache(maxsize=64)
def standard_layouts(dimension: int) -> tuple[Layout, ...]:
    """The conventional candidates for an array rank.

    2-D arrays get the four layouts of Figure 1; higher ranks get
    row-major and column-major (richer candidates come from the
    locality analysis in :mod:`repro.layout.candidates`).

    Interned: repeated calls for a rank return the same (immutable)
    instances, so every domain derivation shares them.
    """
    if dimension == 1:
        return (Layout(1, []),)
    if dimension == 2:
        return (row_major(2), column_major(2), diagonal(), antidiagonal())
    return (row_major(dimension), column_major(dimension))
