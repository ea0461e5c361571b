"""Primitive integer-vector operations.

Hyperplane vectors (Section 2 of the paper) are integer row vectors
defined only up to a nonzero rational scale: ``(2 -2)`` names the same
hyperplane family as ``(1 -1)`` (and the paper's footnote 2 explains why
the primitive representative is the one to use -- non-primitive vectors
inflate the transformed data space).  The canonical representative used
throughout this library is the *primitive, lex-positive* form produced
by :func:`canonical_hyperplane_vector`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

IntVector = tuple[int, ...]


def gcd_many(values: Iterable[int]) -> int:
    """Return the gcd of an iterable of integers (gcd of nothing is 0).

    The result is always non-negative; ``gcd_many([-4, 6]) == 2``.
    """
    result = 0
    for value in values:
        result = math.gcd(result, value)
        if result == 1:
            return 1
    return result


def is_zero_vector(vector: Sequence[int]) -> bool:
    """True if every component is zero (or the vector is empty)."""
    return not any(vector)


def normalize_primitive(vector: Sequence[int]) -> IntVector:
    """Divide a nonzero integer vector by the gcd of its components.

    Raises:
        ValueError: if the vector is all zeros (a zero hyperplane vector
            does not name a hyperplane family).
    """
    divisor = gcd_many(vector)
    if divisor == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(component // divisor for component in vector)


def lex_positive(vector: Sequence[int]) -> bool:
    """True if the first nonzero component of the vector is positive.

    The zero vector is not lex-positive.
    """
    for component in vector:
        if component != 0:
            return component > 0
    return False


def canonical_hyperplane_vector(vector: Sequence[int]) -> IntVector:
    """Canonical representative of the hyperplane family of ``vector``.

    Two integer vectors represent the same hyperplane family iff one is
    a nonzero rational multiple of the other, so the canonical form is
    the primitive vector whose leading nonzero entry is positive:

    >>> canonical_hyperplane_vector((2, -2))
    (1, -1)
    >>> canonical_hyperplane_vector((0, -3))
    (0, 1)

    Raises:
        ValueError: for the zero vector.
    """
    primitive = normalize_primitive(vector)
    if lex_positive(primitive):
        return primitive
    return tuple(-component for component in primitive)


def dot(left: Sequence[int], right: Sequence[int]) -> int:
    """Point multiplication of two equal-length integer vectors.

    This is the operation written ``(y1 ... yk) . d`` in the paper.

    Raises:
        ValueError: if the vectors have different lengths.
    """
    if len(left) != len(right):
        raise ValueError(
            f"dot product of vectors of different lengths: {len(left)} vs {len(right)}"
        )
    return sum(a * b for a, b in zip(left, right))


def vec_add(left: Sequence[int], right: Sequence[int]) -> IntVector:
    """Componentwise sum of two equal-length vectors."""
    if len(left) != len(right):
        raise ValueError("vector length mismatch in vec_add")
    return tuple(a + b for a, b in zip(left, right))


def vec_sub(left: Sequence[int], right: Sequence[int]) -> IntVector:
    """Componentwise difference ``left - right``."""
    if len(left) != len(right):
        raise ValueError("vector length mismatch in vec_sub")
    return tuple(a - b for a, b in zip(left, right))


def vec_scale(vector: Sequence[int], factor: int) -> IntVector:
    """Scale every component of ``vector`` by the integer ``factor``."""
    return tuple(component * factor for component in vector)
