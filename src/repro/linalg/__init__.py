"""Exact integer/rational linear algebra used by the layout machinery.

The layout representation of the paper (Section 2) is built on integer
hyperplane vectors and unimodular data transformations, so floating
point is never appropriate here.  This subpackage provides exact
arithmetic over Python integers and :class:`fractions.Fraction`:

* :mod:`repro.linalg.vectors` -- primitive integer vectors, gcd
  normalization, dot products, lexicographic canonical forms.
* :mod:`repro.linalg.matrices` -- integer matrices: multiplication,
  determinants (Bareiss), exact inverses, rank.
* :mod:`repro.linalg.nullspace` -- integer (left) null-space bases.
* :mod:`repro.linalg.unimodular` -- extended-gcd row completion of a
  set of independent integer rows to a unimodular/nonsingular matrix,
  and Hermite normal form.
* :mod:`repro.linalg.boxes` -- exact extrema of affine forms over
  integer boxes (used to compute transformed-array extents).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "gcd_many": ".vectors",
    "is_zero_vector": ".vectors",
    "normalize_primitive": ".vectors",
    "canonical_hyperplane_vector": ".vectors",
    "dot": ".vectors",
    "vec_add": ".vectors",
    "vec_sub": ".vectors",
    "vec_scale": ".vectors",
    "lex_positive": ".vectors",
    "identity_matrix": ".matrices",
    "mat_mul": ".matrices",
    "mat_vec": ".matrices",
    "mat_transpose": ".matrices",
    "determinant": ".matrices",
    "rank": ".matrices",
    "inverse_rational": ".matrices",
    "inverse_integer": ".matrices",
    "is_unimodular": ".matrices",
    "mat_equal": ".matrices",
    "copy_matrix": ".matrices",
    "nullspace_basis": ".nullspace",
    "left_nullspace_basis": ".nullspace",
    "hermite_normal_form": ".unimodular",
    "complete_to_nonsingular": ".unimodular",
    "complete_to_unimodular": ".unimodular",
    "affine_range_over_box": ".boxes",
    "box_corners": ".boxes",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
