"""Hyperplane-based memory layout algebra (Section 2 of the paper).

A memory layout of a ``k``-dimensional array is an *ordered* set of
``k - 1`` integer hyperplane vectors: two elements are stored in the
same innermost block iff every hyperplane row gives them equal dot
products.  This subpackage provides:

* :mod:`repro.layout.hyperplane` -- a single hyperplane family.
* :mod:`repro.layout.layout` -- full layouts, canonical forms, the
  standard layouts (row-major, column-major, (anti)diagonal).
* :mod:`repro.layout.mapping` -- completion of a layout to a
  nonsingular data transformation and the resulting index -> linear
  offset map over the transformed bounding box.
* :mod:`repro.layout.locality` -- the locality equation
  ``Y . (A e) = 0`` and layout derivation from access deltas.
* :mod:`repro.layout.candidates` -- per-nest candidate layout
  enumeration for each array under candidate loop restructurings.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Hyperplane": ".hyperplane",
    "Layout": ".layout",
    "row_major": ".layout",
    "column_major": ".layout",
    "diagonal": ".layout",
    "antidiagonal": ".layout",
    "standard_layouts": ".layout",
    "LayoutMapping": ".mapping",
    "access_delta": ".locality",
    "layout_for_deltas": ".locality",
    "preferred_layout": ".locality",
    "has_spatial_locality": ".locality",
    "has_temporal_locality": ".locality",
    "nest_layout_combos": ".candidates",
    "candidate_layouts_for_array": ".candidates",
    "LayoutCombo": ".candidates",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
