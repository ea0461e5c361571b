"""Unimodular loop transformations.

The constraint pairs of Section 3 each correspond to "the best layout
choice under a given loop restructuring", so building the network
requires enumerating candidate restructurings per nest and checking
their legality against data dependences.  The heuristic baseline of [9]
also picks a (transform, layouts) combination per nest.

* :mod:`repro.transform.unimodular_loop` -- transform objects
  (permutations, reversals, skews) with cached inverses.
* :mod:`repro.transform.legality` -- dependence-based legality.
* :mod:`repro.transform.catalog` -- candidate enumeration per nest.
* :mod:`repro.transform.scanning` -- Fourier-Motzkin based scanning of
  a transformed iteration space in its new execution order (used by the
  trace generator when a nest is restructured).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "LoopTransform": ".unimodular_loop",
    "identity_transform": ".unimodular_loop",
    "permutation_transform": ".unimodular_loop",
    "reversal_transform": ".unimodular_loop",
    "skew_transform": ".unimodular_loop",
    "compose": ".unimodular_loop",
    "is_legal": ".legality",
    "transformed_distances": ".legality",
    "candidate_transforms": ".catalog",
    "legal_transforms": ".catalog",
    "scan_transformed_box": ".scanning",
    "fourier_motzkin_bounds": ".scanning",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
