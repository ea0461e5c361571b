"""Constraint-network machinery (Sections 3 and 4 of the paper).

* :mod:`repro.csp.network` -- the binary constraint network
  ``CN = <P, M, S>``: variables, per-variable domains, and binary
  constraints given as sets of allowed value pairs (the *authoring*
  representation).
* :mod:`repro.csp.compiled` -- the *execution* representation: dense
  integer indices and per-value support bitmasks; every solver below
  runs its inner loop on this kernel.  Its ``enumerate_solutions`` is
  the deterministic, depth-first top-k enumeration (it stops at
  ``limit``) that the refine and joint passes draw alternatives from.
* :mod:`repro.csp.vectorized` -- engine resolution behind every
  solver's ``engine="bitset" | "native" | "auto"`` knob: ``bitset`` is
  the reference semantics and compilerless fallback, ``native`` (the C
  kernel in :mod:`repro.csp.native`) reproduces it byte for byte
  (identical RNG streams, counters and solutions) where it pays.
* :mod:`repro.csp.stats` -- search instrumentation shared by all
  solvers (nodes, backtracks, backjumps, consistency checks, time).
* :mod:`repro.csp.backtracking` -- the paper's *base scheme*:
  chronological backtracking with random variable and value orders.
* :mod:`repro.csp.enhanced` -- the *enhanced scheme*: most-constraining
  variable ordering, least-constraining value ordering and graph-based
  backjumping, each individually toggleable (used for Figure 4).
* :mod:`repro.csp.backjumping` -- conflict-directed backjumping (a
  sharper jump rule than the graph-based one, provided as an extension).
* :mod:`repro.csp.forward_checking` -- forward-checking solver
  (extension beyond the paper).
* :mod:`repro.csp.arc_consistency` -- AC-3 preprocessing.
* :mod:`repro.csp.minconflicts` -- min-conflicts local search.
* :mod:`repro.csp.weighted` -- weighted networks and branch-and-bound
  (the paper's first future-work direction).
* :mod:`repro.csp.random_networks` -- random network generation for
  scaling studies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BinaryConstraint": ".network",
    "ConstraintNetwork": ".network",
    "CompiledNetwork": ".compiled",
    "compile_network": ".compiled",
    "batch_min_conflicts": ".vectorized",
    "native_available": ".vectorized",
    "resolve_engine": ".vectorized",
    "SolverStats": ".stats",
    "SolverResult": ".stats",
    "BacktrackingSolver": ".backtracking",
    "EnhancedSolver": ".enhanced",
    "EnhancementConfig": ".enhanced",
    "ConflictDirectedSolver": ".backjumping",
    "ForwardCheckingSolver": ".forward_checking",
    "ac3": ".arc_consistency",
    "ArcConsistencyResult": ".arc_consistency",
    "MinConflictsSolver": ".minconflicts",
    "WeightedNetwork": ".weighted",
    "BranchAndBoundSolver": ".weighted",
    "random_network": ".random_networks",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
