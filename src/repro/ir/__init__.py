"""Loop-nest intermediate representation.

The paper's input is an array-intensive program: a sequence of perfectly
nested affine loop nests whose bodies reference arrays through affine
subscript functions ``F(I) = A I + b``.  This subpackage provides:

* :mod:`repro.ir.expr` -- affine expressions over loop index names.
* :mod:`repro.ir.arrays` -- array declarations (extents, element size).
* :mod:`repro.ir.reference` -- affine array references.
* :mod:`repro.ir.loops` -- loops and loop nests.
* :mod:`repro.ir.program` -- whole programs.
* :mod:`repro.ir.parser` -- a small textual language for writing
  benchmark kernels (see the module docstring for the grammar).
* :mod:`repro.ir.dependence` -- data-dependence analysis used to check
  legality of candidate loop transformations.
* :mod:`repro.ir.validate` -- semantic well-formedness checks.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "AffineExpr": ".expr",
    "ArrayDecl": ".arrays",
    "ArrayRef": ".reference",
    "AccessKind": ".reference",
    "Loop": ".loops",
    "LoopNest": ".loops",
    "Program": ".program",
    "parse_program": ".parser",
    "ParseError": ".parser",
    "DependenceInfo": ".dependence",
    "Dependence": ".dependence",
    "analyze_nest_dependences": ".dependence",
    "validate_program": ".validate",
    "ValidationError": ".validate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
