"""Program execution simulation: layouts -> addresses -> cycles.

Bridges the IR and the cache simulator: assigns base addresses to the
arrays under their chosen layouts, walks every nest's iteration space
(optionally in a restructured order), converts each reference to a byte
address via the layout's linear map, and feeds the resulting stream
through the modelled hierarchy and CPU.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "AddressMap": ".addressmap",
    "compile_nest_accesses": ".tracegen",
    "CompiledAccess": ".tracegen",
    "IncrementalAddress": ".tracegen",
    "NestAccessPlan": ".tracegen",
    "ENGINES": ".executor",
    "resolve_engine": ".executor",
    "simulate_program": ".executor",
    "SimulationResult": ".executor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
