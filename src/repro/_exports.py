"""Lazy package re-exports (PEP 562).

A package lists each public name with the submodule that defines it;
the submodule is imported the first time the name is looked up, not
when the package is imported.  ``import repro`` therefore costs only
what the caller goes on to use: the optimize path never loads the
simulator, the service stack or numpy.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Mapping


def lazy_exports(
    namespace: dict, table: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package re-exporting
    each name in ``table`` from the module it maps to (relative to
    the package whose ``globals()`` is ``namespace``)."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
