"""Package names that are imported on first use (PEP 562).

A package that re-exports a name from a module its main path does not
run lists that name here instead of importing the module, so a fresh
process compiles the module only if it reads the name::

    __getattr__, __dir__ = lazy_exports(
        __name__, {"emit_halide": "repro.ir.halide_out"}
    )
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``table`` maps each lazily exported name to the module that defines
    it; a name that is a submodule of ``package`` (``repro.api``) stands
    for the module itself, unless that submodule defines the name
    (``repro.core.classify`` defines ``classify``).  The first read
    imports the module and binds the name in the package, so later reads
    never reach ``__getattr__``.  Importing such a submodule binds it on
    the package; the package then keeps the name's export instead.
    """
    module = sys.modules[package]
    namespace = module.__dict__

    def export(name: str, source: types.ModuleType) -> object:
        if source.__name__ == f"{package}.{name}":
            return getattr(source, name, source)
        return getattr(source, name)

    def __getattr__(name: str) -> object:
        try:
            source = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = export(name, importlib.import_module(source))
        namespace[name] = value
        return value

    class Namespace(types.ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            if (
                isinstance(value, types.ModuleType)
                and table.get(name) == value.__name__
            ):
                value = export(name, value)
            super().__setattr__(name, value)

    module.__class__ = Namespace

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
