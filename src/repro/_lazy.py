"""Lazy package exports (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
declares them in a module -> names table and installs the pair this module
builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.context": ("TraceContext",),
        ...
    })

A name's module is imported on the name's first access, and the value is
then stored in the package namespace, so later reads are plain attribute
lookups.  ``from package import *`` still binds every name in ``__all__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a full module name to the names it provides.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | owner.keys())

    return __getattr__, __dir__
