"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists the names whose defining module the default one-shot
octagon path never runs; the first attribute access imports that
module and caches the value in the package namespace.  Everything the
compute path runs stays an eager import (see DESIGN.md, "Cold start
and the import graph").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict


def lazy_exports(package: str, table: Dict[str, str]) -> Callable:
    """A module ``__getattr__`` resolving ``table``'s names on first use.

    ``table`` maps an exported name to the module, relative to
    ``package``, that defines it; a submodule (``"report": ".report"``)
    exports itself.
    """

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
