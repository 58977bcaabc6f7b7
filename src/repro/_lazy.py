"""Package facades that import on first use (PEP 562).

A package ``__init__`` lists its re-exports in one table and imports
none of them::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Simulator",),
    })

``from repro.sim import Simulator`` imports :mod:`repro.sim.engine` the
first time the name is asked for and binds it in the package, so later
lookups never reach ``__getattr__``. Importing one module of a package
then costs that module and what it imports, not every sibling the
facade re-exports.
"""

import importlib
import sys


def lazy_exports(package, table):
    """``(__getattr__, __dir__)`` for ``package``, whose re-exports
    ``table`` maps as ``module -> names``."""
    home = {name: module for module, names in table.items()
            for name in names}

    def __getattr__(name):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__
