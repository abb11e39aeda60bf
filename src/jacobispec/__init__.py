"""Numerical laboratory for Jacobi matrices with power-asymptotic parameters.

Classifies parameter families as limit circle / limit point, predicts the
convergence exponent and density bounds of the spectrum, and verifies the
predictions at desk scale through truncated spectra, recurrence
asymptotics and entire-function growth estimation.

The package root imports nothing until a name is used (PEP 562), so
``import jacobispec`` loads no numpy and ``python -m jacobispec`` can pin
OpenBLAS to one thread before numpy loads (see ``__main__``).  The first
use of any name, an unknown one included, loads every layer once and binds
each name of its ``__all__``: a layer's ``__all__`` is the one list of its
public names.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_LAYERS = ("_kernels", "classify", "growth", "hamburger", "params", "recurrence", "spectrum")


def __getattr__(name):
    if name == "_kernels":
        # served alone: a half-imported layer asks for it by ``from . import``
        return import_module("._kernels", __name__)
    namespace = globals()
    if "__all__" not in namespace:
        layers = [import_module(f".{layer}", __name__) for layer in _LAYERS]
        exports = [(layer, n) for layer in layers for n in sorted(layer.__all__)]
        namespace.update((n, getattr(layer, n)) for layer, n in exports)
        namespace["__all__"] = [n for _, n in exports]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")
    return sorted(globals())


class _Root(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package, unless
    its ``__all__`` exports its own name: the function ``classify`` keeps
    its place, as it did when the root imported every module eagerly."""

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType) and name in getattr(value, "__all__", ())):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
