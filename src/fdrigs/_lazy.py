"""The one NumPy binding of the package, imported at its first use.

`np` is NumPy's module object, registered through
`importlib.util.LazyLoader`: NumPy is executed at the first attribute
access, that is, at the first call that works on arrays.  Importing fdrigs,
and every evaluation on Python floats, therefore leaves NumPy unloaded.  A
process that has already imported NumPy gets that module itself.  Modules
bind `np` from here, never by their own ``import numpy``: an import
statement reads the module's ``__spec__`` and so would run the load.
"""

import importlib.util
import sys

__all__ = ["np"]


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
