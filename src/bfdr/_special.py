"""Private extension modules of scipy and numpy, loaded without their packages.

- ``_sp`` is ``scipy.special._ufuncs``, loaded at import. The package's
  ``__init__`` also imports its array-API layer (``scipy._lib._array_api``,
  which pulls in ``numpy.f2py``): about 0.2 s of every CLI process.
- :func:`philox` gives ``numpy.random._philox.Philox``, loaded on its first
  call, which only the simulator makes. ``numpy.random``'s ``__init__`` also
  loads ``mtrand``, ``_generator`` and four other generators (about 1.3 MB
  more resident memory than Philox alone), so ``import bfdr`` leaves it
  unloaded; numpy 1.x imports it with numpy, and there the package is used.

Each is loaded under a stub package that is removed afterwards; a later real
import of the package binds the same objects. If the package is already
imported, or the stubbed load raises (say, a release renames the module), the
package itself is used.
"""

import importlib
import os
import sys
import threading
import types

import numpy
import scipy


def _load(parent, package: str, module: str):
    """``parent.package.module`` if a stub ``parent.package`` can load it, else
    the package ``parent.package`` itself, which binds the same names."""
    name = f"{parent.__name__}.{package}"
    try:
        if name in sys.modules:
            raise ImportError(f"{name} is already imported")
        stub = types.ModuleType(name)
        stub.__path__ = [os.path.join(os.path.dirname(parent.__file__), package)]
        sys.modules[name] = stub
        try:
            return importlib.import_module(f"{name}.{module}")
        finally:
            if sys.modules.get(name) is stub:
                del sys.modules[name]
            if vars(parent).get(package) is stub:
                delattr(parent, package)
    except Exception:
        return importlib.import_module(name)


_sp = _load(scipy, "special", "_ufuncs")

_philox_lock = threading.Lock()
_philox = None


def philox():
    """numpy's Philox bit generator class, loaded on the first call.

    The lock makes concurrent first calls (a cold multi-worker simulation)
    load it once.
    """
    global _philox
    with _philox_lock:
        if _philox is None:
            _philox = _load(numpy, "random", "_philox").Philox
        return _philox
