"""scipy's special-function ufuncs, loaded without the ``scipy.special`` package.

Every function bfdr calls is a ufunc of scipy's private extension module
``scipy.special._ufuncs``. The package's ``__init__`` also imports its array-API
layer (``scipy._lib._array_api``, which pulls in ``numpy.f2py``): about 0.2 s of
every CLI process. So ``_ufuncs`` is loaded under a stub package that is removed
afterwards; a later ``import scipy.special`` runs the real ``__init__`` and binds
the same ufuncs. If ``scipy.special`` is already imported, or the stubbed load
raises (say, a scipy release renames ``_ufuncs``), ``_sp`` is the package.
"""

import os
import sys
import types

import scipy


def _load_ufuncs():
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stub
    try:
        from scipy.special import _ufuncs
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
        if vars(scipy).get("special") is stub:
            del scipy.special
    return _ufuncs


try:
    if "scipy.special" in sys.modules:
        raise ImportError("scipy.special is already imported")
    _sp = _load_ufuncs()
except Exception:
    from scipy import special as _sp
