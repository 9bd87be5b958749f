"""SciPy's compiled modules, loaded without their packages' ``__init__``.

``import scipy.ndimage`` loads some 300 modules to reach its feature transform
and labeller, and ``import scipy.optimize`` all of ``scipy.optimize``,
``scipy.linalg`` and ``scipy.sparse`` to reach the HiGHS binding. ``load``
executes the extension file alone, under its own name in ``sys.modules``, so
that a later ``import scipy.ndimage`` or ``import scipy.optimize`` reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from types import ModuleType

_LOCK = threading.Lock()


def load(name: str) -> ModuleType:
    """The compiled module ``name`` (``scipy.<package>.<module>``), loaded once per process."""
    with _LOCK:
        if name in sys.modules:
            return sys.modules[name]
        scipy = importlib.util.find_spec("scipy")
        package = name.split(".")[1:-1]
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.submodule_search_locations[0], *package)])
        if spec is None:
            raise ImportError(f"SciPy has no compiled module {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        return module
