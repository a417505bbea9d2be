"""numpy, bound as `np` but executed on its first attribute access.

The symbolic commands (`local`, `alpha`, `verify routes`) never touch an
array, so they start without paying for numpy's import.  The modules that
use arrays take `np` from here.  The first access must come from one
thread: `importlib.util.LazyLoader` is not thread-safe on first access
before Python 3.12.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name`, loaded when an attribute of it is first read (the
    `importlib.util.LazyLoader` recipe), or the module itself if it is
    already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = lazy_import("numpy")
