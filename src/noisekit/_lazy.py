"""numpy, bound at import but executed on first attribute access.

Modules write ``from ._lazy import np``. Commands that never touch an array
then never run numpy's import; the first ``np.<name>`` lookup runs it.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
