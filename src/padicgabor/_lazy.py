"""Modules on first use: _lazy(name) is the module once something has loaded it, and until then a
module in sys.modules, bound on its parent package as an import binds it, whose first attribute
access runs it (importlib.util.LazyLoader).  A plain `import numpy` of that module runs it at
once, so the package takes `np` from here; the cli takes the layers some command never uses."""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module


def ran(module) -> bool:
    """Whether a module has run; asking does not run a lazy one, as any attribute access would."""
    return type(module) is not importlib.util._LazyModule


np = _lazy("numpy")
