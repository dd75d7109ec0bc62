"""The export surface resolves: every name a ``repro`` module lists in
``__all__`` is an attribute of that module.

A deletion that leaves a stale export then fails here, not at a user's
``from repro.x import *``."""

import importlib
import pkgutil

import repro

#: every importable module (the ctypes-loaded ``_klcore-<hash>.so`` has no
#: identifier name; ``__main__`` would run the CLI)
MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if all(part.isidentifier() for part in info.name.split("."))
    and not info.name.endswith(".__main__")
)


def test_every_export_resolves():
    declared = 0
    stale = []
    for name in MODULES:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", ())
        declared += len(exports)
        stale += [f"{name}.{n}" for n in exports if not hasattr(module, n)]
    assert declared > 0
    assert not stale, f"__all__ names with no attribute: {stale}"
