"""The package's public names: every export resolves, and none is an alias."""

import importlib
import pkgutil

import pytest

import nlflow

MODULES = ["nlflow"] + [f"nlflow.{info.name}"
                        for info in pkgutil.iter_modules(nlflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_to_distinct_objects(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    owners: dict[int, str] = {}
    aliases = []
    for n in exports:
        first = owners.setdefault(id(getattr(module, n)), n)
        if first != n:
            aliases.append((first, n))
    assert not aliases, f"{name}.__all__ binds one object twice: {aliases}"
