"""The package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import gausslink

MODULES = sorted(m.name for m in pkgutil.iter_modules(gausslink.__path__))


def test_modules_found():
    assert {"capacity", "entanglement", "gaussian", "swap", "teleport", "transducer"} <= set(MODULES)


@pytest.mark.parametrize("name", ["gausslink"] + [f"gausslink.{m}" for m in MODULES])
def test_star_import_resolves_every_exported_name(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    # raises AttributeError for a name in __all__ that the module lacks
    exec(f"from {name} import *", {})
