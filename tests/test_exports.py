"""Every name a phasemix module exports, and every name the package imports, resolves."""

import ast
import importlib
import pkgutil

import pytest

import phasemix

MODULES = sorted(m.name for m in pkgutil.iter_modules(phasemix.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"phasemix.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_imports_resolve():
    with open(phasemix.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(f"phasemix.{module}"), name)]
    assert not missing
