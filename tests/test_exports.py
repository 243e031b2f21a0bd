"""Every name that relcat exports resolves.

A name left in a module's ``__all__`` after its definition moved or was
deleted breaks ``from relcat.<module> import *`` but nothing else, so it
is checked here.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import relcat

PACKAGE_DIR = pathlib.Path(relcat.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)]))


def test_modules_are_found():
    assert {"cells", "dsl", "generators", "relations"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"relcat.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
