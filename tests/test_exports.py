"""Every public name a bitmimo module exports exists, and the package
re-exports only such names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import bitmimo

MODULES = [info.name for info in pkgutil.iter_modules(bitmimo.__path__)]


def test_every_all_name_exists():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"bitmimo.{name}")
        exported = getattr(module, "__all__", ())  # the cli module has none
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"bitmimo.{name}.__all__ names missing attributes {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(bitmimo.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        if module is None:
            continue  # `from . import x` binds a submodule, not an export
        exported = importlib.import_module(f"bitmimo.{module}").__all__
        assert name in exported, f"bitmimo/__init__ imports {name} not in bitmimo.{module}.__all__"
