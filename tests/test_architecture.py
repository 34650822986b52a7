"""Module boundaries, checked from the source.

The certificate checker in check.py re-validates what the engine produces,
so it must not import the engine, the CLI, the simulator or the plant
module; it imports primitives only.
"""

import ast
import importlib
import types
from pathlib import Path

import certcap

CHECK = Path(certcap.__file__).resolve().parent / "check.py"
FORBIDDEN = {"classify", "cli", "simulate", "plant"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            if not node.module:  # from . import classify
                yield from (base + alias.name for alias in node.names)


def test_checker_imports_no_engine_module():
    tree = ast.parse(CHECK.read_text(encoding="utf-8"))
    imported = {name.lstrip(".").removeprefix("certcap.") for name in _imported_modules(tree)}
    assert imported, "no imports found"
    assert not imported & FORBIDDEN, sorted(imported & FORBIDDEN)


def test_package_attributes_are_the_modules():
    # the package root exports only __version__, so no function of the same
    # name hides a submodule
    for name in ("classify", "check"):
        importlib.import_module(f"certcap.{name}")
        assert isinstance(getattr(certcap, name), types.ModuleType), name
    assert certcap.__version__
