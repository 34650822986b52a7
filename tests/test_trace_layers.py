"""The traced benchmark run wraps certcap functions by name; each must exist.

perfbench/spans.py lists them as (module, attribute path) pairs in its
LAYERS and RESULT_ONLY tables.  The tables are read from the file's source,
so this test imports nothing from the benchmark.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_functions():
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "RESULT_ONLY"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"LAYERS", "RESULT_ONLY"}
    return [pair for table in tables.values() for pairs in table.values() for pair in pairs]


def test_every_traced_function_resolves():
    pairs = _traced_functions()
    assert pairs
    for module, path in pairs:
        obj = importlib.import_module(f"certcap.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{module}.{path}"
