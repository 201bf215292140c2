"""The traced benchmark names package functions; keep them resolvable.

``perfbench/tracing.py`` wraps functions of ``squarespan`` that it looks
up by (module, attribute).  Its tables are read from the source, not
imported, so this check runs without the benchmark on the path.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in ("SPANS", "COUNTERS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_function_resolves():
    tables = _tables()
    targets = [pair for pairs in tables["SPANS"].values() for pair in pairs]
    targets += list(tables["COUNTERS"].values())
    assert len(targets) > 20
    for module, attr in targets:
        mod = importlib.import_module(f"squarespan.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
