"""Certificate checks must survive ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "squarespan"

# (module, function) pairs whose checks certify reported output.
CERTIFYING = [
    ("beam", "_finalize"),
    ("realize", "is_realizable"),
    ("realize", "strict_witness"),
    ("bounds", "ilp_assignment_from_pointset"),
]


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(f"{module}.{name} not found")


@pytest.mark.parametrize("module,name", CERTIFYING)
def test_no_assert_in_certificate_check(module, name):
    asserts = [node.lineno for node in ast.walk(_function(module, name))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"{module}.py:{asserts} asserts in {name}"
