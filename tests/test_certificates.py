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
    ("geometry", "count_squares"),
    ("geometry", "count_rit"),
    ("geometry", "neighborhood_graph"),
    ("extension", "decompose_at"),
    ("realize", "solve_space"),
    ("realize", "rationalize"),
]


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError(f"{module}.{name} not found")


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("module,name", CERTIFYING)
def test_no_assert_in_certificate_check(module, name):
    asserts = [node.lineno for node in ast.walk(_function(module, name))
               if isinstance(node, ast.Assert)
               or _raises_assertion_error(node)]
    assert not asserts, f"{module}.py:{asserts} asserts in {name}"
