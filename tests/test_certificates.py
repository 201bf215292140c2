"""Certificate checks must survive ``python -O``, which strips asserts.

Every function and method of the package is scanned, so a check cannot
slip in as an ``assert`` anywhere under ``src/squarespan``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "squarespan"


def _functions():
    """(module, qualified name, node) of every top-level function and
    every method; nested functions are scanned with their parent."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out.append((path.stem, node.name, node))
            elif isinstance(node, ast.ClassDef):
                out.extend((path.stem, f"{node.name}.{f.name}", f)
                           for f in node.body
                           if isinstance(f, ast.FunctionDef))
    return out


FUNCTIONS = _functions()


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_scan_reaches_the_certifying_functions():
    names = {(module, name) for module, name, _ in FUNCTIONS}
    assert {("beam", "_finalize"), ("realize", "is_realizable"),
            ("realize", "strict_witness"), ("realize", "rationalize"),
            ("bounds", "ilp_assignment_from_pointset"),
            ("geometry", "count_squares"), ("geometry", "decompose_at"),
            ("realize", "OrientedSquareSet.__post_init__")} <= names


@pytest.mark.parametrize("module,name,node", [
    pytest.param(module, name, node, id=f"{module}-{name}")
    for module, name, node in FUNCTIONS])
def test_no_assert_in_certificate_check(module, name, node):
    asserts = [sub.lineno for sub in ast.walk(node)
               if isinstance(sub, ast.Assert)
               or _raises_assertion_error(sub)]
    assert not asserts, f"{module}.py:{asserts} asserts in {name}"
