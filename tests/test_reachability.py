"""Library functions that nothing but the tests reaches must be named.

A top-level function of ``src/squarespan`` is reached when other package
code names it, when ``squarespan.__all__`` exports it, or when a
benchmark script (``perfbench/`` and ``bench/``, test modules aside)
names it, as code or as a string such as a traced (module, function)
pair.  Every other function is test-only.  The test-only functions must
be exactly the oracles listed below, so new code that nothing reaches
fails here until it gets a caller, or a reason to stay, or is deleted.

The check is one level deep: a function named only by a listed oracle
counts as reached.

A second check scans ``src/``, ``tests/`` and ``bench/`` for imported
names that the importing file never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "squarespan"
SCRIPTS = [path for folder in ("perfbench", "bench")
           for path in sorted((ROOT / folder).glob("*.py"))
           if not path.name.startswith("test_") and path.name != "conftest.py"]

# Test-only functions kept on purpose, each with the reason it stays.
TEST_ONLY = {
    "averaging_rit": "bound helper, awaiting the exact-value derivation",
    "averaging_square_subconfig": "bound helper, awaiting the derivation",
    "averaging_square_upper": "bound helper, awaiting the derivation",
    "degree_bounds": "bound helper, awaiting the derivation",
    "mixed_square_upper": "bound helper, awaiting the derivation",
    "a_n_6_4": "bound helper, awaiting the derivation",
    "hamming13_upper": "bound helper, awaiting the derivation",
    "one_extensions": "single-step oracle of the beam's reference search",
    "two_extensions": "single-step oracle of the beam's reference search",
    "count_rit_subsets": "subset-scan oracle of count_rit",
    "count_squares_subsets": "subset-scan oracle of count_squares",
    "leftmost_edge_conflicts": "pair-role oracle of the square counts",
    "similarity_image": "exact similarity images for the key tests",
}


def _names(node, skip=None):
    """Identifiers that ``node`` mentions: names, attributes, imported
    names and string constants.  References inside the top-level
    function ``skip`` to its own name do not count."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    if skip is not None:
        found.discard(skip)
    return found


def _functions_and_references():
    """The package's top-level function names, and every identifier
    that reaches one.  The package's own imports in ``__init__.py``
    reach nothing; its ``__all__`` does."""
    defined = set()
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                named |= _names(node, skip=node.name)
            elif path.name != "__init__.py" or isinstance(node, ast.Assign):
                named |= _names(node)
    for path in SCRIPTS:
        named |= _names(ast.parse(path.read_text()))
    return defined, named


def test_test_only_functions_are_the_listed_oracles():
    defined, named = _functions_and_references()
    unreached = {name for name in defined if name not in named}
    assert unreached == set(TEST_ONLY), (
        f"reached by tests only, and not listed: "
        f"{sorted(unreached - set(TEST_ONLY))}; listed but reached "
        f"or gone: {sorted(set(TEST_ONLY) - unreached)}")


def test_scan_sees_the_package_and_the_benchmark():
    defined, named = _functions_and_references()
    assert {"centered_key", "enumerate_classes", "strict_witness",
            "_rebuild_pool"} <= defined
    # reached from perfbench only, as a traced name or an operation
    assert "strict_witness" in named and "is_1ext_obtainable" in named
    assert SCRIPTS and all("test_" not in p.name for p in SCRIPTS)


def _unused_imports(tree) -> list[str]:
    """Names that ``tree`` imports and never reads; a name listed in
    the module's ``__all__`` counts as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted(imported - used)


def test_no_unused_imports():
    files = [path for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 20
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert not unused, unused


def test_unused_import_scan_sees_what_it_should():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, json\n"
                     "from a import b, c as d\n"
                     "__all__ = ['b']\n"
                     "os.path.join(d)\n")
    assert _unused_imports(tree) == ["json"]
