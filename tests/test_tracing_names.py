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


def test_beam_search_calls_its_spans_through_the_module(monkeypatch):
    # Tracing swaps module attributes, so a span times nothing if the
    # search reaches the function through a local alias instead.
    beam = importlib.import_module("squarespan.beam")
    spanned = [attr for name in ("beam.expand", "beam.finalize",
                                 "beam.rebuild")
               for module, attr in _tables()["SPANS"][name]
               if module == "beam"]
    assert "_expand_beam_chunk" in spanned and "_finalize" in spanned
    calls = dict.fromkeys(spanned, 0)

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in spanned:
        monkeypatch.setattr(beam, attr, counting(attr, getattr(beam, attr)))
    # Square width 200 cuts its pool at n=12, so every span is reached.
    beam.beam_search(beam.BeamConfig(mode="square", n_target=12,
                                     beam_width=200))
    assert all(calls.values()), calls


def _callers(tree, callee):
    """The qualified names of the functions, methods included, that call
    ``callee`` by name; None for a call outside any function."""
    callers = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Name) \
                    and child.func.id == callee:
                callers.add(name)
            visit(child, name)

    visit(tree, None)
    return callers


REALIZE = Path(__file__).resolve().parents[1] / "src" / "squarespan" / "realize.py"
ELIMINATION = "_solve_affine"


def test_elimination_runs_inside_the_solve_span():
    # The realize.solve span times the solver only if every call of the
    # elimination routine sits in a function that the span wraps.
    spanned = {attr for module, attr in _tables()["SPANS"]["realize.solve"]
               if module == "realize"}
    tree = ast.parse(REALIZE.read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert ELIMINATION in defined
    callers = _callers(tree, ELIMINATION)
    assert callers, "no caller of the elimination routine found"
    assert callers <= spanned, sorted(map(str, callers - spanned))


FORM = "_form_on_space"
TABLE_BUILDER = "SolutionSpace.table"


def test_forms_are_written_only_by_the_label_table():
    # The realize.forms counter reads 2 * order per solution space only
    # while the label table is the one place that writes forms.
    assert _callers(ast.parse(REALIZE.read_text()), FORM) == {TABLE_BUILDER}
