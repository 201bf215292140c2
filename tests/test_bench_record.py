"""bench/record.py against a stub runner in a throwaway tree."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"

# Prints what perfbench/run.py prints: progress on stderr, then one JSON
# object as the last line of stdout.  Its metrics follow from the seed
# and from the tree's SCALE, so the medians are known in advance.
STUB = textwrap.dedent("""\
    import argparse, json, sys
    from pathlib import Path
    p = argparse.ArgumentParser()
    p.add_argument("--workload"); p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float); p.add_argument("--trace")
    a = p.parse_args()
    scale = float(Path("SCALE").read_text())
    print("perfbench: 3 round(s), median slowness 1.25", file=sys.stderr)
    print("a line before the result")
    failed = 1 if a.seed == 13 else 0
    print(json.dumps({"correct": failed == 0, "attempted": 4,
                      "failed": failed,
                      "metrics": {"wall_s": {"value": scale * a.seed,
                                             "unit": "s"},
                                  "peak_rss_mb": {"value": 20.0,
                                                  "unit": "MB"}}}))
    sys.exit(1 if failed else 0)
    """)


@pytest.fixture
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_tree(path: Path, scale: float) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "SCALE").write_text(str(scale))
    return path


def test_appends_baseline_then_tree_entry(record, tmp_path):
    old = stub_tree(tmp_path / "old", 2.0)
    new = stub_tree(tmp_path / "new", 1.0)
    argv = ["--workload", "w", "--seeds", "1", "2", "6", "--seconds", "1",
            "--tree", str(new), "--commit", "bbb",
            "--baseline", str(old), "--baseline-commit", "aaa",
            "--out", str(tmp_path)]
    assert record.main(argv) == 0
    history = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert [e["commit"] for e in history] == ["aaa", "bbb"]
    base, change = history
    assert base["seeds"] == change["seeds"] == [1, 2, 6]
    assert base["median"] == {"peak_rss_mb": 20.0, "wall_s": 4.0}
    assert change["median"] == {"peak_rss_mb": 20.0, "wall_s": 2.0}
    assert change["correct"] and change["failed"] == 0
    assert change["attempted"] == 12
    assert [r["slowness"] for r in change["runs"]] == [1.25] * 3

    # A second call appends; a failed operation marks the entry.
    assert record.main(["--workload", "w", "--seeds", "13",
                        "--tree", str(new), "--commit", "ccc",
                        "--out", str(tmp_path)]) == 1
    history = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert [e["commit"] for e in history] == ["aaa", "bbb", "ccc"]
    assert not history[-1]["correct"] and history[-1]["failed"] == 1


def test_tree_without_git_needs_a_commit(record, tmp_path):
    tree = stub_tree(tmp_path / "t", 1.0)
    with pytest.raises(SystemExit, match="--commit"):
        record.main(["--workload", "w", "--seeds", "1", "--tree", str(tree),
                     "--out", str(tmp_path)])


# enumerate_classes as the enum timer calls it: entries and complete.
ENUM_STUB = textwrap.dedent("""\
    from pathlib import Path
    from types import SimpleNamespace

    def enumerate_classes(mode, n_max):
        scale = int(Path("SCALE").read_text())
        return SimpleNamespace(entries={(n_max, 1): scale, (4, 1): 1},
                               complete=mode == "square-2ext")
    """)


def enum_tree(path: Path, scale: int) -> Path:
    pkg = path / "src" / "squarespan"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "extension.py").write_text(ENUM_STUB)
    (path / "SCALE").write_text(str(scale))
    return path


def test_enum_run_appends_to_tables_history(record, tmp_path):
    old = enum_tree(tmp_path / "old", 5)
    new = enum_tree(tmp_path / "new", 7)
    argv = ["--enum", "square-2ext", "9", "--tree", str(new),
            "--commit", "bbb", "--baseline", str(old),
            "--baseline-commit", "aaa", "--out", str(tmp_path)]
    assert record.main(argv) == 0
    history = json.loads((tmp_path / "BENCH_tables.json").read_text())
    assert [e["commit"] for e in history] == ["aaa", "bbb"]
    assert [e["classes"] for e in history] == [6, 8]
    for e in history:
        assert e["mode"] == "square-2ext" and e["n_max"] == 9
        assert e["complete"] and e["wall_s"] >= 0 and e["peak_rss_mb"] > 0

    assert record.main(["--enum", "rit-1ext", "9", "--tree", str(new),
                        "--commit", "ccc", "--out", str(tmp_path)]) == 1
    history = json.loads((tmp_path / "BENCH_tables.json").read_text())
    assert not history[-1]["complete"]


def test_workload_needs_seeds(record, tmp_path):
    with pytest.raises(SystemExit):
        record.main(["--workload", "w", "--out", str(tmp_path)])
