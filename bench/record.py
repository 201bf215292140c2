"""Append benchmark runs to the committed performance history.

    python3 bench/record.py --workload beam-w200 --seeds 311 312 313 \
        --seconds 30 [--baseline OLD_TREE --baseline-commit SHA]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a source tree once per seed, and appends one entry to
``BENCH_<workload>.json`` at the root of this repository.  An entry
holds the tree's commit, the seeds, the median over the seeds of every
metric the runs report, each run's metrics and the host slowness its
runner measured, whether every run passed its checks, and how many
operations were attempted and failed.

With ``--baseline`` a second source tree, typically a checkout of an
earlier commit, runs the same seeds.  The two trees alternate seed by
seed, so that a slow spell of the host falls on both, and which tree
runs first alternates too: the baseline runs first on the 1st, 3rd, ...
seed and second on the others, so that a drift within a pair falls on
each side as often.  The baseline's entry is appended before the
tree's, and each entry lists its runs in seed order.

A tree with uncommitted changes is recorded as its HEAD commit with a
``-dirty`` suffix; ``--commit`` names the commit outright.

    python3 bench/record.py --enum square-2ext 13 [--threads 2] \
        [--baseline OLD_TREE]

times one long enumeration instead: ``enumerate_classes(MODE, N_MAX,
threads=THREADS)`` runs once per tree in a fresh ``python3`` process on
the tree's ``src``, and one entry per tree goes to ``BENCH_tables.json``:
the commit, the mode, n_max and threads, the call's wall time, the
process's peak RSS (the calling process only, pool workers aside), the
number of classes and whether the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SLOWNESS = re.compile(r"median slowness ([0-9.]+)")

# Prints one JSON line: the call's wall time, the peak RSS, the classes.
_ENUM = """
import json, resource, sys, time
from squarespan.extension import enumerate_classes
start = time.perf_counter()
table = enumerate_classes(sys.argv[1], int(sys.argv[2]),
                          threads=int(sys.argv[3]))
wall = time.perf_counter() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"wall_s": round(wall, 2),
                  "peak_rss_mb": round(rss_kb / 1024, 1),
                  "classes": sum(table.entries.values()),
                  "complete": table.complete}))
"""


def tree_commit(tree: Path) -> str:
    """HEAD of the git checkout at ``tree``, suffixed ``-dirty`` when a
    tracked file differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"record: {tree} is not a git checkout; "
                         "name its commit with --commit") from None
    return head + ("-dirty" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: {"seed", "slowness", "correct", "attempted",
    "failed", "metrics": {name: value}}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"record: no output from {' '.join(cmd)} in "
                         f"{tree}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    slowness = _SLOWNESS.search(proc.stderr)
    return {
        "seed": seed,
        "slowness": float(slowness.group(1)) if slowness else None,
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"]
                    for name, m in result["metrics"].items()},
    }


def now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def run_enum(tree: Path, commit: str, mode: str, n_max: int,
             threads: int) -> dict:
    """The BENCH_tables.json entry of one enumeration run in ``tree``."""
    cmd = [sys.executable, "-c", _ENUM, mode, str(n_max), str(threads)]
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"record: enumerate_classes({mode!r}, {n_max}) "
                         f"failed in {tree}:\n{proc.stderr}")
    return {"commit": commit, "recorded": now(), "mode": mode,
            "n_max": n_max, "threads": threads, **json.loads(lines[-1])}


def entry(commit: str, workload: str, seconds: float, runs: list) -> dict:
    """The history entry of one tree's runs."""
    names = sorted({name for r in runs for name in r["metrics"]})
    return {
        "commit": commit,
        "recorded": now(),
        "workload": workload,
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "median": {name: statistics.median(r["metrics"][name] for r in runs
                                           if name in r["metrics"])
                   for name in names},
        "runs": runs,
    }


def append(path: Path, entries: list) -> None:
    history = json.loads(path.read_text()) if path.exists() else []
    history.extend(entries)
    path.write_text(json.dumps(history, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--enum", nargs=2, metavar=("MODE", "N_MAX"),
                      help="time enumerate_classes(MODE, N_MAX) instead")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes of the --enum run")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="source tree to run (default: this one)")
    parser.add_argument("--commit", help="commit of --tree (default: git)")
    parser.add_argument("--baseline", type=Path,
                        help="second source tree, run alternately")
    parser.add_argument("--baseline-commit",
                        help="commit of --baseline (default: git)")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory of the BENCH_*.json files")
    args = parser.parse_args(argv)
    if args.workload is not None and not args.seeds:
        parser.error("--workload needs --seeds")
    if args.enum is not None and not args.enum[1].isdigit():
        parser.error("--enum needs an integer N_MAX")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.threads != 1 and args.enum is None:
        parser.error("--threads applies to --enum only")

    trees = [(args.tree, args.commit or tree_commit(args.tree))]
    if args.baseline is not None:
        trees.insert(0, (args.baseline,
                         args.baseline_commit or tree_commit(args.baseline)))
    if args.enum is not None:
        mode, n_max = args.enum[0], int(args.enum[1])
        entries = []
        for tree, commit in trees:
            entries.append(run_enum(tree, commit, mode, n_max,
                                    args.threads))
            print(f"record: {tree}: {entries[-1]}", file=sys.stderr)
        append(args.out / "BENCH_tables.json", entries)
        return 0 if all(e["complete"] for e in entries) else 1
    runs = [[] for _ in trees]
    for k, seed in enumerate(args.seeds):
        pairs = list(zip(trees, runs))
        for (tree, _), tree_runs in pairs if k % 2 == 0 else pairs[::-1]:
            run = run_once(tree, args.workload, seed, args.seconds)
            tree_runs.append(run)
            print(f"record: {tree} seed {seed}: wall_s "
                  f"{run['metrics'].get('wall_s')}", file=sys.stderr)
    entries = [entry(commit, args.workload, args.seconds, tree_runs)
               for (_, commit), tree_runs in zip(trees, runs)]
    append(args.out / f"BENCH_{args.workload}.json", entries)
    return 0 if all(e["correct"] for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
