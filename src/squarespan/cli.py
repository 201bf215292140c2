"""Batch command-line front end.

One subcommand per capability: counting, canonical forms, extension
enumeration, beam search, realizability, bounds, LP export, corpus
verification, and grid rendering.  Output goes to stdout and is
deterministic for fixed flags; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.

Point-set input is either grid text (rows over 'x' and '.', as in the
shipped corpus; '/' may separate rows in ``--text``) or one "x,y"
integer coordinate pair per line.  Grid cell (row, col) maps to the
point (col, -row), so the text reads the way the set is drawn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from squarespan.beam import BEAM_MODES, BeamConfig, beam_search
from squarespan.bounds import (
    ILP_VARIANTS,
    ilp_export,
    rit_bound_report,
    square_bound_report,
)
from squarespan.corpus import (
    CorpusParseError,
    grid_points,
    load_default_corpus,
    parse_corpus,
    render_corpus,
    render_grid,
    verify_corpus,
)
from squarespan.extension import MODES as ENUM_MODES
from squarespan.extension import enumerate_classes
from squarespan.geometry import (
    PointSet,
    count_axis_parallel_squares,
    count_rit,
    count_squares,
    srit_minus_3sq,
)
from squarespan.realize import is_realizable, parse_oss
from squarespan.similarity import canonical_key, normalize_to_grid


def _default_threads() -> int:
    value = os.environ.get("SQUARESPAN_THREADS", "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"SQUARESPAN_THREADS={value!r} is not an integer") from None


def _read_text(args) -> str:
    if getattr(args, "text", None) is not None:
        return args.text.replace("/", "\n")
    if args.input == "-":
        return sys.stdin.read()
    with open(args.input, encoding="ascii") as handle:
        return handle.read()


def _parse_points(text: str) -> PointSet:
    """Accept grid text or "x,y" coordinate lines."""
    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ValueError("empty input")
    if all(set(ln) <= {"x", "."} for ln in lines):
        pts = grid_points(lines)
        if not pts:
            raise ValueError("grid contains no 'x' cells")
        return PointSet.of(pts)
    pts = []
    for ln in lines:
        parts = ln.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected 'x,y' coordinates, got {ln!r}")
        pts.append((int(parts[0]), int(parts[1])))
    return PointSet.of(pts)


def _fraction_str(value) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    ps = _parse_points(_read_text(args))
    values = {
        "n": len(ps),
        "squares": count_squares(ps),
        "rit": count_rit(ps),
        "axis": count_axis_parallel_squares(ps),
        "mixed": srit_minus_3sq(ps),
    }
    if args.json:
        print(json.dumps(values, indent=2))
    else:
        for name, value in values.items():
            print(f"{name}={value}")
    return 0


def _cmd_canon(args) -> int:
    ps = _parse_points(_read_text(args))
    key = canonical_key(ps)
    grid = render_grid(normalize_to_grid(ps))
    if args.json:
        print(json.dumps({"key": key.text, "grid": grid}, indent=2))
    else:
        print(f"key={key.text}")
        for row in grid:
            print(row)
    return 0


def _print_enum_level(stat) -> None:
    print(f"level n={stat.n}: parents={stat.parents} keys={stat.keys} "
          f"stored={stat.stored} seconds={stat.seconds} "
          f"rss_mb={stat.rss_mb}", file=sys.stderr)


def _cmd_enum(args) -> int:
    threads = _default_threads() if args.threads is None else args.threads
    table = enumerate_classes(args.mode, args.n_max, threads=threads,
                              max_level_classes=args.max_level_classes,
                              on_level=_print_enum_level)
    if not table.complete:
        print(f"squarespan enum: stopped early: {table.note}",
              file=sys.stderr)
    if args.json:
        entries = [{"n": n, "m": m, "classes": c}
                   for (n, m), c in sorted(table.entries.items())]
        if table.delta_max is not None:
            for entry in entries:
                entry["delta_max"] = table.delta_max.get(
                    (entry["n"], entry["m"]), 0)
        print(json.dumps({"mode": table.mode, "entries": entries,
                          "complete": table.complete, "note": table.note,
                          "levels": [asdict(lv) for lv in table.levels]},
                         indent=2))
    else:
        sys.stdout.write(table.to_tsv())
    return 0


def _cmd_beam(args) -> int:
    cfg = BeamConfig(mode=args.mode, n_target=args.n, beam_width=args.width)
    result = beam_search(cfg)
    for stat in result.levels:
        print(f"level n={stat.n}: collected={stat.collected} "
              f"distinct={stat.distinct} retained={stat.retained} "
              f"best={stat.best}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "mode": cfg.mode, "width": cfg.beam_width,
            "n_target": cfg.n_target,
            "best": {str(n): result.best[n] for n in sorted(result.best)},
            "witnesses": {str(r.n): r.grid
                          for r in result.witness_records()},
        }, indent=2))
        return 0
    print(f"# mode={cfg.mode} width={cfg.beam_width} "
          f"n_target={cfg.n_target}")
    sys.stdout.write(result.to_tsv())
    if not args.no_witnesses:
        sys.stdout.write(render_corpus(result.witness_records()))
    return 0


def _cmd_realize(args) -> int:
    oss = parse_oss(_read_text(args))
    report = is_realizable(oss)
    if args.json:
        print(report.to_json())
        return 0
    print(f"order={oss.order}")
    print(f"squares={len(oss.squares)}")
    print(f"realizable={'true' if report.realizable else 'false'}")
    print(f"dimension={report.dimension}")
    if report.degenerate_pairs:
        pairs = " ".join(f"{j}~{k}" for j, k in report.degenerate_pairs)
        print(f"degenerate_pairs={pairs}")
    if report.forced_squares:
        quads = " ".join("-".join(map(str, q))
                         for q in report.forced_squares)
        print(f"forced_squares={quads}")
    if report.witness is not None:
        coords = " ".join(f"{_fraction_str(x)},{_fraction_str(y)}"
                          for x, y in report.witness)
        print(f"witness={coords}")
    return 0


def _cmd_bounds(args) -> int:
    report = (square_bound_report(args.n) if args.mode == "square"
              else rit_bound_report(args.n))
    if args.json:
        print(report.to_json())
        return 0
    for name, value in report.values.items():
        print(f"{name}={value}")
    print(f"best_upper={report.best_upper}")
    if report.best_lower is not None:
        print(f"best_lower={report.best_lower}")
    return 0


def _cmd_ilp(args) -> int:
    text = ilp_export(args.n, args.variant)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_corpus_verify(args) -> int:
    if args.corpus:
        with open(args.corpus, encoding="ascii") as handle:
            records = parse_corpus(handle.read())
    else:
        records = load_default_corpus()
    report = verify_corpus(records)
    if args.json:
        print(json.dumps({
            "passed": report.passed,
            "records": [{"id": r.id, "passed": r.passed,
                         "computed": r.computed, "expected": r.expected}
                        for r in report.records],
            "tallies": [{"family": t.family, "n": t.n, "found": t.found,
                         "expected": t.expected, "passed": t.passed}
                        for t in report.tallies],
            "collisions": [{"family": c.family, "n": c.n,
                            "a": c.id_a, "b": c.id_b}
                           for c in report.collisions],
        }, indent=2))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    ps = _parse_points(_read_text(args))
    for row in render_grid(normalize_to_grid(ps)):
        print(row)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_input_args(sub) -> None:
    sub.add_argument("input", nargs="?", default="-",
                     help="input file, or '-' for stdin")
    sub.add_argument("--text", help="inline input; '/' separates grid rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squarespan",
        description="Exact search and verification for plane point sets "
                    "spanning many squares or isosceles right triangles.")
    parser.add_argument("--json", action="store_true",
                        help="structured JSON output")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="count squares, rits, axis-parallel "
                                        "squares and the mixed score")
    _add_input_args(sub)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("canon", help="canonical similarity key and "
                                        "normalized grid")
    _add_input_args(sub)
    sub.set_defaults(func=_cmd_canon)

    sub = subs.add_parser("enum", help="isomorph-free extension enumeration")
    sub.add_argument("--mode", choices=ENUM_MODES, required=True)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--threads", type=int,
                     help="worker processes (default $SQUARESPAN_THREADS, 1)")
    sub.add_argument("--max-level-classes", type=int, metavar="N",
                     help="stop when a level would hold more than N "
                          "classes; the output then reports the run as "
                          "incomplete")
    sub.set_defaults(func=_cmd_enum)

    sub = subs.add_parser("beam", help="beam-search lower bounds")
    sub.add_argument("--mode", choices=BEAM_MODES, required=True)
    sub.add_argument("--n", type=int, required=True,
                     help="largest point count to reach")
    sub.add_argument("--width", type=int, default=200)
    sub.add_argument("--no-witnesses", action="store_true",
                     help="omit witness grids from the output")
    sub.set_defaults(func=_cmd_beam)

    sub = subs.add_parser("realize", help="exact realizability of an "
                                          "oriented square set")
    _add_input_args(sub)
    sub.set_defaults(func=_cmd_realize)

    sub = subs.add_parser("bounds", help="bound report for one n")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mode", choices=("square", "rit"), default="square")
    sub.set_defaults(func=_cmd_bounds)

    sub = subs.add_parser("ilp", help="export the rit-count program as an "
                                      "LP file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--variant", choices=ILP_VARIANTS, default="base")
    sub.add_argument("--output", "-o", help="output path ('-' = stdout)")
    sub.set_defaults(func=_cmd_ilp)

    sub = subs.add_parser("corpus-verify", help="verify the record corpus")
    sub.add_argument("--corpus", help="path overriding the shipped corpus")
    sub.set_defaults(func=_cmd_corpus_verify)

    sub = subs.add_parser("render", help="render points as grid text")
    _add_input_args(sub)
    sub.set_defaults(func=_cmd_render)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. head); not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, CorpusParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
