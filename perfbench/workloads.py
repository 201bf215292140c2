"""The four workloads: their inputs, operations and output checks.

A workload is a list of operations, each one public call into the
package, and a check over the outputs of one round of them.  Inputs are
made from the seed when the workload is built, which is part of the
timed set-up.  Operations look the package's functions up through the
module objects at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
import examples
from checks import require

import squarespan.beam as beam
import squarespan.bounds as bounds
import squarespan.corpus as corpus
import squarespan.extension as extension
import squarespan.geometry as geometry
import squarespan.realize as realize
from squarespan import tables

NAMES = ("enum-square12", "beam-w200", "realize-oss", "certify-corpus")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    # Why the operation fails today, for an operation kept although it
    # always fails; such a failure leaves the run correct.
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Raises checks.CheckError on a wrong output; gets outputs by op name.
    check: Callable[[dict], None]
    # Layer counts read from the outputs of one round (traced run only).
    layer_counts: Callable[[dict], dict] = field(default=lambda outputs: {})
    # How the workload's time follows the host's slowness s (see
    # hostspeed.py): it takes about s ** host_exponent times its time on
    # the reference host.  Measured per workload on the reference host;
    # the fits are in README.md, "Host speed".
    host_exponent: float = 1.0


def build(name: str, seed: int, serial: bool = False) -> Workload:
    """The workload with its inputs drawn from ``seed``.  ``serial`` runs
    the pool operation with one worker (the traced run needs that)."""
    records = corpus.load_default_corpus()
    rng = random.Random(seed)
    if name == "enum-square12":
        return _enum(serial)
    if name == "beam-w200":
        return _beam()
    if name == "realize-oss":
        return _realize(rng, records)
    if name == "certify-corpus":
        return _certify(rng, records)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


# ---------------------------------------------------------------------------
# enum-square12
# ---------------------------------------------------------------------------

POOL_OP = "square-2ext n<=11 pool"


def _enum(serial: bool) -> Workload:
    workers = 1 if serial else 2
    ops = [
        Op("square-2ext n<=12",
           lambda: extension.enumerate_classes("square-2ext", 12)),
        Op("neighborhood-2ext n<=12",
           lambda: extension.enumerate_classes("neighborhood-2ext", 12)),
        Op("rit-1ext n<=7",
           lambda: extension.enumerate_classes("rit-1ext", 7)),
        Op(POOL_OP, lambda: extension.enumerate_classes(
            "square-2ext", 11, threads=workers)),
    ]
    return Workload(ops, check_enum, _enum_counts, host_exponent=0.8)


def check_enum(out: dict) -> None:
    square = out["square-2ext n<=12"]
    checks.check_cells("square-2ext n<=12", square.entries,
                       checks.expected_cells(tables.SQUARE_2EXT_CLASSES, 12))
    nb = out["neighborhood-2ext n<=12"]
    nb_cells = checks.expected_cells(tables.NEIGHBORHOOD_2EXT_CLASSES, 12,
                                     tables.NEIGHBORHOOD_2EXT_CORRECTIONS)
    checks.check_cells("neighborhood-2ext n<=12", nb.entries, nb_cells)
    checks.check_delta_max("neighborhood-2ext n<=12", nb.delta_max,
                           tables.NEIGHBORHOOD_2EXT_CLASSES, nb_cells)
    checks.check_cells("rit-1ext n<=7", out["rit-1ext n<=7"].entries,
                       checks.expected_cells(tables.RIT_1EXT_CLASSES, 7))
    checks.check_cells(POOL_OP, out[POOL_OP].entries,
                       {c: v for c, v in square.entries.items() if c[0] <= 11})
    for label, table in out.items():
        require(table.complete, f"{label}: run stopped early")


def _enum_counts(out: dict) -> dict:
    return {"extension.classes":
            sum(sum(t.entries.values()) for t in out.values())}


# ---------------------------------------------------------------------------
# beam-w200
# ---------------------------------------------------------------------------

SQUARE_GATES = {18: 25, 19: 28, 20: 32, 21: 37, 22: 40}
RIT_GATES = {15: 85, 16: 97, 17: 112, 18: 124}


def _beam() -> Workload:
    ops = [
        Op("square n=22", lambda: beam.beam_search(
            beam.BeamConfig(mode="square", n_target=22, beam_width=200))),
        Op("rit n=18", lambda: beam.beam_search(
            beam.BeamConfig(mode="rit", n_target=18, beam_width=200))),
    ]
    return Workload(ops, check_beam, _beam_counts, host_exponent=0.85)


def check_beam(out: dict) -> None:
    checks.check_beam(out["square n=22"], "square", tables.SQUARE_EXACT,
                      SQUARE_GATES)
    checks.check_beam(out["rit n=18"], "rit", tables.RIT_EXACT, RIT_GATES)


def _beam_counts(out: dict) -> dict:
    levels = [lv for result in out.values() for lv in result.levels]
    return {f"beam.{k}": sum(getattr(lv, k) for lv in levels)
            for k in ("collected", "keyed", "distinct", "rebuilds")}


# ---------------------------------------------------------------------------
# realize-oss
# ---------------------------------------------------------------------------

# The drawn sets stop at 10 points: a maximal set of 11 or 12 points
# costs 3-5 s per is_realizable, which leaves one round per run and no
# room to damp the host's load swings (see README).
SEED_SIZES = (9, 10)


def seed_systems(rng: random.Random, records) -> dict:
    """Maximal oriented square sets, labelled in point order, of one
    corpus record per size in SEED_SIZES, drawn from the records whose
    squares cover every point (a point in no square is a free label,
    see README)."""
    out = {}
    for n in SEED_SIZES:
        pool = []
        for rec in records:
            if rec.n != n:
                continue
            pts = checks.record_points(rec)
            covered = {p for sq in checks.brute_squares(pts) for p in sq}
            if len(covered) == n:
                pool.append((rec.id, pts))
        rec_id, pts = rng.choice(pool)
        out[rec_id] = realize.oss_from_pointset(geometry.PointSet.of(pts))
    return out


def _realize(rng: random.Random, records) -> Workload:
    worked = {name: realize.OrientedSquareSet(order, squares)
              for name, (order, squares) in examples.WORKED.items()}
    drawn = seed_systems(rng, records)
    square_free = realize.OrientedSquareSet(*examples.SQUARE_FREE)
    ops = []
    for name, oss in {**worked, **drawn}.items():
        ops.append(Op(f"{name} is_realizable",
                      lambda oss=oss: realize.is_realizable(oss)))
    for name in examples.WITNESSED:
        ops.append(Op(f"{name} strict_witness",
                      lambda oss=worked[name]: realize.strict_witness(oss)))
    for name in examples.EMBEDDED:
        ops.append(Op(f"{name} grid_embed",
                      lambda oss=worked[name]: realize.grid_embed(oss)))
    ops.append(Op("square-free is_realizable",
                  lambda: realize.is_realizable(square_free),
                  known_fault="is_realizable gauges on the first square, "
                              "which a square-free system lacks"))

    spaces: dict = {}  # solution spaces the checks verify, kept across rounds

    def check(out: dict) -> None:
        if not spaces:
            for name, oss in {**worked, **drawn}.items():
                spaces[name] = realize.solve_space(oss)
            for name in examples.GAUGED_DIMENSIONS:
                spaces[name, "gauged"] = realize.solve_gauged(worked[name])
        check_realize(out, worked, drawn, square_free, spaces)

    return Workload(ops, check, host_exponent=0.72)


def check_realize(out: dict, worked: dict, drawn: dict, square_free,
                  spaces: dict) -> None:
    """Check one round's outputs.  ``spaces`` holds the solution space of
    each system and, under (name, "gauged"), the gauged spaces; they come
    from the package and are verified here before anything is checked
    against them."""
    for name, oss in {**worked, **drawn}.items():
        report = out[f"{name} is_realizable"]
        checks.check_report(oss, spaces[name], report, name)
    for name in examples.WITNESSED:
        checks.check_strict_witness(
            worked[name], out[f"{name} strict_witness"],
            out[f"{name} is_realizable"].forced_squares, name)
    for name in examples.EMBEDDED:
        checks.check_grid_embedding(worked[name], out[f"{name} grid_embed"],
                                    name)
    for name, dim in examples.DIMENSIONS.items():
        require(out[f"{name} is_realizable"].dimension == dim,
                f"{name}: dimension is not {dim}")
    for name, count in examples.DEGENERATE_PAIR_COUNTS.items():
        require(len(out[f"{name} is_realizable"].degenerate_pairs) == count,
                f"{name}: certificate does not have {count} pairs")
    for name, forced in examples.FORCED.items():
        require(out[f"{name} is_realizable"].forced_squares == forced,
                f"{name}: forced squares are not {forced}")
    for name, dim in examples.GAUGED_DIMENSIONS.items():
        oss = worked[name]
        space = spaces[name, "gauged"]
        checks.check_space(oss, space, gauge=oss.squares[0][:2])
        require(space.dimension == dim, f"{name}: gauged dimension is not {dim}")
    for name in drawn:
        report = out[f"{name} is_realizable"]
        require(report.realizable and report.forced_squares == (),
                f"{name}: a maximal oriented square set must be realizable "
                "without forced squares")
    report = out.get("square-free is_realizable")
    if report is not None:
        require(report.realizable and not report.degenerate_pairs
                and report.dimension == 2 * square_free.order,
                "square-free system: realizable of dimension 2 * order")
        checks.check_witness(square_free, report.witness, "square-free")


# ---------------------------------------------------------------------------
# certify-corpus
# ---------------------------------------------------------------------------

ROUTINES = ("count_squares", "count_rit", "count_axis_parallel_squares",
            "srit_minus_3sq", "squares_of")
RANDOM_SIZES = range(4, 13)
RANDOM_PER_SIZE = 25
WINDOW = 8
ILP_SIZES = (10, 12)
BOUND_SIZES = range(1, 101)


def random_sets(rng: random.Random) -> list:
    cells = [(x, y) for x in range(WINDOW) for y in range(WINDOW)]
    return [geometry.PointSet.of(rng.sample(cells, n))
            for n in RANDOM_SIZES for _ in range(RANDOM_PER_SIZE)]


def _certify(rng: random.Random, records) -> Workload:
    sets = random_sets(rng)
    rit_records = [rec for rec in records
                   if rec.family == "rit" and 8 <= rec.n <= 12]
    rit_sets = {rec.id: rec.point_set() for rec in rit_records}
    ops = [Op("verify_corpus", lambda: corpus.verify_corpus(records))]
    for n in BOUND_SIZES:
        ops.append(Op(f"square_bound_report {n}",
                      lambda n=n: bounds.square_bound_report(n)))
        ops.append(Op(f"rit_bound_report {n}",
                      lambda n=n: bounds.rit_bound_report(n)))
    for n in ILP_SIZES:
        ops.append(Op(f"ilp_export {n}", lambda n=n: bounds.ilp_export(n)))
    for rec_id, ps in rit_sets.items():
        ops.append(Op(f"ilp_assignment {rec_id}",
                      lambda ps=ps: bounds.ilp_assignment_from_pointset(ps)))
    for i, ps in enumerate(sets):
        for routine in ROUTINES:
            ops.append(Op(f"{routine} #{i}",
                          lambda r=routine, ps=ps: getattr(geometry, r)(ps)))
    brute: dict = {}  # brute-force counts, kept across rounds

    def check(out: dict) -> None:
        checks.check_verify_report(out["verify_corpus"], records)
        for n in BOUND_SIZES:
            checks.check_bound_report(out[f"square_bound_report {n}"], n)
            checks.check_bound_report(out[f"rit_bound_report {n}"], n)
        for n in ILP_SIZES:
            checks.check_lp(out[f"ilp_export {n}"], n)
        for rec_id, ps in rit_sets.items():
            checks.check_assignment(out[f"ilp_assignment {rec_id}"],
                                    ps.points, tables.RIT_EXACT)
        for i, ps in enumerate(sets):
            for routine in ROUTINES:
                key = (routine, i)
                if key not in brute:
                    brute[key] = checks.BRUTE_COUNTERS[routine](ps.points)
                got = out[f"{routine} #{i}"]
                require(got == brute[key], f"{routine} on random set #{i}: "
                        f"{got} != brute force {brute[key]}")

    return Workload(ops, check, host_exponent=0.86)
