"""Tests of the benchmark itself: every check accepts a correct output
and rejects the same output with one value corrupted.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import examples
import hostspeed
import run
import workloads
from checks import CheckError
from squarespan import beam, bounds, geometry, realize, tables
from squarespan.extension import EnumTable

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# enum-square12
# ---------------------------------------------------------------------------


def paper_enum_outputs():
    """Outputs of one enum-square12 round, built from the paper's tables."""
    nb_table = tables.NEIGHBORHOOD_2EXT_CLASSES
    nb_cells = checks.expected_cells(nb_table, 12,
                                     tables.NEIGHBORHOOD_2EXT_CORRECTIONS)
    return {
        "square-2ext n<=12": EnumTable(
            "square-2ext",
            checks.expected_cells(tables.SQUARE_2EXT_CLASSES, 12)),
        "neighborhood-2ext n<=12": EnumTable(
            "neighborhood-2ext", nb_cells,
            delta_max={c: nb_table[c][1] for c in nb_cells}),
        "rit-1ext n<=7": EnumTable(
            "rit-1ext", checks.expected_cells(tables.RIT_1EXT_CLASSES, 7)),
        workloads.POOL_OP: EnumTable(
            "square-2ext",
            checks.expected_cells(tables.SQUARE_2EXT_CLASSES, 11)),
    }


def test_enum_check_accepts_paper_tables():
    workloads.check_enum(paper_enum_outputs())


@pytest.mark.parametrize("op,cell", [
    ("square-2ext n<=12", (12, 5)),
    ("neighborhood-2ext n<=12", (10, 6)),
    ("rit-1ext n<=7", (7, 15)),
    (workloads.POOL_OP, (11, 8)),
])
def test_enum_check_rejects_cell_off_by_one(op, cell):
    out = paper_enum_outputs()
    out[op].entries[cell] += 1
    with pytest.raises(CheckError):
        workloads.check_enum(out)


def test_enum_check_rejects_wrong_delta_max():
    out = paper_enum_outputs()
    out["neighborhood-2ext n<=12"].delta_max[(12, 9)] -= 1
    with pytest.raises(CheckError):
        workloads.check_enum(out)


def test_enum_check_rejects_uncorrected_cell():
    out = paper_enum_outputs()
    out["neighborhood-2ext n<=12"].entries[(10, 6)] = 5
    with pytest.raises(CheckError):
        workloads.check_enum(out)


# ---------------------------------------------------------------------------
# beam-w200
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_beams():
    return {
        "square": beam.beam_search(beam.BeamConfig("square", 12, 30)),
        "rit": beam.beam_search(beam.BeamConfig("rit", 10, 30)),
    }


EXACT = {"square": tables.SQUARE_EXACT, "rit": tables.RIT_EXACT}


@pytest.mark.parametrize("mode", ["square", "rit"])
def test_beam_check_accepts_search_output(small_beams, mode):
    checks.check_beam(small_beams[mode], mode, EXACT[mode], {})


@pytest.mark.parametrize("mode", ["square", "rit"])
def test_beam_check_rejects_moved_witness_point(small_beams, mode):
    result = copy.deepcopy(small_beams[mode])
    n = result.config.n_target
    origin = result.witness_origin[n]
    pts = list(result.witnesses[n].points)
    if mode == "square":
        on_figure = {p for sq in checks.brute_squares(pts) for p in sq}
    else:
        on_figure = {p for t in itertools.combinations(pts, 3)
                     if checks.is_rit3(t) for p in t}
    i = next(i for i, p in enumerate(pts) if p in on_figure)
    pts[i] = (pts[i][0] + 10 ** 6, pts[i][1])
    moved = geometry.PointSet.of(pts)
    for m, o in result.witness_origin.items():
        if o == origin:
            result.witnesses[m] = moved
    with pytest.raises(CheckError):
        checks.check_beam(result, mode, EXACT[mode], {})


def test_beam_check_rejects_value_above_exact(small_beams):
    result = copy.deepcopy(small_beams["square"])
    result.best[12] = tables.SQUARE_EXACT[12] + 1
    with pytest.raises(CheckError):
        checks.check_beam(result, "square", EXACT["square"], {})


def test_beam_check_rejects_missed_record(small_beams):
    with pytest.raises(CheckError):
        checks.check_beam(small_beams["square"], "square", EXACT["square"],
                          {12: tables.SQUARE_EXACT[12] + 1})


# ---------------------------------------------------------------------------
# realize-oss
# ---------------------------------------------------------------------------


def oss_of(data):
    return realize.OrientedSquareSet(*data)


@pytest.fixture(scope="module")
def three_squares():
    oss = oss_of(examples.THREE_SQUARES_9)
    return oss, realize.solve_space(oss)


def test_space_check_accepts_solver_output(three_squares):
    oss, space = three_squares
    assert checks.check_space(oss, space) == 6


def test_space_check_rejects_perturbed_basis_vector(three_squares):
    oss, space = three_squares
    basis = [list(v) for v in space.basis]
    basis[0][0] += 1
    bad = realize.SolutionSpace(space.particular,
                                tuple(map(tuple, basis)), space.gauge)
    with pytest.raises(CheckError):
        checks.check_space(oss, bad)


def test_space_check_rejects_missing_basis_vector(three_squares):
    oss, space = three_squares
    bad = realize.SolutionSpace(space.particular, space.basis[:-1],
                                space.gauge)
    with pytest.raises(CheckError):
        checks.check_space(oss, bad)


def test_gauged_space_check():
    oss = oss_of(examples.TWO_SQUARES_7)
    space = realize.solve_gauged(oss)
    gauge = oss.squares[0][:2]
    checks.check_space(oss, space, gauge=gauge)
    moved = list(space.particular)
    moved[1] += 1
    with pytest.raises(CheckError):
        checks.check_space(oss, realize.SolutionSpace(
            tuple(moved), space.basis, space.gauge), gauge=gauge)


def test_report_check_rejects_dropped_degenerate_pair():
    oss = oss_of(examples.FIVE_SQUARES_10)
    space = realize.solve_space(oss)
    report = realize.RealizabilityReport(
        realizable=False, dimension=2, witness=None,
        degenerate_pairs=checks.degenerate_pairs_of(oss.order, space),
        forced_squares=())
    checks.check_report(oss, space, report, "five")
    bad = realize.RealizabilityReport(
        realizable=False, dimension=2, witness=None,
        degenerate_pairs=report.degenerate_pairs[1:], forced_squares=())
    with pytest.raises(CheckError):
        checks.check_report(oss, space, bad, "five")


def test_witness_checks_reject_moved_point():
    oss = oss_of(examples.TWO_SQUARES_7)
    witness = realize.strict_witness(oss)
    checks.check_strict_witness(oss, witness, (), "two")
    moved = list(witness)
    moved[2] = (moved[2][0] + Fraction(1, 3), moved[2][1])
    with pytest.raises(CheckError):
        checks.check_witness(oss, moved, "two")
    with pytest.raises(CheckError):
        checks.check_strict_witness(oss, moved, (), "two")


def test_strict_witness_check_rejects_extra_square():
    # A forced square the witness does not span.
    oss = oss_of(examples.TWO_SQUARES_7)
    witness = realize.strict_witness(oss)
    with pytest.raises(CheckError):
        checks.check_strict_witness(oss, witness, ((1, 2, 5, 6),), "two")


# ---------------------------------------------------------------------------
# certify-corpus
# ---------------------------------------------------------------------------


def test_lp_check_accepts_export():
    checks.check_lp(bounds.ilp_export(6), 6)


@pytest.mark.parametrize("drop", [" ext4_", " sub_", " chain_", " y_"])
def test_lp_check_rejects_changed_count(drop):
    lines = bounds.ilp_export(6).splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(drop))
    with pytest.raises(CheckError):
        checks.check_lp("".join(lines[:i] + lines[i + 1:]), 6)


@pytest.mark.parametrize("n", [5, 7])
def test_closed_forms_match_program(n):
    x_keys, y_keys = bounds.ilp_variables(n)
    families = [c.name.split("_", 1)[0] for c in bounds.ilp_constraints(n)]
    assert checks.ilp_closed_forms(n) == {
        "x": len(x_keys), "y": len(y_keys),
        **{f: families.count(f) for f in ("sub", "ext4", "chain")}}


def test_assignment_check_rejects_wrong_objective():
    rec = next(r for r in workloads.corpus.load_default_corpus()
               if r.family == "rit" and r.n == 8)
    ps = rec.point_set()
    assignment = bounds.ilp_assignment_from_pointset(ps)
    checks.check_assignment(assignment, ps.points, tables.RIT_EXACT)
    bad = dataclasses.replace(assignment, objective=assignment.objective + 1)
    with pytest.raises(CheckError):
        checks.check_assignment(bad, ps.points, tables.RIT_EXACT)


@pytest.mark.parametrize("routine", workloads.ROUTINES)
def test_counters_agree_with_package(routine):
    for ps in workloads.random_sets(random.Random(5))[::7]:
        assert getattr(geometry, routine)(ps) == \
            checks.BRUTE_COUNTERS[routine](ps.points)


def test_fast_counters_agree_with_brute_force():
    grid = [(x, y) for x in range(4) for y in range(4)]
    assert checks.squares_by_edges(grid) == len(checks.brute_squares(grid)) \
        == 20
    assert checks.rits_by_apex(grid) == checks.brute_rits(grid)
    assert checks.axis_squares_by_rows(grid) == \
        checks.brute_axis_squares(grid) == 14


def test_bound_report_check_rejects_crossed_bounds():
    report = bounds.square_bound_report(30)
    checks.check_bound_report(report, 30)
    bad = bounds.BoundReport(30, report.values, report.best_lower - 1,
                             report.best_lower)
    with pytest.raises(CheckError):
        checks.check_bound_report(bad, 30)


# ---------------------------------------------------------------------------
# The runner and BENCHMARK.json
# ---------------------------------------------------------------------------


def tiny_workload():
    ps = geometry.PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
    ops = [workloads.Op("count", lambda: geometry.count_squares(ps))]

    def check(out):
        checks.require(out["count"] == 1, "one square")

    return workloads.Workload(ops, check)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        correct, _, e2e = run.timed_run(tiny_workload(), 0.0, sampler)
    finally:
        sampler.stop()
    assert correct
    assert set(e2e) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    correct, _, layers = run.traced_run(tiny_workload())
    assert correct
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layers}.items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)


def test_tracer_restores_package_functions():
    before = geometry.count_squares
    correct, _, layers = run.traced_run(tiny_workload())
    assert geometry.count_squares is before
    assert layers["geometry.count.calls"][0] == 1


def test_sampler_windows():
    sampler = hostspeed.Sampler()
    sampler.at = [1.0, 2.0, 3.0, 4.0]
    sampler.took = [0.1, 0.2, 0.3, 0.4]
    sampler.slowness = [1.0, 3.0, 2.0, 9.0]
    assert sampler.spent_in(1.5, 3.5) == pytest.approx(0.5)
    assert sampler.spent_in(4.5, 5.0) == 0.0
    assert sampler.around(1.9, 3.1, 0.0) == 2.5  # median of 3.0 and 2.0
    assert sampler.around(2.4, 2.5, 0.0) == 3.0  # widened to the sample at 2
    assert sampler.around(5.0, 5.0, 0.5) == 9.0  # widened to the sample at 4


def test_failed_operations_are_counted():
    ops = [workloads.Op("known", lambda: 1 // 0, known_fault="divides by 0"),
           workloads.Op("new", lambda: 1 // 0),
           workloads.Op("fine", lambda: 1)]
    workload = workloads.Workload(ops, lambda out: None)
    rnd = run.run_round(workload)
    assert (rnd.failed, rnd.unexpected, list(rnd.outputs)) == (2, 1, ["fine"])
    assert not run.checked(workload, rnd)
