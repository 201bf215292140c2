import hashlib
import json
import math
import random
import re

import pytest

import squarespan.bounds
from squarespan.bounds import (
    ILP_VARIANTS,
    a_n_6_4,
    averaging_rit,
    averaging_square_subconfig,
    averaging_square_upper,
    degree_bounds,
    hamming13_upper,
    ilp_assignment_from_pointset,
    ilp_constraints,
    ilp_export,
    ilp_variables,
    mixed_square_upper,
    rit_bound_report,
    rit_upper,
    square_bound_report,
    square_upper,
)
from squarespan.extension import is_1ext_obtainable
from squarespan.geometry import PointSet, count_rit, is_rit
from squarespan.tables import (
    RIT_EXACT,
    RIT_LOWER,
    SQUARE_EXACT,
    SQUARE_LOWER,
    rit_lower_bound,
    square_lower_bound,
)


class TestClosedForms:
    def test_rit_upper_examples(self):
        assert rit_upper(9) == {"trivial": 72, "improved": 41}
        assert rit_upper(14) == {"trivial": 182, "improved": 111}

    def test_square_upper_examples(self):
        assert square_upper(9) == {"pairs": 18, "eighth": 10}
        assert square_upper(17) == {"pairs": 68, "eighth": 36}

    def test_exact_values_respect_upper_bounds(self):
        for n, v in RIT_EXACT.items():
            assert v <= rit_upper(n)["improved"]
        for n, v in SQUARE_EXACT.items():
            assert v <= square_upper(n)["eighth"]

    def test_lower_tables_respect_upper_bounds(self):
        for n, v in RIT_LOWER.items():
            assert v <= rit_upper(n)["improved"]
        for n, v in SQUARE_LOWER.items():
            assert v <= square_upper(n)["eighth"]


class TestAveraging:
    def test_rit_transfer(self):
        # every 9-subset carries at most 28 rits => at most 40 on 10 points
        assert averaging_rit(10, 9, 28) == 40

    def test_rit_transfer_validates(self):
        with pytest.raises(ValueError):
            averaging_rit(8, 8, 20)
        with pytest.raises(ValueError):
            averaging_rit(8, 2, 1)

    def test_square_subconfig_guarantee(self):
        # 14 points with 14 squares contain 13 points with at least 10
        assert averaging_square_subconfig(14, 13, 14) == 10
        # and 11 squares are forced on some 13-subset when there are 15
        assert averaging_square_subconfig(14, 13, 15) == 11

    def test_square_transfer(self):
        # cap 8 on every 13-subset caps 14 points at 11
        assert averaging_square_upper(14, 13, 8) == 11
        assert averaging_square_upper(13, 12, 8) == 11

    def test_transfer_is_contrapositive_of_guarantee(self):
        for n, n_sub in [(10, 8), (14, 13), (17, 12)]:
            for b in range(1, 30):
                cap = averaging_square_upper(n, n_sub, b)
                assert averaging_square_subconfig(n, n_sub, cap) <= b
                assert averaging_square_subconfig(n, n_sub, cap + 1) == b + 1

    def test_degree_bounds(self):
        assert degree_bounds(13, 13) == {"min_le": 4, "max_ge": 4}
        assert degree_bounds(14, 15) == {"min_le": 4, "max_ge": 5}


class TestMixedRecursion:
    def test_known_step(self):
        # the two-extension split bounds 14 points by 15 squares, under 16
        value = mixed_square_upper(14, min_part=7)
        assert value == 15
        assert value < 16

    def test_missing_table_entry_reported(self):
        with pytest.raises(ValueError):
            mixed_square_upper(40)


class TestSubsetSums:
    def test_a_n_6_4_values(self):
        assert a_n_6_4(10) == 5
        assert a_n_6_4(11) == 6
        assert a_n_6_4(12) == 9
        assert a_n_6_4(13) == 13
        with pytest.raises(ValueError):
            a_n_6_4(18)

    def test_hamming13(self):
        assert hamming13_upper() == 3 + (9 * 4 + 3 * 3) // 8
        assert hamming13_upper(caps=(8,) * 12) == 3 + 12


class TestReports:
    def test_square_report_exact_range(self):
        rep = square_bound_report(17)
        assert rep.best_upper == 22
        assert rep.best_lower == 22

    def test_square_report_open_range(self):
        rep = square_bound_report(18)
        assert rep.best_lower == 25
        assert rep.best_lower <= rep.best_upper

    def test_rit_report(self):
        rep = rit_bound_report(14)
        assert rep.best_upper == rep.best_lower == 74
        rep = rit_bound_report(15)
        assert rep.best_lower == 85

    def test_reports_consistent_over_range(self):
        for n in range(4, 101):
            rep = square_bound_report(n)
            assert rep.best_lower <= rep.best_upper, n
        for n in range(3, 51):
            rep = rit_bound_report(n)
            assert rep.best_lower <= rep.best_upper, n

    def test_report_json(self):
        data = json.loads(square_bound_report(9).to_json())
        assert data["n"] == 9
        assert data["best_upper"] == 6


def _expected_counts(n):
    x = math.comb(n, 3)
    y = sum(math.comb(n, t) for t in range(4, n + 1))
    sub = sum(math.comb(n, t) for t in range(4, n))
    ext4 = math.comb(n, 4)
    chain = sum(math.comb(n, t) * t for t in range(5, n + 1))
    return x, y, sub, ext4, chain


class TestIlpExport:
    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_variable_counts(self, n):
        x_vars, y_vars = ilp_variables(n)
        ex, ey, *_ = _expected_counts(n)
        assert len(x_vars) == ex
        assert len(y_vars) == ey

    @pytest.mark.parametrize("n", [5, 8, 9])
    def test_base_constraint_families(self, n):
        cons = ilp_constraints(n, "base")
        _, _, sub, ext4, chain = _expected_counts(n)
        families = {"sub_": 0, "ext4_": 0, "chain_": 0}
        for c in cons:
            for fam in families:
                if c.name.startswith(fam):
                    families[fam] += 1
        assert families == {"sub_": sub, "ext4_": ext4, "chain_": chain}

    def test_variant_extra_families(self):
        mod8 = ilp_constraints(8, "mod8")
        zeros = [c for c in mod8 if c.name.startswith("zero_")]
        lows = [c for c in mod8 if c.name.startswith("low_")]
        assert len(zeros) == sum(math.comb(8, t) for t in (6, 7, 8))
        assert len(lows) == math.comb(8, 5)
        mod9 = ilp_constraints(9, "mod9")
        zeros9 = [c for c in mod9 if c.name.startswith("zero_")]
        lows9 = [c for c in mod9 if c.name.startswith("low_")]
        assert len(zeros9) == sum(math.comb(9, t) for t in (7, 8, 9))
        assert len(lows9) == math.comb(9, 6)

    def test_variant_guard(self):
        with pytest.raises(ValueError):
            ilp_constraints(9, "mod8")
        with pytest.raises(ValueError):
            ilp_constraints(8, "mod9")
        with pytest.raises(ValueError):
            ilp_constraints(8, "fancy")
        with pytest.raises(ValueError):
            ilp_constraints(13, "base")

    def test_export_structure(self):
        text = ilp_export(5)
        assert text.startswith("Maximize")
        for section in ("Subject To", "Binary", "End"):
            assert section in text
        assert "x_1_2_3" in text

    def test_export_names_unique_and_declared(self):
        text = ilp_export(6)
        names = re.findall(r"^ (\w+):", text, flags=re.M)
        assert len(names) == len(set(names))
        binary_section = text.split("Binary")[1].split("End")[0]
        declared = set(binary_section.split())
        used = set(re.findall(r"[xy]_[0-9_]+\d", text))
        assert used <= declared

    def test_all_variants_exportable(self):
        for variant, n in zip(ILP_VARIANTS, (8, 8, 9)):
            assert ilp_export(n, variant=variant).startswith("Maximize")


# sha256 of the LP text; a change to the exported bytes must be deliberate
EXPORT_SHA256 = {
    (5, "base"):
        "ab5c476ce11400960dd45f9ca9e82c6fbbf284dbec2f568bd38c4b613bd80bc5",
    (8, "base"):
        "d1f6749c5629b26085056477d6a83b7ac3f868df0fc3adf172022baff9400290",
    (8, "mod8"):
        "c8fda6edc26acd6ceaa341746e6bf7316e8d0784215262f94208c6b741e045f3",
    (9, "base"):
        "e5e976a233bd1d430827135eb16a43e04fba20298eaf302d338f1bda203695b0",
    (9, "mod9"):
        "6fc2db8d2966bbe1cadef3979a4f77a76baf9c5647f54b62748847010abd2cfa",
    (10, "base"):
        "cb0dcae544a7af5e68d0411166618528289ee9b06288fa5ede2f25a02d9ee1bb",
    (12, "base"):
        "1d6200ff4db14c13e8084bd535ca4f4afd4502f2a426ebbd9d6612f246c9ea6a",
}


@pytest.mark.parametrize("n,variant", sorted(EXPORT_SHA256))
def test_export_bytes_unchanged(n, variant):
    text = ilp_export(n, variant)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == EXPORT_SHA256[n, variant]


def _violated_term_by_term(a, n, variant):
    """Oracle: every row of ilp_constraints evaluated term by term on the
    assignment's x and y; the names of the rows it violates, in order."""
    values = {"x_" + "_".join(map(str, s)): v for s, v in a.x.items()}
    values.update({f"y_{len(t)}_" + "_".join(map(str, t)): v
                   for t, v in a.y.items()})
    violated = []
    for con in ilp_constraints(n, variant):
        total = sum(coef * values[var] for coef, var in con.terms)
        ok = {"<=": total <= con.rhs, ">=": total >= con.rhs,
              "=": total == con.rhs}[con.sense]
        if not ok:
            violated.append(con.name)
    return violated


def _check_against_oracle(ps, variant="base"):
    n = len(ps)
    a = ilp_assignment_from_pointset(ps, variant=variant)
    pts = ps.points
    for s, v in a.x.items():
        assert v == is_rit(*(pts[i - 1] for i in s)), s
    for t, v in a.y.items():
        assert v == is_1ext_obtainable(PointSet.of(pts[i - 1] for i in t)), t
    violated = _violated_term_by_term(a, n, variant)
    assert a.violated == tuple(violated)
    assert a.feasible == (not violated)
    return a


class TestIlpAssignmentOracle:
    def test_corpus_rit_records(self, corpus_records):
        checked = 0
        for rec in corpus_records:
            if rec.family == "rit" and rec.n <= 10:
                _check_against_oracle(rec.point_set())
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("variant,sizes", [
        ("base", (4, 5, 6, 7, 8, 9)), ("mod8", (8,)), ("mod9", (9,))])
    def test_random_sets(self, variant, sizes):
        rng = random.Random(variant)
        cells = [(x, y) for x in range(5) for y in range(5)]
        feasible = set()
        for n in sizes:
            for _ in range(24 // len(sizes)):
                ps = PointSet.of(rng.sample(cells, n))
                feasible.add(_check_against_oracle(ps, variant).feasible)
        # the tightened variants reject some sets and accept others
        assert feasible == ({True} if variant == "base" else {True, False})


class TestIlpAssignment:
    def test_collinear_points(self):
        ps = PointSet.of([(i, 0) for i in range(5)])
        a = ilp_assignment_from_pointset(ps)
        assert a.feasible
        assert a.objective == 0

    def test_unit_square(self):
        ps = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        a = ilp_assignment_from_pointset(ps)
        assert a.feasible
        assert a.objective == 4

    def test_objective_matches_count(self):
        ps = PointSet.of([(x, y) for x in range(3) for y in range(3)])
        a = ilp_assignment_from_pointset(ps)
        assert a.feasible
        assert a.objective == count_rit(ps) == 28

    def test_mod8_flags_sparse_subsets(self):
        # An 8-point set with a 1-extension-obtainable 5-subset carrying
        # fewer than 8 rits cannot satisfy the tightened system; the
        # verdict lists the violated rows instead of raising.
        ps = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
                          (5, 5), (9, 9)])
        base = ilp_assignment_from_pointset(ps)
        assert base.feasible and base.objective == count_rit(ps)
        tight = ilp_assignment_from_pointset(ps, variant="mod8")
        assert not tight.feasible
        assert any(name.startswith("low_5_") for name in tight.violated)

    def test_tally_disagreeing_with_count_raises(self, monkeypatch):
        monkeypatch.setattr(squarespan.bounds, "count_rit",
                            lambda ps: count_rit(ps) + 1)
        ps = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        with pytest.raises(RuntimeError, match="triple tally"):
            ilp_assignment_from_pointset(ps)

    def test_variant_requires_matching_n(self):
        ps = PointSet.of([(i, 0) for i in range(5)])
        with pytest.raises(ValueError):
            ilp_assignment_from_pointset(ps, variant="mod8")
