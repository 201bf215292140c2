import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from configs import FORCED_FIFTH, FORCED_FIFTH_SET
from squarespan.geometry import (
    PointSet,
    classify_pair,
    count_axis_parallel_squares,
    count_rit,
    count_rit_subsets,
    count_squares,
    count_squares_subsets,
    is_rit,
    is_square,
    leftmost_edge_conflicts,
    pair_completions,
    rits_of,
    sqdist,
    squares_of,
    srit_minus_3sq,
)

UNIT_SQUARE = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
GRID3 = PointSet.of([(x, y) for x in range(3) for y in range(3)])

point_sets = st.builds(
    PointSet.of,
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1, max_size=8))


class TestPointSet:
    def test_sorts_and_dedupes(self):
        ps = PointSet.of([(1, 1), (0, 0), (1, 1), (0, 1)])
        assert ps.points == ((0, 0), (0, 1), (1, 1))
        assert len(ps) == 3

    def test_integral_values_accepted(self):
        ps = PointSet.of([(1.0, 0), (Fraction(4, 2), 1)])
        assert ps.points == ((1, 0), (2, 1))
        assert all(type(c) is int for p in ps for c in p)

    @pytest.mark.parametrize("pts", [
        [(0.5, 0), (1, 1)],
        [(Fraction(1, 2), 0), (Fraction(3, 2), 1)],
        [(0, 0), (1, -0.25)],
    ])
    def test_non_integral_rejected(self, pts):
        with pytest.raises(ValueError):
            PointSet.of(pts)

    def test_membership(self):
        assert (0, 0) in UNIT_SQUARE
        assert (2, 2) not in UNIT_SQUARE
        assert UNIT_SQUARE.member_set == {(0, 0), (1, 0), (0, 1), (1, 1)}


class TestPredicates:
    def test_sqdist(self):
        assert sqdist((0, 0), (3, 4)) == 25
        assert sqdist((2, -1), (2, -1)) == 0

    def test_is_rit_accepts_all_orders(self):
        tri = [(0, 0), (2, 0), (0, 2)]
        for perm in itertools.permutations(tri):
            assert is_rit(*perm)

    def test_is_rit_rejects(self):
        assert not is_rit((0, 0), (1, 0), (2, 0))  # collinear
        assert not is_rit((0, 0), (3, 0), (0, 4))  # right but not isosceles
        assert not is_rit((0, 0), (2, 0), (1, 2))  # isosceles but not right
        assert not is_rit((0, 0), (0, 0), (1, 1))  # degenerate

    def test_is_square_accepts_all_orders(self):
        sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for perm in itertools.permutations(sq):
            assert is_square(*perm)

    def test_is_square_rejects(self):
        assert not is_square((0, 0), (2, 0), (2, 1), (0, 1))  # rectangle
        assert not is_square((0, 0), (1, 0), (2, 1), (1, 1))  # rhombus
        assert not is_square((0, 0), (1, 0), (0, 1), (0, 0))  # repeated vertex

    def test_tilted_square(self):
        assert is_square((0, 1), (1, 2), (2, 1), (1, 0))


def halved(pair):
    """A doubled-coordinate pair back in plane coordinates."""
    return tuple((Fraction(x, 2), Fraction(y, 2)) for x, y in pair)


class TestCompletions:
    def test_diagonal_fixed_order(self):
        assert pair_completions(0, 0, 2, 0)[0] == ((2, 2), (2, -2))

    def test_diagonal_half_integer(self):
        a, b = halved(pair_completions(0, 0, 1, 1)[0])
        assert a == (0, 1) and b == (1, 0)
        c, d = halved(pair_completions(0, 0, 1, 0)[0])
        assert c == (Fraction(1, 2), Fraction(1, 2))
        assert d == (Fraction(1, 2), Fraction(-1, 2))

    def test_edge_both_sides(self):
        _, minus, plus = pair_completions(0, 0, 2, 0)
        assert halved(minus) == ((2, -2), (0, -2))
        assert halved(plus) == ((2, 2), (0, 2))

    def test_three_pairs(self):
        assert pair_completions(0, 0, 2, 0) == (
            ((2, 2), (2, -2)), ((4, -4), (0, -4)), ((4, 4), (0, 4)))

    def test_completions_really_complete_squares(self):
        p, q = (1, 2), (4, 3)
        for pair in pair_completions(*p, *q):
            assert is_square(p, q, *halved(pair))

    def test_rit_third_vertices_fixed_order(self):
        # Undoubled and regrouped, the six points read p1+L, p2+L, p1-L,
        # p2-L, M+L/2, M-L/2; each edge pair lists p2's vertex first.
        diag, minus, plus = (halved(pair)
                             for pair in pair_completions(0, 0, 2, 0))
        assert (*plus[::-1], *minus[::-1], *diag) == (
            (0, 2), (2, 2), (0, -2), (2, -2), (1, 1), (1, -1))

    def test_rit_third_vertices_complete_rits(self):
        p, q = (0, 1), (3, 2)
        thirds = [t for pair in pair_completions(*p, *q)
                  for t in halved(pair)]
        assert len(set(thirds)) == 6
        for t in thirds:
            assert is_rit(p, q, t)

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
           st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_completions_property(self, p, q):
        # With the pair doubled too, each returned pair completes a
        # square, and the six points are distinct rit third vertices.
        assume(p != q)
        dp, dq = (2 * p[0], 2 * p[1]), (2 * q[0], 2 * q[1])
        pairs = pair_completions(*p, *q)
        for r, s in pairs:
            assert is_square(dp, dq, r, s)
        thirds = [t for pair in pairs for t in pair]
        assert len(set(thirds)) == 6
        for t in thirds:
            assert is_rit(dp, dq, t)


class TestCounts:
    @pytest.mark.parametrize("pts, squares, rit, axis", [
        (UNIT_SQUARE, 1, 4, 1),
        (GRID3, 6, 28, 5),
        (PointSet.of([(0, 1), (1, 2), (2, 1), (1, 0)]), 1, 4, 0),
        (PointSet.of([(0, 0), (1, 0), (2, 0)]), 0, 0, 0),
        (PointSet.of([(0, 0), (2, 0), (1, 1)]), 0, 1, 0),
    ])
    def test_known_values(self, pts, squares, rit, axis):
        assert count_squares(pts) == squares
        assert count_rit(pts) == rit
        assert count_axis_parallel_squares(pts) == axis

    def test_five_point_maximum(self):
        ps = PointSet.of([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert count_rit(ps) == 8
        assert count_squares(ps) == 1

    def test_mixed_count(self):
        assert srit_minus_3sq(GRID3) == 28 - 3 * 6
        assert srit_minus_3sq(UNIT_SQUARE) == 1

    def test_translation_invariance(self):
        shifted = PointSet.of([(x + 17, y - 5) for x, y in GRID3.points])
        assert count_squares(shifted) == 6
        assert count_rit(shifted) == 28

    def test_rotation_by_quarter_turn(self):
        rotated = PointSet.of([(-y, x) for x, y in FORCED_FIFTH_SET.points])
        assert count_squares(rotated) == count_squares(FORCED_FIFTH_SET)
        assert count_rit(rotated) == count_rit(FORCED_FIFTH_SET)

    @settings(max_examples=60, deadline=None)
    @given(point_sets)
    def test_square_count_matches_subset_scan(self, ps):
        assert count_squares(ps) == count_squares_subsets(ps)

    @settings(max_examples=60, deadline=None)
    @given(point_sets)
    def test_rit_count_matches_subset_scan(self, ps):
        assert count_rit(ps) == count_rit_subsets(ps)

    def test_dual_route_on_random_seeded_sets(self):
        rng = random.Random(99)
        window = [(x, y) for x in range(8) for y in range(8)]
        for _ in range(40):
            ps = PointSet.of(rng.sample(window, rng.randint(3, 10)))
            assert count_squares(ps) == count_squares_subsets(ps)
            assert count_rit(ps) == count_rit_subsets(ps)


class TestEnumerators:
    def test_squares_of_matches_count(self):
        sqs = squares_of(GRID3)
        assert len(sqs) == count_squares(GRID3)
        for sq in sqs:
            assert is_square(*sq)
        assert len({frozenset(sq) for sq in sqs}) == len(sqs)

    def test_rits_of_matches_count(self):
        rits = rits_of(GRID3)
        assert len(rits) == count_rit(GRID3)
        for tri in rits:
            assert is_rit(*tri)

    def test_forced_fifth_squares(self):
        label = {v: k for k, v in FORCED_FIFTH.items()}
        found = {frozenset(label[p] for p in sq)
                 for sq in squares_of(FORCED_FIFTH_SET)}
        assert found == {
            frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}),
            frozenset({3, 7, 8, 9}), frozenset({2, 5, 9, 10}),
            frozenset({3, 4, 6, 9})}


class TestPairRoles:
    SQ = tuple(sorted([(0, 0), (0, 1), (1, 0), (1, 1)]))

    @pytest.mark.parametrize("pair, role", [
        (((0, 0), (0, 1)), "e1"),
        (((0, 0), (1, 0)), "e2"),
        (((0, 1), (1, 1)), "e3"),
        (((1, 0), (1, 1)), "e4"),
        (((0, 0), (1, 1)), "d1"),
        (((0, 1), (1, 0)), "d2"),
    ])
    def test_unit_square_roles(self, pair, role):
        assert classify_pair(self.SQ, pair) == role

    def test_every_square_has_all_roles(self):
        for sq in squares_of(GRID3):
            sq = tuple(sorted(sq))
            roles = {classify_pair(sq, pair)
                     for pair in itertools.combinations(sq, 2)}
            assert roles == {"e1", "e2", "e3", "e4", "d1", "d2"}

    def test_no_leftmost_edge_conflicts(self):
        for ps in (UNIT_SQUARE, GRID3, FORCED_FIFTH_SET):
            assert leftmost_edge_conflicts(ps) == []
