import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import (
    canonical_key,
    centered_key,
    key_to_pointset,
    normalize_to_grid,
    similar,
    similarity_image,
)

UNIT_SQUARE = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])

point_sets = st.builds(
    PointSet.of,
    st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1, max_size=7))

# canonical_key is only defined for two or more points
point_sets_2plus = st.builds(
    PointSet.of,
    st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=2, max_size=7))

# Invertible integer similarities z -> a*z + b (optionally conjugated).
gauss_nonzero = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda a: a != (0, 0))
similarities = st.tuples(
    gauss_nonzero,
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.booleans())


class TestCanonicalKey:
    def test_examples(self):
        big = PointSet.of([(0, 0), (3, 0), (0, 3), (3, 3)])
        tilted = PointSet.of([(0, 1), (1, 2), (2, 1), (1, 0)])
        assert canonical_key(UNIT_SQUARE) == canonical_key(big)
        assert canonical_key(UNIT_SQUARE) == canonical_key(tilted)
        rect = PointSet.of([(0, 0), (2, 0), (0, 1), (2, 1)])
        assert canonical_key(UNIT_SQUARE) != canonical_key(rect)

    def test_text_is_stable(self):
        assert canonical_key(UNIT_SQUARE).text == canonical_key(
            PointSet.of([(5, 5), (6, 5), (5, 6), (6, 6)])).text

    @settings(max_examples=40, deadline=None)
    @given(point_sets_2plus, similarities)
    def test_invariant_under_similarity(self, ps, sim):
        a, b, conj = sim
        image = similarity_image(ps, a, b, conjugate=conj)
        assert canonical_key(image) == canonical_key(ps)

    @settings(max_examples=40, deadline=None)
    @given(point_sets_2plus, similarities)
    def test_agrees_with_centered_key(self, ps, sim):
        a, b, conj = sim
        image = similarity_image(ps, a, b, conjugate=conj)
        assert (canonical_key(image) == canonical_key(ps)) == (
            centered_key(image.points) == centered_key(ps.points))

    def test_distinguishes_non_similar_pairs(self):
        rng = random.Random(4)
        window = [(x, y) for x in range(6) for y in range(6)]
        sets = [PointSet.of(rng.sample(window, 5)) for _ in range(25)]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert (canonical_key(a) == canonical_key(b)) == (
                    centered_key(a.points) == centered_key(b.points))
                assert (canonical_key(a) == canonical_key(b)) == similar(a, b)


class TestCenteredKey:
    @settings(max_examples=60, deadline=None)
    @given(point_sets_2plus, similarities)
    def test_invariant_under_similarity(self, ps, sim):
        a, b, conj = sim
        image = similarity_image(ps, a, b, conjugate=conj)
        assert centered_key(image.points) == centered_key(ps.points)

    @settings(max_examples=60, deadline=None)
    @given(point_sets_2plus)
    def test_round_trip_recovers_similar_set(self, ps):
        rebuilt = key_to_pointset(centered_key(ps.points))
        assert similar(rebuilt, ps)
        assert count_squares(rebuilt) == count_squares(ps)
        assert count_rit(rebuilt) == count_rit(ps)

    def test_marked_key_symmetry(self):
        keys = {centered_key(UNIT_SQUARE.points, p)
                for p in UNIT_SQUARE.points}
        assert len(keys) == 1  # all four vertices are equivalent

    def test_marked_key_asymmetry(self):
        ell = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1)])
        keys = {centered_key(ell.points, p) for p in ell.points}
        assert len(keys) == 4  # no two points play the same role

    def test_marked_round_trip(self):
        ell = PointSet.of([(0, 0), (1, 0), (2, 0), (0, 1)])
        for p in ell.points:
            key = centered_key(ell.points, p)
            rebuilt, mark = key_to_pointset(key, marked=True)
            assert similar(rebuilt, ell)
            assert mark in rebuilt


class TestSimilar:
    def test_reflexive_and_symmetric(self):
        a = PointSet.of([(0, 0), (2, 1), (3, 3)])
        b = PointSet.of([(0, 0), (-1, 2), (-3, 3)])  # quarter turn of a
        assert similar(a, a)
        assert similar(a, b) and similar(b, a)

    def test_size_mismatch(self):
        assert not similar(UNIT_SQUARE, PointSet.of([(0, 0), (1, 0), (0, 1)]))

    def test_reflection_counts_as_similar(self):
        a = PointSet.of([(0, 0), (3, 0), (1, 2)])
        mirrored = PointSet.of([(x, -y) for x, y in a.points])
        assert similar(a, mirrored)


class TestNormalizeToGrid:
    def test_touches_axes(self):
        ps = PointSet.of([(4, 7), (6, 7), (4, 9), (6, 9)])
        norm = normalize_to_grid(ps)
        assert min(x for x, _ in norm.points) == 0
        assert min(y for _, y in norm.points) == 0

    def test_idempotent(self):
        ps = PointSet.of([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert normalize_to_grid(normalize_to_grid(ps)) == normalize_to_grid(ps)

    def test_preserves_counts(self):
        ps = PointSet.of([(3, 3), (5, 3), (3, 5), (5, 5), (4, 4)])
        norm = normalize_to_grid(ps)
        assert count_rit(norm) == count_rit(ps)
        assert count_squares(norm) == count_squares(ps)


class TestSimilarityImage:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            similarity_image(UNIT_SQUARE, (0, 0), (1, 1))

    def test_rational_scale_clears_denominators(self):
        from fractions import Fraction
        image = similarity_image(
            UNIT_SQUARE, (Fraction(1, 3), Fraction(1, 2)), (0, 0))
        assert all(isinstance(c, int) for p in image.points for c in p)
        assert similar(image, UNIT_SQUARE)
