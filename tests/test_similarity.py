import random
from itertools import chain
from math import gcd

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


def reference_centered_key(pts):
    """The earlier ``centered_key``, kept as the byte-identity reference.

    It reduces the centered coordinates by their content first, keeps
    every maximal-norm point in a Python loop, and sorts both
    reflections of every image.
    """
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    w = [(n * x - sx, n * y - sy) for x, y in pts]
    g = gcd(*chain.from_iterable(w))
    if g > 1:
        w = [(x // g, y // g) for x, y in w]
    best_norm = -1
    cands = []
    for x, y in w:
        nm = x * x + y * y
        if nm > best_norm:
            best_norm = nm
            cands = [(x, y)]
        elif nm == best_norm:
            cands.append((x, y))
    best = None
    for ux, uy in cands:
        fwd = [(x * ux + y * uy, y * ux - x * uy) for x, y in w]
        c = gcd(best_norm, *chain.from_iterable(fwd))
        image = sorted(fwd)
        mirror = sorted([(x, -y) for x, y in fwd])
        if mirror < image:
            image = mirror
        enc = (best_norm // c, *(v // c for v in chain.from_iterable(image)))
        if best is None or enc < best:
            best = enc
    return best


def maximal_norm_count(pts) -> int:
    """How many points of the set lie farthest from its centroid."""
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    norms = [(n * x - sx) ** 2 + (n * y - sy) ** 2 for x, y in pts]
    return norms.count(max(norms))


# Symmetric sets whose key has to choose among several maximal-norm
# points, with that number of them.
SYMMETRIC_SETS = {
    "collinear triple": (((0, 0), (1, 0), (2, 0)), 2),
    "unit square": (UNIT_SQUARE.points, 4),
    "plus": (((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), 4),
    "3x3 grid": (tuple((x, y) for x in range(3) for y in range(3)), 4),
    "octagon": (((0, 0), (1, 2), (2, 1), (2, -1), (1, -2), (-1, -2),
                 (-2, -1), (-2, 1), (-1, 2)), 8),
}


class TestCenteredKeyReference:
    """``centered_key`` gives the reference key byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(point_sets_2plus)
    def test_equals_reference(self, ps):
        assert centered_key(ps.points) == reference_centered_key(ps.points)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_SETS))
    def test_symmetric_sets(self, name):
        pts, ties = SYMMETRIC_SETS[name]
        assert maximal_norm_count(pts) == ties
        assert centered_key(pts) == reference_centered_key(pts)

    @settings(max_examples=100, deadline=None)
    @given(point_sets_2plus)
    def test_doubling_keeps_the_key(self, ps):
        doubled = tuple((2 * x, 2 * y) for x, y in ps.points)
        assert centered_key(doubled) == centered_key(ps.points)

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            centered_key(((0, 0),))


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
