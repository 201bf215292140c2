import pytest

import squarespan.extension
from configs import FORCED_FIFTH, FORCED_FIFTH_SET
from squarespan.extension import (
    enumerate_classes,
    is_1ext_obtainable,
    is_2ext_obtainable,
    maximal_1ext_subconfig,
    maximal_2ext_subconfig,
    one_extensions,
    root_degrees,
    two_extensions,
)
from squarespan.geometry import (
    PointSet,
    count_rit,
    count_squares,
    decompose_at,
    neighborhood,
)
from squarespan.similarity import centered_key
from squarespan.tables import (
    NEIGHBORHOOD_2EXT_CLASSES,
    NEIGHBORHOOD_2EXT_CORRECTIONS,
    RIT_1EXT_CLASSES,
    SQUARE_2EXT_CLASSES,
)

TRIANGLE = PointSet.of([(0, 0), (1, 0), (0, 1)])
UNIT_SQUARE = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
GRID3 = PointSet.of([(x, y) for x in range(3) for y in range(3)])
TWO_FAR_SQUARES = PointSet.of(
    [(0, 0), (1, 0), (0, 1), (1, 1), (10, 0), (11, 0), (10, 1), (11, 1)])


def labels(part):
    inv = {v: k for k, v in FORCED_FIFTH.items()}
    return sorted(inv[p] for p in part.points)


class TestSingleSteps:
    def test_one_extensions_of_triangle(self):
        children = one_extensions(TRIANGLE)
        assert len(children) == 4
        for child in children:
            assert len(child) == 4
            assert count_rit(child) > count_rit(TRIANGLE)

    def test_two_extensions_of_unit_square(self):
        children = two_extensions(UNIT_SQUARE)
        assert len(children) == 2
        for child in children:
            assert len(child) == 6
            assert count_squares(child) == 2

    def test_children_are_distinct_classes(self):
        seen = {centered_key(c.points) for c in one_extensions(TRIANGLE)}
        assert len(seen) == 4


class TestEnumeration:
    def test_rit_one_extension_small(self):
        table = enumerate_classes("rit-1ext", 4)
        assert table.entries == {(3, 1): 1, (4, 2): 2, (4, 3): 1, (4, 4): 1}
        assert table.complete

    def test_rit_one_extension_to_seven(self):
        table = enumerate_classes("rit-1ext", 7)
        expected = {k: v for k, v in RIT_1EXT_CLASSES.items()
                    if k[0] <= 7 and v}
        assert {k: v for k, v in table.entries.items() if k[0] >= 3} == \
            {(3, 1): 1} | expected

    def test_square_two_extension_small(self):
        table = enumerate_classes("square-2ext", 6)
        assert table.entries == {(4, 1): 1, (6, 2): 2}

    def test_square_two_extension_to_eleven(self):
        table = enumerate_classes("square-2ext", 11)
        expected = {(4, 1): 1} | {
            k: v for k, v in SQUARE_2EXT_CLASSES.items() if k[0] <= 11 and v}
        assert table.entries == expected

    def test_neighborhood_two_extension_to_eleven(self):
        table = enumerate_classes("neighborhood-2ext", 11)
        for (n, m), (classes, delta) in NEIGHBORHOOD_2EXT_CLASSES.items():
            if n > 11:
                continue
            classes = NEIGHBORHOOD_2EXT_CORRECTIONS.get((n, m), classes)
            assert table.entries.get((n, m), 0) == classes, (n, m)
            if classes:
                assert table.delta_max[(n, m)] == delta, (n, m)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            enumerate_classes("triangles", 5)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            enumerate_classes("rit-1ext", 5, threads=threads)

    def test_level_budget_stops_cleanly(self):
        table = enumerate_classes("rit-1ext", 6, max_level_classes=4)
        assert not table.complete
        assert table.note
        assert max(n for n, _ in table.entries) == 4
        assert table.entries[(4, 2)] == 2

    def test_class_filter_prunes_storage_and_expansion(self):
        table = enumerate_classes(
            "rit-1ext", 6, class_filter=lambda ps, m: len(ps) < 5)
        assert table.entries == {(3, 1): 1, (4, 2): 2, (4, 3): 1, (4, 4): 1}

    def test_to_tsv_layout(self):
        table = enumerate_classes("square-2ext", 6)
        lines = table.to_tsv().splitlines()
        assert lines[0] == "n\tm\tclasses"
        assert "4\t1\t1" in lines
        rooted = enumerate_classes("neighborhood-2ext", 6)
        assert rooted.to_tsv().splitlines()[0] == "n\tm\tclasses\tdelta_max"

    def test_no_child_past_n_max_is_keyed(self, monkeypatch):
        sizes = []

        def recording_key(pts):
            sizes.append(len(pts))
            return centered_key(pts)

        monkeypatch.setattr(squarespan.extension, "centered_key",
                            recording_key)
        table = enumerate_classes("square-2ext", 9)
        assert max(n for n, _ in table.entries) == 9
        assert max(sizes) == 9

    def test_worker_pool_matches_serial(self, pool_starts):
        serial = enumerate_classes("rit-1ext", 7)
        assert not pool_starts
        pooled = enumerate_classes("rit-1ext", 7, threads=2)
        assert pool_starts  # level 6 has 385 parents: several chunks
        assert pooled.entries == serial.entries
        assert pooled.to_tsv() == serial.to_tsv()


class TestRootlessClassesExplainTheCorrection:
    def test_exactly_one_ten_point_six_square_class_is_a_neighborhood(self):
        # Among the unrestricted two-extension classes with 10 points and 6
        # squares, only one admits a vertex whose squares cover the whole
        # set; the rooted enumeration therefore reports a single class.
        bucket = {}

        def collect(ps, m):
            if len(ps) == 10 and m == 6:
                bucket.setdefault(centered_key(ps.points), ps)
            return True

        table = enumerate_classes("square-2ext", 10, class_filter=collect)
        assert table.entries[(10, 6)] == 5
        assert len(bucket) == 5
        rooted = [root_degrees(ps) for ps in bucket.values()]
        nonempty = [r for r in rooted if r]
        assert len(nonempty) == 1
        assert max(nonempty[0]) == 5


class TestObtainability:
    def test_one_extension_closure(self):
        assert is_1ext_obtainable(TRIANGLE)
        assert is_1ext_obtainable(UNIT_SQUARE)
        assert is_1ext_obtainable(FORCED_FIFTH_SET)
        assert not is_1ext_obtainable(TWO_FAR_SQUARES)

    def test_maximal_one_extension_subconfig(self):
        sub = maximal_1ext_subconfig(TWO_FAR_SQUARES)
        assert len(sub) == 4
        assert count_rit(sub) == 4
        assert maximal_1ext_subconfig(FORCED_FIFTH_SET) == FORCED_FIFTH_SET

    def test_two_extension_closure(self):
        assert is_2ext_obtainable(UNIT_SQUARE)
        assert is_2ext_obtainable(FORCED_FIFTH_SET)
        stranded = PointSet.of(
            [(0, 0), (5, 0), (0, 5), (5, 5), (3, 6), (2, 4)])
        assert not is_2ext_obtainable(stranded)
        assert maximal_2ext_subconfig(stranded).points == (
            (0, 0), (0, 5), (5, 0), (5, 5))


class TestRootsAndNeighborhoods:
    def test_unit_square_roots(self):
        assert root_degrees(UNIT_SQUARE) == [1, 1, 1, 1]

    def test_grid_root_is_the_center(self):
        assert root_degrees(GRID3) == [4]

    def test_forced_fifth_has_no_root(self):
        assert root_degrees(FORCED_FIFTH_SET) == []

    def test_neighborhoods(self):
        n9 = neighborhood(FORCED_FIFTH_SET, FORCED_FIFTH[9])
        assert labels(n9) == [2, 3, 4, 5, 6, 7, 8, 9, 10]
        n2 = neighborhood(FORCED_FIFTH_SET, FORCED_FIFTH[2])
        assert labels(n2) == [1, 2, 3, 4, 5, 9, 10]

    def test_decompose_requires_neighborhood(self):
        with pytest.raises(ValueError):
            decompose_at(FORCED_FIFTH_SET, FORCED_FIFTH[2])

    def test_decompose_at_two(self):
        sub = neighborhood(FORCED_FIFTH_SET, FORCED_FIFTH[2])
        dec = decompose_at(sub, FORCED_FIFTH[2])
        assert [labels(p) for p in dec.parts] == [[1, 2, 3, 4], [2, 5, 9, 10]]
        assert dec.square_closed == (True, True)

    def test_decompose_at_nine(self):
        sub = PointSet.of(FORCED_FIFTH[k] for k in range(2, 11))
        dec = decompose_at(sub, FORCED_FIFTH[9])
        assert [labels(p) for p in dec.parts] == [
            [2, 5, 9, 10], [3, 4, 6, 7, 8, 9]]
        # the part {3,4,6,7,8,9} cuts the square {4,5,6,7} in three vertices
        assert dec.square_closed == (True, False)
