import re
from array import array
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squarespan.extension
from configs import FORCED_FIFTH, FORCED_FIFTH_SET
from squarespan.extension import (
    _CHUNK,
    _children,
    _covers,
    _doubled,
    _expand_chunk,
    _has_root,
    _pack,
    _rit_candidates,
    _square_candidates,
    _unpack,
    enumerate_classes,
    is_1ext_obtainable,
    one_extensions,
    root_degrees,
    two_extensions,
)
from squarespan.geometry import (
    PointSet,
    count_rit,
    count_squares,
    is_rit,
    is_square,
)
from squarespan.similarity import (
    centered_key,
    key_to_pointset,
    normalize_to_grid,
    similar,
)
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


# Parents for the sweep oracle: small, so that a window of doubled points
# holds every candidate.
small_parents = st.builds(
    PointSet.of,
    st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=2, max_size=6))

# Doubled points of the window: every completion of a pair of points in
# [-2, 2]^2 lies in [-6, 6]^2.
WINDOW2 = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]


def brute_rit_tally(pts2):
    """Doubled v outside the set -> rits {a, b, v} with a, b in the set."""
    member = set(pts2)
    tally = {}
    for v in WINDOW2:
        if v not in member:
            k = sum(1 for a, b in combinations(pts2, 2) if is_rit(a, b, v))
            if k:
                tally[v] = k
    return tally


def brute_square_tallies(pts2):
    """The square sweep's (t1, t2), from square tests on the window."""
    member = set(pts2)
    t1 = {}
    for v in WINDOW2:
        if v not in member:
            k = sum(1 for a, b, c in combinations(pts2, 3)
                    if is_square(a, b, c, v))
            if k:
                t1[v] = 3 * k
    t2 = {}
    for a, b in combinations(pts2, 2):
        for r in WINDOW2:
            if r in member or not is_rit(a, b, r):
                continue
            (s,) = [s for s in (
                (a[0] + b[0] - r[0], a[1] + b[1] - r[1]),
                (a[0] + r[0] - b[0], a[1] + r[1] - b[1]),
                (b[0] + r[0] - a[0], b[1] + r[1] - a[1]))
                if is_square(a, b, r, s)]
            if s not in member:
                pair = (min(r, s), max(r, s))
                t2[pair] = t2.get(pair, 0) + 1
    # Each square is found once from r and once from s.
    return t1, {pair: k // 2 for pair, k in t2.items()}


# Parents holding whole squares and rits, which random draws seldom do.
SWEEP_EXAMPLES = (
    PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]),
    PointSet.of([(x, y) for x in range(-1, 2) for y in range(-1, 2)]),
    PointSet.of([(0, 0), (2, 1), (1, 2), (-1, 1), (1, -2)]),
)


def with_examples(test):
    for ps in SWEEP_EXAMPLES:
        test = example(ps)(test)
    return test


class TestSweepsAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @with_examples
    @given(small_parents)
    def test_rit_sweep(self, ps):
        pts2 = _doubled(ps.points)
        assert _rit_candidates(pts2, frozenset(pts2)) == brute_rit_tally(pts2)

    @settings(max_examples=40, deadline=None)
    @with_examples
    @given(small_parents)
    def test_square_sweep(self, ps):
        pts2 = _doubled(ps.points)
        assert _square_candidates(ps.points, frozenset(pts2)) == \
            brute_square_tallies(pts2)


def child_classes(pts2, added):
    """Keys of the parent plus each tuple of doubled points in ``added``."""
    return {centered_key(pts2 + new) for new in added}


class TestSingleStepsAgainstBruteForce:
    """The single-step extensions have exactly the classes of the parent
    plus each brute-force candidate, one grid-normalized set each."""

    @staticmethod
    def check(children, ps, expected, sizes):
        assert {centered_key(c.points) for c in children} == expected
        assert len(children) == len(expected)
        for child in children:
            assert normalize_to_grid(child) == child
            assert len(child) - len(ps) in sizes

    @settings(max_examples=40, deadline=None)
    @with_examples
    @given(small_parents)
    def test_one_extensions(self, ps):
        pts2 = _doubled(ps.points)
        expected = child_classes(pts2, [(v,) for v in brute_rit_tally(pts2)])
        self.check(one_extensions(ps), ps, expected, {1})

    @settings(max_examples=40, deadline=None)
    @with_examples
    @given(small_parents)
    def test_two_extensions(self, ps):
        pts2 = _doubled(ps.points)
        t1, t2 = brute_square_tallies(pts2)
        expected = child_classes(pts2, [(v,) for v in t1] + list(t2))
        self.check(two_extensions(ps), ps, expected, {1, 2})


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

    @pytest.mark.slow
    def test_neighborhood_two_extension_to_eighteen(self):
        table = enumerate_classes("neighborhood-2ext", 18)
        expected = {cell: NEIGHBORHOOD_2EXT_CORRECTIONS.get(cell, classes)
                    for cell, (classes, _) in
                    NEIGHBORHOOD_2EXT_CLASSES.items() if cell[0] <= 18}
        expected = {cell: count for cell, count in expected.items() if count}
        wrong = {cell: (table.entries.get(cell, 0), expected.get(cell, 0))
                 for cell in set(table.entries) | set(expected)
                 if table.entries.get(cell, 0) != expected.get(cell, 0)}
        assert not wrong, wrong
        # Past n = 14 the shipped delta_max reads at four cells as the
        # largest square-degree of any point, not of a root; up to 14
        # the two readings agree.
        for cell in expected:
            if cell[0] <= 14:
                assert table.delta_max[cell] == \
                    NEIGHBORHOOD_2EXT_CLASSES[cell][1], cell

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

    @pytest.mark.parametrize("mode", ["square-2ext", "neighborhood-2ext"])
    def test_level_budget_note_names_first_dropped_level(self, mode):
        # Level n feeds n+1 and n+2, and n+2 may overflow first; then
        # n+1 is unfinished and is the first level dropped.
        full = enumerate_classes(mode, 11)
        for budget in (1, 2, 40, 1000):
            table = enumerate_classes(mode, 11, max_level_classes=budget)
            if table.complete:
                assert mode == "neighborhood-2ext" and budget == 1000
                assert table.note == "" and table.entries == full.entries
                continue
            dropped = re.search(r"cells with n >= (\d+) dropped",
                                table.note)
            assert int(dropped[1]) == 1 + max(n for n, _ in table.entries)
            for cell, count in table.entries.items():
                assert full.entries[cell] == count, (budget, cell)
                if full.delta_max is not None:
                    assert table.delta_max[cell] == full.delta_max[cell]

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

    # At these n_max some expanded level has more than _CHUNK parents:
    # rit level 6 has 385, square level 10 has 420, neighborhood level
    # 11 has 98.
    @pytest.mark.parametrize("mode, n_max", [("rit-1ext", 7),
                                             ("square-2ext", 11),
                                             ("neighborhood-2ext", 12)])
    def test_worker_pool_matches_serial(self, pool_starts, mode, n_max):
        serial = enumerate_classes(mode, n_max)
        assert not pool_starts
        assert max(lv.parents for lv in serial.levels) > _CHUNK
        pooled = enumerate_classes(mode, n_max, threads=2)
        assert pool_starts
        assert pooled.entries == serial.entries
        assert pooled.delta_max == serial.delta_max
        assert pooled.to_tsv() == serial.to_tsv()
        assert [(lv.n, lv.parents, lv.keys, lv.stored)
                for lv in pooled.levels] == \
            [(lv.n, lv.parents, lv.keys, lv.stored) for lv in serial.levels]


class TestPackedKeys:
    # Centered coordinates of this set reach far past 2**15.
    WIDE = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1), (300, 7)])

    def test_round_trip(self):
        for ps in (TRIANGLE, UNIT_SQUARE, GRID3, TWO_FAR_SQUARES):
            key = centered_key(ps.points)
            stored = _pack(key)
            assert stored == array("h", key).tobytes()
            assert _unpack(stored) == key

    def test_wide_key_stays_a_tuple(self):
        key = centered_key(self.WIDE.points)
        assert max(abs(v) for v in key) >= 2 ** 15
        stored = _pack(key)
        assert stored == key and isinstance(stored, tuple)
        assert similar(key_to_pointset(_unpack(stored)), self.WIDE)

    def test_packed_and_tuple_keys_never_collide(self):
        key = centered_key(GRID3.points)
        stored = {_pack(key): 1, key: 2,
                  _pack(centered_key(self.WIDE.points)): 3}
        assert len(stored) == 3
        assert _pack(key) != key

    def test_expanded_children_carry_bytes_keys(self):
        stored = _pack(centered_key(UNIT_SQUARE.points))
        children = _expand_chunk(("square-2ext", [(stored, 1)],
                                  {1: 0, 2: 0}))
        assert children
        assert all(isinstance(key, bytes) for _, key, _ in children)
        expected = {centered_key(ps.points) for ps in
                    two_extensions(UNIT_SQUARE)}
        assert {_unpack(key) for _, key, _ in children} == expected

    def test_tuple_parent_expands_like_a_packed_one(self):
        key = centered_key(GRID3.points)
        floors = {1: 0, 2: 0}
        assert _expand_chunk(("square-2ext", [(key, 6)], floors)) == \
            _expand_chunk(("square-2ext", [(_pack(key), 6)], floors))


class TestLevelRecords:
    def test_one_record_per_expanded_level(self):
        seen = []
        table = enumerate_classes("square-2ext", 10, on_level=seen.append)
        assert table.levels == seen
        parents: dict[int, int] = {}
        for (n, _), count in table.entries.items():
            parents[n] = parents.get(n, 0) + count
        assert [lv.n for lv in table.levels] == \
            [n for n in sorted(parents) if n < 10]
        for lv in table.levels:
            assert lv.parents == parents[lv.n]
            assert lv.keys >= lv.stored
            assert lv.seconds >= 0 and lv.rss_mb > 0
        assert sum(lv.stored for lv in table.levels) == \
            sum(table.entries.values()) - 1

    def test_stopping_level_gets_its_record(self):
        table = enumerate_classes("rit-1ext", 6, max_level_classes=4)
        assert not table.complete
        assert [lv.n for lv in table.levels] == [3, 4]
        assert table.levels[-1].stored == 5

    @pytest.mark.slow
    def test_square_two_extension_to_fourteen(self):
        table = enumerate_classes("square-2ext", 14)
        expected = {k: v for k, v in SQUARE_2EXT_CLASSES.items()
                    if k[0] <= 14 and v}
        wrong = {cell: (table.entries.get(cell, 0), expected.get(cell, 0))
                 for cell in set(table.entries) | set(expected)
                 if table.entries.get(cell, 0) != expected.get(cell, 0)}
        assert not wrong, wrong


def stored_classes(mode, n_max):
    """The unit square and every class ``mode`` stores up to n_max, as
    the grid-normalized point sets that _expand_chunk expands."""
    found = [key_to_pointset(centered_key(UNIT_SQUARE.points))]
    enumerate_classes(mode, n_max,
                      class_filter=lambda ps, m: found.append(ps) or True)
    return found


class TestRootTestAgainstRootDegrees:
    """_has_root, from the parent's covers and the new squares, against
    root_degrees on the child rebuilt as a PointSet."""

    @pytest.mark.parametrize("mode, n_max", [("neighborhood-2ext", 11),
                                             ("square-2ext", 9)])
    def test_every_child_of_every_parent(self, mode, n_max):
        # Square-2ext parents have many children with no root.
        rooted = rootless = 0
        for ps in stored_classes(mode, n_max):
            pts2 = _doubled(ps.points)
            cover = _covers(ps)
            for _, _, new in _children(True, ps.points, pts2, 0,
                                       {1: 0, 2: 0}):
                expected = bool(root_degrees(PointSet.of(pts2 + new)))
                assert _has_root(cover, new) == expected, (ps, new)
                rooted += expected
                rootless += not expected
        assert rooted and rootless


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


class TestRootsAndNeighborhoods:
    def test_unit_square_roots(self):
        assert root_degrees(UNIT_SQUARE) == [1, 1, 1, 1]

    def test_grid_root_is_the_center(self):
        assert root_degrees(GRID3) == [4]

    def test_forced_fifth_has_no_root(self):
        assert root_degrees(FORCED_FIFTH_SET) == []

    def test_neighborhoods(self):
        # The squares through 9 cover labels 2..10, and those through 2
        # cover 1, 2, 3, 4, 5, 9, 10; each set has that point as its
        # only root.
        n9 = PointSet.of(FORCED_FIFTH[k] for k in range(2, 11))
        assert root_degrees(n9) == [3]
        n2 = PointSet.of(FORCED_FIFTH[k] for k in (1, 2, 3, 4, 5, 9, 10))
        assert root_degrees(n2) == [2]
