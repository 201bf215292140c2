from dataclasses import astuple

import pytest

import squarespan.beam
from squarespan.beam import (
    BeamConfig,
    _finalize,
    _Pool,
    beam_search,
)
from squarespan.extension import (
    _children,
    _doubled,
    one_extensions,
    two_extensions,
)
from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import centered_key, key_to_pointset
from squarespan.tables import (
    RIT_EXACT,
    RIT_LOWER,
    SQUARE_EXACT,
    SQUARE_LOWER,
)


def reference_beam(mode, n_target, width):
    """Plain reimplementation of width-limited level search.

    Children are generated by the single-step extension functions and
    rescored from scratch; retention keeps the ``width`` best classes by
    (score desc, class key asc).  Serves as an oracle for the incremental
    implementation.
    """
    if mode == "rit":
        seed, start = PointSet.of([(0, 0), (1, 0), (0, 1)]), 3
        score, expand = count_rit, one_extensions
    else:
        seed, start = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)]), 4
        score, expand = count_squares, two_extensions
    retained = {start: {centered_key(seed.points): score(seed)}}
    best = {start: score(seed)}
    pools: dict[int, dict] = {}
    for n in range(start, n_target):
        for key in retained.get(n, ()):
            for child in expand(key_to_pointset(key)):
                pools.setdefault(len(child), {})[
                    centered_key(child.points)] = score(child)
        lvl = n + 1
        items = sorted(pools.pop(lvl, {}).items(),
                       key=lambda kv: (-kv[1], kv[0]))[:width]
        retained[lvl] = dict(items)
        best[lvl] = max([best[lvl - 1]] + [s for _, s in items])
    return best


class TestAgainstReference:
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_rit_mode(self, width):
        ref = reference_beam("rit", 8, width)
        res = beam_search(BeamConfig(mode="rit", n_target=8, beam_width=width))
        assert {n: res.best_at(n) for n in ref} == ref

    @pytest.mark.parametrize("width", [1, 3, 10])
    def test_square_mode(self, width):
        ref = reference_beam("square", 10, width)
        res = beam_search(
            BeamConfig(mode="square", n_target=10, beam_width=width))
        assert {n: res.best_at(n) for n in ref} == ref


class TestRecordsAtSmallSizes:
    def test_rit_records_to_ten(self):
        res = beam_search(BeamConfig(mode="rit", n_target=10, beam_width=200))
        for n in range(3, 11):
            assert res.best_at(n) == RIT_EXACT[n], n

    def test_square_records_to_twelve(self):
        res = beam_search(
            BeamConfig(mode="square", n_target=12, beam_width=200))
        for n in range(4, 13):
            assert res.best_at(n) == SQUARE_EXACT[n], n

    @pytest.mark.slow
    def test_rit_lower_table_to_fifty(self):
        res = beam_search(BeamConfig(mode="rit", n_target=50, beam_width=200))
        for n, value in RIT_LOWER.items():
            assert res.best_at(n) == value, n

    @pytest.mark.slow
    def test_square_lower_table_to_hundred(self):
        res = beam_search(
            BeamConfig(mode="square", n_target=100, beam_width=200))
        for n, value in SQUARE_LOWER.items():
            assert res.best_at(n) == value, n


class TestWitnesses:
    def test_witness_scores_recount(self):
        res = beam_search(BeamConfig(mode="rit", n_target=9, beam_width=50))
        for n, ps in res.witnesses.items():
            assert len(ps) == res.witness_origin[n]
            assert count_rit(ps) == res.best[res.witness_origin[n]]

    def test_square_level_five_carries_forward(self):
        # No two-extension child has five points, so the best value and
        # witness at cardinality five are inherited from the seed square.
        res = beam_search(BeamConfig(mode="square", n_target=6, beam_width=5))
        assert res.best_at(5) == res.best_at(4) == 1
        assert res.witness_origin[5] == 4

    def test_witness_records_render(self):
        res = beam_search(BeamConfig(mode="rit", n_target=8, beam_width=20))
        recs = res.witness_records()
        assert recs
        for rec in recs:
            assert rec.point_set().points  # grid parses back to points
            assert count_rit(rec.point_set()) == rec.expected


# (n, collected, keyed, distinct, retained, best, rebuilds) of square
# width 200 up to n=17; from n=12 on each pool is cut once to its exact
# floor.  The order in which candidates reach a pool decides when it is
# cut, and so the collected counts.
SQUARE_17_LEVELS = [
    (4, 1, 1, 1, 1, 1, 0),
    (5, 0, 0, 0, 0, 0, 0),
    (6, 12, 12, 2, 2, 2, 0),
    (7, 5, 5, 2, 2, 3, 0),
    (8, 56, 56, 17, 17, 4, 0),
    (9, 157, 157, 36, 36, 6, 0),
    (10, 1056, 1056, 420, 200, 7, 0),
    (11, 3701, 3701, 1522, 200, 8, 0),
    (12, 6531, 3681, 571, 200, 11, 1),
    (13, 6659, 3578, 541, 200, 13, 1),
    (14, 6188, 3009, 455, 200, 15, 1),
    (15, 6894, 3688, 617, 200, 17, 1),
    (16, 6258, 2838, 316, 200, 20, 1),
    (17, 7554, 4381, 707, 200, 22, 1),
]

SQUARE_17_TSV = """\
n\tbest\twitness
4\t1\tbeam-square-w200-n4
5\t1\tbeam-square-w200-n4
6\t2\tbeam-square-w200-n6
7\t3\tbeam-square-w200-n7
8\t4\tbeam-square-w200-n8
9\t6\tbeam-square-w200-n9
10\t7\tbeam-square-w200-n10
11\t8\tbeam-square-w200-n11
12\t11\tbeam-square-w200-n12
13\t13\tbeam-square-w200-n13
14\t15\tbeam-square-w200-n14
15\t17\tbeam-square-w200-n15
16\t20\tbeam-square-w200-n16
17\t22\tbeam-square-w200-n17
"""

SQUARE_17_WITNESS = (
    (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0),
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2))


class TestPinnedSquareRun:
    def test_levels_table_and_witness(self):
        res = beam_search(
            BeamConfig(mode="square", n_target=17, beam_width=200))
        assert [astuple(stat) for stat in res.levels] == SQUARE_17_LEVELS
        assert res.to_tsv() == SQUARE_17_TSV
        assert res.witnesses[17].points == SQUARE_17_WITNESS


class TestDeterminismAndThreads:
    def test_repeat_runs_identical(self):
        cfg = BeamConfig(mode="square", n_target=11, beam_width=40)
        a, b = beam_search(cfg), beam_search(cfg)
        assert a.best == b.best
        assert a.witnesses == b.witnesses

    def test_witness_recount_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(squarespan.beam, "count_squares", lambda ps: 0)
        with pytest.raises(RuntimeError, match="witness recount"):
            beam_search(BeamConfig(mode="square", n_target=6, beam_width=5))


class TestLazyChildren:
    def test_only_keyed_children_are_built(self, monkeypatch):
        # A child is built, as its doubled parent plus its new points,
        # only when it is keyed, so counting keys counts built children.
        keyed = []
        key = squarespan.beam.centered_key

        def counting(pts):
            keyed.append(len(pts))
            return key(pts)

        monkeypatch.setattr(squarespan.beam, "centered_key", counting)
        res = beam_search(
            BeamConfig(mode="square", n_target=14, beam_width=50))
        # The seed level's one key counts in its ``keyed`` as well, and
        # so do the keys made by a cut.
        assert len(keyed) == sum(stat.keyed for stat in res.levels)
        assert len(keyed) < sum(stat.collected for stat in res.levels)

    def test_class_at_two_scores_raises(self):
        pool = _Pool(5, 100)
        pool.add(3, TRIANGLE2, ((2, 2),))  # completes the unit square
        pool.add(2, TRIANGLE2, ((2, 2),))
        with pytest.raises(RuntimeError, match="same class at two scores"):
            _finalize(pool)


TRIANGLE2 = ((0, 0), (2, 0), (0, 2))  # the unit rit, doubled


class TestExactCut:
    """A pool cut at its exact floor retains what an uncut pool does."""

    @staticmethod
    def _arrivals(monkeypatch):
        # Every child of the classes square width 200 retains at n=11,
        # by step, as (score, parent, added) in the order the search
        # feeds its pools, with no floor applied.
        levels = []
        finalize = squarespan.beam._finalize

        def recording(pool):
            levels.append(finalize(pool))
            return levels[-1]

        monkeypatch.setattr(squarespan.beam, "_finalize", recording)
        beam_search(BeamConfig(mode="square", n_target=11, beam_width=200))
        arrivals = {1: [], 2: []}
        for key, m in levels[-1]:
            pts = key_to_pointset(key).points
            pts2 = _doubled(pts)
            for d, s, new in _children(True, pts, pts2, m, {1: 0, 2: 0}):
                arrivals[d].append((s, pts2, new))
        return arrivals.values()

    def test_cut_pools_finalize_identically(self, monkeypatch):
        for arrivals in self._arrivals(monkeypatch):
            # A pool wider than its class count keys every candidate.
            every = _Pool(10**9, 10**9)
            for arrival in arrivals:
                every.add(*arrival)
            every = _finalize(every)
            assert len(every) > 200
            for width in (1, 20, 200):
                for cap in (1, 2, 8, 10**9):
                    pool = _Pool(width, cap)
                    for arrival in arrivals:
                        pool.add(*arrival)
                        assert pool.stored <= cap
                    assert _finalize(pool) == every[:width], (width, cap)
                    assert (pool.cuts > 0) == (cap < 10**9)

    def test_class_at_two_scores_raises_in_cut(self):
        pool = _Pool(5, 1)
        pool.add(3, TRIANGLE2, ((2, 2),))  # completes the unit square
        with pytest.raises(RuntimeError, match="same class at two scores"):
            pool.add(2, TRIANGLE2, ((2, 2),))  # a second waiting: cut


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            BeamConfig(mode="pentagon", n_target=8)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            BeamConfig(mode="rit", n_target=8, beam_width=0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            BeamConfig(mode="square", n_target=3)

    def test_tsv_layout(self):
        res = beam_search(BeamConfig(mode="rit", n_target=5, beam_width=5))
        lines = res.to_tsv().splitlines()
        assert lines[0] == "n\tbest\twitness"
        assert len(lines) == 4  # levels 3, 4, 5
