import pytest

import squarespan.beam
from squarespan.beam import BeamConfig, _finalize, _Pool, beam_search
from squarespan.extension import one_extensions, two_extensions
from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import centered_key, key_to_pointset
from squarespan.tables import RIT_EXACT, RIT_LOWER, SQUARE_EXACT


def reference_beam(mode, n_target, width):
    """Plain reimplementation of width-limited level search.

    Children are generated by the single-step extension functions and
    rescored from scratch; retention keeps the ``width`` best classes by
    (score desc, class key asc).  Serves as an oracle for the incremental
    pooled implementation.
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


class TestDeterminismAndThreads:
    def test_repeat_runs_identical(self):
        cfg = BeamConfig(mode="square", n_target=11, beam_width=40)
        a, b = beam_search(cfg), beam_search(cfg)
        assert a.best == b.best
        assert a.witnesses == b.witnesses

    def test_thread_count_does_not_change_results(self):
        one = beam_search(BeamConfig(mode="rit", n_target=8, beam_width=30))
        two = beam_search(
            BeamConfig(mode="rit", n_target=8, beam_width=30, threads=2))
        assert one.best == two.best
        assert one.witnesses == two.witnesses

    def test_worker_pool_matches_serial(self, pool_starts):
        # Width 70 retains more than one 64-parent chunk from level 6 on.
        one = beam_search(BeamConfig(mode="rit", n_target=8, beam_width=70))
        assert not pool_starts
        two = beam_search(
            BeamConfig(mode="rit", n_target=8, beam_width=70, threads=2))
        assert pool_starts
        assert one.best == two.best
        assert one.witnesses == two.witnesses
        assert one.levels == two.levels

    def test_witness_recount_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(squarespan.beam, "count_squares", lambda ps: 0)
        with pytest.raises(RuntimeError, match="witness recount"):
            beam_search(BeamConfig(mode="square", n_target=6, beam_width=5))


class TestLazyChildren:
    def test_only_keyed_children_are_built(self, monkeypatch):
        built = []
        build = squarespan.beam._child_points

        def counting(pts, new_doubled):
            built.append(new_doubled)
            return build(pts, new_doubled)

        monkeypatch.setattr(squarespan.beam, "_child_points", counting)
        res = beam_search(
            BeamConfig(mode="square", n_target=14, beam_width=50))
        # The seed level is keyed without building a child, and a pool
        # rebuild would key candidates whose count LevelStat drops.
        assert all(stat.rebuilds == 0 for stat in res.levels)
        assert len(built) == sum(stat.keyed for stat in res.levels[1:])
        assert len(built) < sum(stat.collected for stat in res.levels)

    def test_class_at_two_scores_raises(self):
        pool = _Pool(100)
        triangle = ((0, 0), (1, 0), (0, 1))
        pool.add(3, triangle, ((2, 2),))  # completes the unit square
        pool.add(2, triangle, ((2, 2),))
        with pytest.raises(RuntimeError, match="same class at two scores"):
            _finalize(pool, 5)


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

    def test_bad_threads(self):
        with pytest.raises(ValueError):
            BeamConfig(mode="rit", n_target=8, threads=0)

    def test_tsv_layout(self):
        res = beam_search(BeamConfig(mode="rit", n_target=5, beam_width=5))
        lines = res.to_tsv().splitlines()
        assert lines[0] == "n\tbest\twitness"
        assert len(lines) == 4  # levels 3, 4, 5
