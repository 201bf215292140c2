import pytest

from squarespan.corpus import (
    CorpusParseError,
    CorpusRecord,
    load_default_corpus,
    parse_corpus,
    record_metric,
    render_corpus,
    render_grid,
    shared_pair_squares,
    verify_corpus,
)
from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import similar
from squarespan.tables import RIT_EXACT, SQUARE_EXACT

MINIMAL = """\
---
id=rit-3-1
family=rit
n=3
expected=1
grid:
xx
x.
"""


class TestParsing:
    def test_minimal_record(self):
        (rec,) = parse_corpus(MINIMAL)
        assert rec.id == "rit-3-1"
        assert rec.family == "rit"
        assert rec.n == 3
        assert rec.expected == 1
        assert rec.grid == ("xx", "x.")
        assert count_rit(rec.point_set()) == 1

    def test_grid_to_points_orientation(self):
        rec = CorpusRecord(id="t", family="rit", n=3, expected=1,
                           grid=("xx", "x."))
        assert sorted(rec.points()) == [(0, -1), (0, 0), (1, 0)]

    def test_three_by_three(self):
        text = ("---\nid=square-9-x\nfamily=square\nn=9\nexpected=6\n"
                "grid:\nxxx\nxxx\nxxx\n")
        (rec,) = parse_corpus(text)
        assert count_squares(rec.point_set()) == 6
        assert record_metric(rec) == 6

    def test_multiple_records(self):
        records = parse_corpus(MINIMAL + MINIMAL.replace("-1", "-2"))
        assert [r.id for r in records] == ["rit-3-1", "rit-3-2"]

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "# trailing\n"
        assert len(parse_corpus(text)) == 1

    @pytest.mark.parametrize("mutation", [
        lambda t: t.replace("n=3", "n=4"),          # wrong cell count
        lambda t: t.replace("xx\n", "xa\n"),        # bad character
        lambda t: t.replace("id=rit-3-1\n", ""),    # missing field
        lambda t: t.replace("x.", "x"),             # ragged row
        lambda t: t.replace("family=rit", "family=pentagon"),
        lambda t: t.replace("grid:\n", ""),         # rows before grid marker
    ])
    def test_malformed_inputs_raise_with_line_number(self, mutation):
        with pytest.raises(CorpusParseError) as exc:
            parse_corpus(mutation(MINIMAL))
        assert "line" in str(exc.value)

    def test_blank_line_inside_grid_rejected(self):
        with pytest.raises(CorpusParseError):
            parse_corpus(MINIMAL.replace("xx\nx.", "xx\n\nx."))


class TestRendering:
    def test_render_grid(self):
        assert render_grid(PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])) == [
            "xx", "xx"]
        assert render_grid(PointSet.of(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])) == [
            "xxx", "xxx"]

    def test_render_normalizes_translation(self):
        shifted = PointSet.of([(7, -3), (8, -3), (7, -2), (8, -2)])
        assert render_grid(shifted) == ["xx", "xx"]

    def test_round_trip(self, corpus_records):
        for rec in corpus_records[:25]:
            (back,) = parse_corpus(render_corpus([rec]))
            assert back.id == rec.id
            assert similar(back.point_set(), rec.point_set())

    def test_render_corpus_parses_back(self, corpus_records):
        assert len(parse_corpus(render_corpus(corpus_records[:5]))) == 5


class TestDefaultCorpus:
    def test_load_shape(self, corpus_records):
        assert len(corpus_records) == 350
        families = {r.family for r in corpus_records}
        assert families == {
            "rit", "square", "axis-parallel", "mixed", "hamming-free"}

    def test_extremal_records_per_size(self, corpus_records):
        by_group = {}
        for r in corpus_records:
            by_group.setdefault((r.family, r.n), []).append(r)
        assert len(by_group[("rit", 8)]) == 5
        assert len(by_group[("square", 18)]) == 3
        for n, value in RIT_EXACT.items():
            assert all(r.expected == value for r in by_group[("rit", n)])
        for n, value in SQUARE_EXACT.items():
            assert all(r.expected == value for r in by_group[("square", n)])

    def test_hamming_free_records(self, corpus_records):
        recs = [r for r in corpus_records if r.family == "hamming-free"]
        assert {r.n for r in recs} == {10, 11, 12, 13}
        (thirteen,) = [r for r in recs if r.n == 13]
        assert thirteen.expected == 7
        for r in recs:
            assert shared_pair_squares(r.point_set()) == []
            assert count_squares(r.point_set()) == r.expected

    def test_verify_default_corpus(self, corpus_records):
        report = verify_corpus(corpus_records)
        assert report.passed
        assert "350/350" in report.summary()
        assert all(t.passed for t in report.tallies)
        assert report.collisions == ()


class TestVerificationFailures:
    def test_wrong_expected_value_detected(self, corpus_records):
        bad = [CorpusRecord(id=r.id, family=r.family, n=r.n,
                            expected=r.expected + (r.id == "rit-5-1"),
                            grid=r.grid)
               for r in corpus_records]
        report = verify_corpus(bad)
        assert not report.passed
        assert any(not res.passed and res.id == "rit-5-1"
                   for res in report.records)
        assert "rit-5-1" in report.summary()

    def test_missing_record_breaks_class_tally(self, corpus_records):
        trimmed = [r for r in corpus_records if r.id != "rit-8-5"]
        report = verify_corpus(trimmed)
        assert not report.passed
        assert all(res.passed for res in report.records)
        bad = [t for t in report.tallies if not t.passed]
        assert [(t.family, t.n) for t in bad] == [("rit", 8)]
        assert (bad[0].found, bad[0].expected) == (4, 5)

    def test_similar_duplicate_reported(self, corpus_records):
        base = next(r for r in corpus_records if r.id == "rit-8-1")
        flipped = CorpusRecord(
            id="rit-8-x", family="rit", n=8, expected=base.expected,
            grid=tuple(row[::-1] for row in base.grid))
        report = verify_corpus(list(corpus_records) + [flipped])
        assert not report.passed
        assert any({c.id_a, c.id_b} == {"rit-8-1", "rit-8-x"}
                   for c in report.collisions)
