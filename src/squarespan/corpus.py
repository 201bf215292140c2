"""Record point-set corpus: parsing, rendering and verification.

The package ships a corpus of known-best configurations as a plain text
file (``data/corpus.txt``).  Each record carries a family tag that fixes
the metric to recompute:

========== ==========================================================
family      metric compared against the ``expected`` field
========== ==========================================================
rit         count_rit
mixed       count_rit - 3 * count_squares
square      count_squares
hamming-free count_squares, plus: no point pair lies in two squares
axis-parallel count_axis_parallel_squares
========== ==========================================================

Verification additionally checks that the records of each (family, n)
group are pairwise dissimilar and that the group sizes agree with the
class-count tables in :mod:`squarespan.tables`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from squarespan import tables
from squarespan.geometry import (
    Point,
    PointSet,
    count_axis_parallel_squares,
    count_rit,
    count_squares,
    squares_of,
    srit_minus_3sq,
)
from squarespan.similarity import centered_key

FAMILIES = ("rit", "mixed", "square", "hamming-free", "axis-parallel")


def grid_points(rows) -> list[Point]:
    """The 'x' cells of grid rows as plane points; row r is y = -r."""
    return [(c, -r) for r, row in enumerate(rows)
            for c, ch in enumerate(row) if ch == "x"]


class CorpusParseError(ValueError):
    """Malformed corpus text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CorpusRecord:
    """One configuration: id, family tag, point count, claimed value, grid."""

    id: str
    family: str
    n: int
    expected: int
    grid: tuple[str, ...]

    def points(self) -> list[Point]:
        """Grid cells as plane points; row r of the listing is y = -r."""
        return grid_points(self.grid)

    def point_set(self) -> PointSet:
        return PointSet.of(self.points())


@dataclass(frozen=True)
class RecordResult:
    """Verification outcome of a single record."""

    id: str
    family: str
    n: int
    expected: int
    computed: int
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class TallyResult:
    """Class-count comparison of one (family, n) group against the tables."""

    family: str
    n: int
    found: int
    expected: int
    passed: bool


@dataclass(frozen=True)
class SimilarityCollision:
    """Two records of the same group that turned out to be similar."""

    family: str
    n: int
    id_a: str
    id_b: str


@dataclass(frozen=True)
class VerifyReport:
    records: tuple[RecordResult, ...]
    tallies: tuple[TallyResult, ...]
    collisions: tuple[SimilarityCollision, ...]

    @property
    def passed(self) -> bool:
        return (all(r.passed for r in self.records)
                and all(t.passed for t in self.tallies)
                and not self.collisions)

    def summary(self) -> str:
        ok = sum(1 for r in self.records if r.passed)
        lines = [f"records: {ok}/{len(self.records)} passed"]
        for r in self.records:
            if not r.passed:
                lines.append(f"  FAIL {r.id}: computed {r.computed}, "
                             f"expected {r.expected}"
                             + (f" ({r.note})" if r.note else ""))
        bad_tallies = [t for t in self.tallies if not t.passed]
        lines.append(f"class tallies: {len(self.tallies) - len(bad_tallies)}"
                     f"/{len(self.tallies)} passed")
        for t in bad_tallies:
            lines.append(f"  FAIL {t.family} n={t.n}: found {t.found} "
                         f"classes, table says {t.expected}")
        if self.collisions:
            for c in self.collisions:
                lines.append(f"  SIMILAR {c.family} n={c.n}: {c.id_a} ~ {c.id_b}")
        else:
            lines.append("dissimilarity: all groups pairwise dissimilar")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parsing and rendering.
# ---------------------------------------------------------------------------

_HEADER_FIELDS = ("id", "family", "n", "expected")


def parse_corpus(text: str) -> list[CorpusRecord]:
    """Parse the record format; see the module docstring of the data file.

    Records are separated by ``---`` lines; each consists of the header
    fields id=, family=, n=, expected= followed by ``grid:`` and the grid
    rows.  Lines whose first non-blank character is ``#`` are comments.
    Raises CorpusParseError (with line number) on ragged rows, characters
    outside {x, .}, a wrong number of 'x' cells, missing fields, or an
    ``n=`` or ``expected=`` value that is not an integer.
    """
    records: list[CorpusRecord] = []
    fields: dict[str, str | int] = {}
    grid: list[str] = []
    in_grid = False
    start_line = 0

    def flush(line: int):
        nonlocal fields, grid, in_grid
        if not fields and not grid:
            return
        missing = [f for f in _HEADER_FIELDS if f not in fields]
        if missing:
            raise CorpusParseError(f"record missing field(s) {missing}", line)
        if not grid:
            raise CorpusParseError("record has no grid", line)
        n = fields["n"]
        xs = sum(row.count("x") for row in grid)
        if xs != n:
            raise CorpusParseError(
                f"grid of {fields['id']} has {xs} 'x' cells, n={n}", line)
        if fields["family"] not in FAMILIES:
            raise CorpusParseError(
                f"unknown family {fields['family']!r}", start_line)
        records.append(CorpusRecord(
            id=fields["id"], family=fields["family"], n=n,
            expected=fields["expected"], grid=tuple(grid)))
        fields, grid, in_grid = {}, [], False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if line.lstrip().startswith("#"):
            continue
        if line.strip() == "---":
            flush(lineno)
            start_line = lineno
            continue
        if not line.strip():
            if in_grid and grid:
                raise CorpusParseError("blank line inside grid", lineno)
            continue
        if in_grid:
            if set(line) - set("x."):
                raise CorpusParseError(
                    f"grid characters outside {{x, .}}: {line!r}", lineno)
            if grid and len(line) != len(grid[0]):
                raise CorpusParseError(
                    f"ragged grid row (length {len(line)}, "
                    f"expected {len(grid[0])})", lineno)
            grid.append(line)
            continue
        if line.strip() == "grid:":
            in_grid = True
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _HEADER_FIELDS:
            raise CorpusParseError(f"unrecognized line {line!r}", lineno)
        if key in ("n", "expected"):
            try:
                value = int(value)
            except ValueError:
                raise CorpusParseError(
                    f"{key}= is not an integer: {value!r}", lineno) from None
        fields[key] = value
    flush(lineno if text else 0)
    return records


def render_grid(ps: PointSet) -> list[str]:
    """Rows of 'x'/'.' over the minimal bounding box, top row first.

    parse of the rendered rows reproduces the set up to translation.
    """
    xs = [p[0] for p in ps.points]
    ys = [p[1] for p in ps.points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    member = ps.member_set
    return ["".join("x" if (x, y) in member else "."
                    for x in range(minx, maxx + 1))
            for y in range(maxy, miny - 1, -1)]


def render_corpus(records) -> str:
    """Serialize records back to the corpus text format (parse inverse)."""
    out: list[str] = []
    for rec in records:
        out.append("---")
        out.append(f"id={rec.id}")
        out.append(f"family={rec.family}")
        out.append(f"n={rec.n}")
        out.append(f"expected={rec.expected}")
        out.append("grid:")
        out.extend(rec.grid)
    return "\n".join(out) + "\n"


def load_default_corpus() -> list[CorpusRecord]:
    """The corpus shipped with the package."""
    text = resources.files("squarespan").joinpath("data/corpus.txt").read_text()
    return parse_corpus(text)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def shared_pair_squares(ps: PointSet) -> list[tuple[Point, Point]]:
    """Point pairs lying in two or more spanned squares."""
    uses = Counter()
    for sq in squares_of(ps):
        for pair in itertools.combinations(sq, 2):
            uses[pair] += 1
    return sorted(pair for pair, k in uses.items() if k > 1)


def record_metric(rec: CorpusRecord) -> int:
    ps = rec.point_set()
    if rec.family == "rit":
        return count_rit(ps)
    if rec.family == "mixed":
        return srit_minus_3sq(ps)
    if rec.family in ("square", "hamming-free"):
        return count_squares(ps)
    if rec.family == "axis-parallel":
        return count_axis_parallel_squares(ps)
    raise ValueError(f"unknown family {rec.family!r}")


def _verify_one(rec: CorpusRecord) -> RecordResult:
    computed = record_metric(rec)
    passed = computed == rec.expected
    note = ""
    if rec.family == "hamming-free":
        shared = shared_pair_squares(rec.point_set())
        if shared:
            passed = False
            note = f"{len(shared)} point pair(s) lie in two squares"
    return RecordResult(rec.id, rec.family, rec.n, rec.expected,
                        computed, passed, note)


_CLASS_TABLES = {
    "rit": tables.RIT_CLASS_COUNTS,
    "square": tables.SQUARE_CLASS_COUNTS,
}


def verify_corpus(records) -> VerifyReport:
    """Recompute every record's metric and the per-group class structure."""
    results = tuple(_verify_one(rec) for rec in records)

    found = Counter((rec.family, rec.n) for rec in records)
    tallies: list[TallyResult] = []
    for family, table in _CLASS_TABLES.items():
        # Tallies exist only for sizes with a transcribed class count.
        # The square table deliberately skips n=5: every 5-point superset
        # of a square is extremal there, so the number of dissimilar
        # attaining sets is unbounded and no class count is tracked.
        for n in sorted(table):
            have = found.get((family, n), 0)
            tallies.append(TallyResult(family, n, have, table[n],
                                       have == table[n]))

    collisions: list[SimilarityCollision] = []
    groups: dict[tuple[str, int], dict] = {}
    for rec in records:
        key = centered_key(rec.points())
        group = groups.setdefault((rec.family, rec.n), {})
        if key in group:
            collisions.append(SimilarityCollision(
                rec.family, rec.n, group[key], rec.id))
        else:
            group[key] = rec.id

    return VerifyReport(results, tuple(tallies), tuple(collisions))
