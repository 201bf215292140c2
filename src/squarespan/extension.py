"""Isomorph-free generation by 1-extension (rits) and 2-extension (squares).

A 1-extension adds, for some pair of points, one of the six third vertices
completing an isosceles right triangle on the pair; a 2-extension adds the
missing vertices (one or two) of a square completed from a pair.  The
completions follow the doubled-coordinate convention of
:func:`squarespan.geometry.pair_completions`; whenever a completion is
half-integer the whole set is doubled first, so everything stays on the
integer grid.

One child generator, ``_children``, serves the breadth-first enumerator
here, the single-step extensions and the beam search in
:mod:`squarespan.beam`.  It scores every child from the candidate sweep
itself: a new rit through candidate v contains exactly one point pair of
the parent, so each (pair, third-vertex) hit contributes one rit; a new
square with three parent vertices is hit by three parent pairs, so those
tallies are divided by three, while a square with two parent vertices is
hit exactly once.  The caller names the steps to produce and a score
floor for each.  A child comes as its one or two added points in doubled
coordinates, and the callers key it as the doubled parent plus those
points: the child at twice its scale, whose similarity key is the
child's.  The enumerator keys every child it gets, the beam only those
its pools reach.  The enumerator's per-chunk work runs through
``_map_chunks``, serially or in a process pool.

The breadth-first enumerator expands level n into levels n+1 (and n+2 for
square modes, while n+2 <= n_max) and deduplicates classes by their
centered similarity key as the chunks' children arrive.  A level is a
dict from stored key to figure count.  The stored form of a key is
packed: its values as native 2-byte signed integers, the bytes of
``array('h', key)``, about 8x smaller than a tuple of Python ints.  A
key with a value outside the 2-byte range is stored as its tuple
instead.  The form depends only on the key, and bytes never equal a
tuple, so each class has exactly one stored form.  Children are packed
where they are keyed, so pool workers return bytes.  A stored key is
unpacked only where its points are needed: a parent once before it is
expanded, a child before the class filter sees it, a neighborhood class
before its roots are scanned.  Each expanded level leaves one
``EnumLevel`` record in the table.

The neighborhood mode keeps only neighborhood point sets: classes in
which the squares through some single vertex (a root) cover the whole
set.  Children without a root are pruned before storage and expansion,
so a class is counted exactly when some 2-extension chain from the unit
square passes through neighborhood point sets only; the root is free to
move from level to level.  delta_max records the largest root degree
per cell.  Neighborhoods and decompositions at a point live in
:mod:`squarespan.geometry`.
"""

from __future__ import annotations

import resource
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from squarespan.geometry import (
    Point,
    PointSet,
    pair_completions,
    rits_of,
    squares_of,
)
from squarespan.similarity import (
    canonical_key,
    centered_key,
    key_to_pointset,
)

MODES = ("rit-1ext", "square-2ext", "neighborhood-2ext")

# The unit rit and the unit square: where the rit and the square
# searches, enumeration and beam alike, start.
_SEEDS = {
    "rit": ((0, 0), (0, 1), (1, 0)),
    "square": ((0, 0), (0, 1), (1, 0), (1, 1)),
}


# ---------------------------------------------------------------------------
# Candidate sweeps.
#
# Candidates are keyed by the doubled coordinates of the pair-completion
# convention in ``squarespan.geometry``: the square sweep calls
# ``pair_completions``, and the rit sweep writes its six points inline.
# Both test membership against the parent's doubled points, so a
# half-integer candidate needs no parity test of its own.
# ---------------------------------------------------------------------------


def _doubled(pts) -> tuple[Point, ...]:
    """The points with both coordinates doubled, in the same order."""
    return tuple([(2 * x, 2 * y) for x, y in pts])


def _rit_candidates(pts2, member2):
    """Map doubled candidate -> number of new rits it completes.

    ``pts2`` and ``member2`` are the parent's points doubled, as a tuple
    and as a set.  On doubled points the four third vertices with the
    right angle at p1 or p2 come out doubled already, and the two with
    the right angle at the new vertex are half the doubled sums.
    """
    tally: dict[Point, int] = {}
    n = len(pts2)
    for i in range(n):
        x1, y1 = pts2[i]
        for j in range(i + 1, n):
            x2, y2 = pts2[j]
            lx = y1 - y2
            ly = x2 - x1
            for d in ((x1 + lx, y1 + ly), (x2 + lx, y2 + ly),
                      (x1 - lx, y1 - ly), (x2 - lx, y2 - ly),
                      ((x1 + x2 + lx) >> 1, (y1 + y2 + ly) >> 1),
                      ((x1 + x2 - lx) >> 1, (y1 + y2 - ly) >> 1)):
                if d not in member2:
                    tally[d] = tally.get(d, 0) + 1
    return tally


def _square_candidates(pts, member2):
    """Candidate tallies for 2-extension of a parent set.

    ``member2`` is the set of the parent's points doubled.  Returns
    (t1, t2): t1 maps a doubled candidate v to three times the number
    of squares with three parent vertices completed by v; t2 maps a
    doubled candidate pair to the number of squares with two parent
    vertices completed by it.
    """
    t1: dict[Point, int] = {}
    t2: dict[tuple[Point, Point], int] = {}
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        for j in range(i + 1, n):
            x2, y2 = pts[j]
            for r, s in pair_completions(x1, y1, x2, y2):
                if r in member2:
                    if s not in member2:
                        t1[s] = t1.get(s, 0) + 1
                elif s in member2:
                    t1[r] = t1.get(r, 0) + 1
                elif r <= s:
                    t2[(r, s)] = t2.get((r, s), 0) + 1
                else:
                    t2[(s, r)] = t2.get((s, r), 0) + 1
    return t1, t2


def _children(square: bool, pts, pts2, m: int, floors):
    """Children of one parent with figure count m, scored from the sweep.

    ``pts2`` is ``_doubled(pts)``.  Yields (step, score, new_doubled)
    for 1-extensions (``square`` false) or 2-extensions, where
    new_doubled is the tuple of the one or two added points in doubled
    coordinates, so ``pts2 + new_doubled`` is the child at twice its
    scale, which has the child's similarity key.  ``floors`` maps each
    step to produce (1, and 2 for squares) to the lowest child score
    worth yielding; other steps and lower scores are skipped.  Step-1
    children come first, each step in sweep order.
    """
    member2 = frozenset(pts2)
    if square:
        t1, t2 = _square_candidates(pts, member2)
        div = 3
    else:
        t1, t2, div = _rit_candidates(pts2, member2), {}, 1
    floor = floors.get(1)
    if floor is not None:
        for v, tally in t1.items():
            s = m + tally // div
            if s >= floor:
                yield 1, s, (v,)
    floor = floors.get(2)
    if floor is not None:
        for rq, pairs in t2.items():
            s = m + t1.get(rq[0], 0) // 3 + t1.get(rq[1], 0) // 3 + pairs
            if s >= floor:
                yield 2, s, rq


# Parents per task.  Fixed, so that serial and pooled runs see the same
# chunks in the same order and give the same results.
_CHUNK = 64


def _map_chunks(mode: str, items, floors, threads: int):
    """Yield _expand_chunk((mode, chunk, floors)) for consecutive
    _CHUNK-sized chunks of items.

    Results come in chunk order, each as soon as it is ready.  With more
    than one chunk and ``threads`` > 1 the tasks run in a process pool,
    which is shut down when the generator ends or is closed.
    """
    tasks = [(mode, items[i:i + _CHUNK], floors)
             for i in range(0, len(items), _CHUNK)]
    if threads == 1 or len(tasks) <= 1:
        yield from map(_expand_chunk, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        yield from pool.map(_expand_chunk, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Single-step public operations.
# ---------------------------------------------------------------------------


def _single_steps(square: bool, ps: PointSet) -> set[PointSet]:
    """One grid-normalized representative per class of the children of P
    (1-extensions, or 2-extensions when ``square``), unfiltered."""
    pts2 = _doubled(ps.points)
    keys = {centered_key(pts2 + new)
            for _, _, new in _children(square, ps.points, pts2, 0,
                                       {1: 0, 2: 0})}
    return {key_to_pointset(k) for k in keys}


def one_extensions(ps: PointSet) -> set[PointSet]:
    """All classes obtainable from P by adding one rit-completing vertex.

    One grid-normalized representative per similarity class.
    """
    return _single_steps(False, ps)


def two_extensions(ps: PointSet) -> set[PointSet]:
    """All classes obtainable from P by completing a square from a pair.

    Adds the one or two missing vertices of some completion; completions
    already present are skipped, so every result is strictly larger.  One
    grid-normalized representative per similarity class.
    """
    return _single_steps(True, ps)


# ---------------------------------------------------------------------------
# Breadth-first enumeration.
# ---------------------------------------------------------------------------


class _Shorts(dict):
    """count -> ``struct.Struct`` of count native 2-byte signed integers,
    made on first use.  It packs a key to ``array('h', key).tobytes()``
    in half the time."""

    def __missing__(self, count: int) -> struct.Struct:
        self[count] = shorts = struct.Struct(f"{count}h")
        return shorts


_SHORTS = _Shorts()


def _pack(key: tuple[int, ...]):
    """The stored form of a centered key: 2-byte packed bytes, or the
    key itself when some value does not fit in 2 bytes."""
    try:
        return _SHORTS[len(key)].pack(*key)
    except struct.error:
        return key


def _unpack(stored) -> tuple[int, ...]:
    """The centered key of a stored form."""
    if isinstance(stored, tuple):
        return stored
    return _SHORTS[len(stored) >> 1].unpack(stored)


@dataclass
class EnumLevel:
    """What expanding one level cost: its ``parents``, the child ``keys``
    computed from them, the new classes they ``stored`` in later levels,
    the ``seconds`` taken and the process's peak RSS after it
    (``rss_mb``, ``ru_maxrss``)."""

    n: int
    parents: int
    keys: int = 0
    stored: int = 0
    seconds: float = 0.0
    rss_mb: float = 0.0


@dataclass
class EnumTable:
    """Class counts per (n, m) cell of one enumeration run.

    ``delta_max`` (neighborhood mode) holds the maximum root degree per
    cell.  ``complete`` is False when a level budget stopped the run;
    ``note`` then names the level that overflowed and the first dropped
    level.  ``levels`` holds one record per expanded level, the one that
    stopped the run included.
    """

    mode: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    delta_max: dict[tuple[int, int], int] | None = None
    complete: bool = True
    note: str = ""
    levels: list[EnumLevel] = field(default_factory=list)

    def to_tsv(self) -> str:
        with_delta = self.delta_max is not None
        lines = ["n\tm\tclasses" + ("\tdelta_max" if with_delta else "")]
        by_n: dict[int, list[int]] = {}
        for (n, m) in self.entries:
            by_n.setdefault(n, []).append(m)
        for n in sorted(by_n):
            for m in range(min(by_n[n]), max(by_n[n]) + 1):
                row = [str(n), str(m), str(self.entries.get((n, m), 0))]
                if with_delta:
                    row.append(str(self.delta_max.get((n, m), 0)))
                lines.append("\t".join(row))
        if self.note:
            lines.append(f"# {self.note}")
        return "\n".join(lines) + "\n"


def root_degrees(ps: PointSet) -> list[int]:
    """Square-degrees of the roots of P: vertices whose squares cover P.

    Empty when P is not a neighborhood point set of any of its vertices.
    """
    sqs = squares_of(ps)
    out = []
    for p in ps.points:
        nb = {p}
        deg = 0
        for sq in sqs:
            if p in sq:
                nb.update(sq)
                deg += 1
        if nb == ps.member_set:
            out.append(deg)
    return out


def _expand_chunk(args):
    """Keyed children of (stored key, m) parents: a list of (step, stored
    child key, child m).  ``floors`` as for _children; in neighborhood
    mode children without a root are dropped before they are keyed.
    Each child is built and keyed at twice its scale, which changes
    neither its key nor its root degrees."""
    mode, items, floors = args
    square = mode != "rit-1ext"
    rooted_only = mode == "neighborhood-2ext"
    out = []
    for stored, m in items:
        pts = key_to_pointset(_unpack(stored)).points
        pts2 = _doubled(pts)
        for step, cm, new in _children(square, pts, pts2, m, floors):
            child = pts2 + new
            if rooted_only and not root_degrees(PointSet.of(child)):
                continue
            out.append((step, _pack(centered_key(child)), cm))
    return out


def enumerate_classes(mode: str, n_max: int, *, class_filter=None,
                      threads: int = 1,
                      max_level_classes: int | None = None,
                      on_level=None) -> EnumTable:
    """Breadth-first isomorph-free run of the chosen extension mode.

    Classes are grouped into (n, m) cells, m being the total figure count
    (rits or squares).  ``class_filter(point_set, m)``, when given, drops
    failing classes from storage and further expansion.  A level whose
    class count would exceed ``max_level_classes`` stops the run with
    ``complete=False``; cells of fully processed levels stay exact.
    ``on_level(record)``, when given, receives each level's
    ``EnumLevel`` as soon as the level is expanded.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if max_level_classes is not None and max_level_classes < 1:
        raise ValueError("max_level_classes must be at least 1")
    rooted_mode = mode == "neighborhood-2ext"
    seed = _SEEDS["rit" if mode == "rit-1ext" else "square"]
    start_n = len(seed)
    steps = (1,) if mode == "rit-1ext" else (1, 2)
    seed_key = _pack(centered_key(seed))

    table = EnumTable(mode=mode, delta_max={} if rooted_mode else None)
    if n_max < start_n:
        return table
    levels: dict[int, dict] = {start_n: {seed_key: 1}}

    def record(stat: EnumLevel, start: float) -> None:
        stat.seconds = round(time.perf_counter() - start, 3)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        stat.rss_mb = round(rss_kb / 1024, 1)
        table.levels.append(stat)
        if on_level is not None:
            on_level(stat)

    for n in range(start_n, n_max + 1):
        bucket = levels.pop(n, {})
        for stored, m in bucket.items():
            cell = (n, m)
            table.entries[cell] = table.entries.get(cell, 0) + 1
            if rooted_mode:
                deg = max(root_degrees(key_to_pointset(_unpack(stored))))
                if deg > table.delta_max.get(cell, 0):
                    table.delta_max[cell] = deg
        if n == n_max or not bucket:
            continue

        start = time.perf_counter()
        stat = EnumLevel(n=n, parents=len(bucket))
        floors = {d: 0 for d in steps if n + d <= n_max}
        for children in _map_chunks(mode, list(bucket.items()), floors,
                                    threads):
            stat.keys += len(children)
            for step, stored, cm in children:
                target = n + step
                if class_filter is not None and not class_filter(
                        key_to_pointset(_unpack(stored)), cm):
                    continue
                level = levels.setdefault(target, {})
                known = level.get(stored)
                if known is None:
                    level[stored] = cm
                    stat.stored += 1
                elif known != cm:
                    raise RuntimeError(
                        "same class reached with differing counts")
                if max_level_classes is not None \
                        and len(level) > max_level_classes:
                    # Level n has not fed n+1 in full, whichever level
                    # overflowed, and no cell past n is in the table yet.
                    table.complete = False
                    table.note = (f"level n={target} exceeded "
                                  f"{max_level_classes} classes; "
                                  f"cells with n >= {n + 1} dropped")
                    record(stat, start)
                    return table
        record(stat, start)
    return table


# ---------------------------------------------------------------------------
# Obtainability closures and maximal subconfigurations.
# ---------------------------------------------------------------------------


def _closure(start, hyperedges) -> frozenset:
    """Monotone closure: absorb any hyperedge sharing >= 2 points."""
    s = set(start)
    changed = True
    while changed:
        changed = False
        for e in hyperedges:
            k = sum(1 for v in e if v in s)
            if 2 <= k < len(e):
                s.update(e)
                changed = True
    return frozenset(s)


def is_1ext_obtainable(ps: PointSet) -> bool:
    """True iff P is a 1-extension closure of one of its own rits."""
    edges = rits_of(ps)
    full = ps.member_set
    return any(_closure(t, edges) == full for t in edges)


def _maximal_closure(ps: PointSet, edges, kind: str) -> PointSet:
    if not edges:
        raise ValueError(f"point set spans no {kind}")
    best: list[frozenset] = []
    for e in edges:
        c = _closure(e, edges)
        if not best or len(c) > len(best[0]):
            best = [c]
        elif len(c) == len(best[0]) and c not in best:
            best.append(c)
    if len(best) == 1:
        return PointSet.of(best[0])
    candidates = [PointSet.of(c) for c in best]
    return min(candidates, key=lambda p: canonical_key(p).data)


def maximal_1ext_subconfig(ps: PointSet) -> PointSet:
    """A maximum-cardinality 1-extension-obtainable subset of P.

    Ties between distinct maximum closures break by minimal canonical key.
    """
    return _maximal_closure(ps, rits_of(ps), "rit")


def is_2ext_obtainable(ps: PointSet) -> bool:
    """True iff P is a 2-extension closure of one of its own squares."""
    edges = squares_of(ps)
    full = ps.member_set
    return any(_closure(sq, edges) == full for sq in edges)


def maximal_2ext_subconfig(ps: PointSet) -> PointSet:
    """A maximum-cardinality 2-extension-obtainable subset of P."""
    return _maximal_closure(ps, squares_of(ps), "square")
