"""Isomorph-free generation by 1-extension (rits) and 2-extension (squares).

A 1-extension adds, for some pair of points, one of the six third vertices
completing an isosceles right triangle on the pair; a 2-extension adds the
missing vertices (one or two) of a square completed from a pair.  The
completions follow the doubled-coordinate convention of
:func:`squarespan.geometry.pair_completions`; whenever a completion is
half-integer the whole set is doubled first, so everything stays on the
integer grid.

One child generator, ``_children``, serves both the breadth-first
enumerator here and the beam search in :mod:`squarespan.beam`.  It scores
every child from the candidate sweep itself: a new rit through candidate
v contains exactly one point pair of the parent, so each (pair,
third-vertex) hit contributes one rit; a new square with three parent
vertices is hit by three parent pairs, so those tallies are divided by
three, while a square with two parent vertices is hit exactly once.  The
caller names the steps to produce and a score floor for each.  A child
comes as its one or two added points, and ``_child_points`` builds it:
the enumerator builds every child it gets, the beam only those it keys.
The enumerator's per-chunk work runs through ``_map_chunks``, serially
or in a process pool.

The breadth-first enumerator expands level n into levels n+1 (and n+2 for
square modes, while n+2 <= n_max) and deduplicates classes by their
centered similarity key as the chunks' children arrive.

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


# ---------------------------------------------------------------------------
# Candidate sweeps.
#
# Candidates are keyed by the doubled coordinates of the pair-completion
# convention in ``squarespan.geometry``: the square sweep calls
# ``pair_completions``, and the rit sweep writes its six points inline.
# ---------------------------------------------------------------------------


def _rit_candidates(pts, member):
    """Map doubled candidate -> number of new rits it completes."""
    tally: dict[Point, int] = {}
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        for j in range(i + 1, n):
            x2, y2 = pts[j]
            lx = y1 - y2
            ly = x2 - x1
            for cx, cy in ((x1 + lx, y1 + ly), (x2 + lx, y2 + ly),
                           (x1 - lx, y1 - ly), (x2 - lx, y2 - ly)):
                if (cx, cy) not in member:
                    d = (2 * cx, 2 * cy)
                    tally[d] = tally.get(d, 0) + 1
            ax = x1 + x2 + lx
            ay = y1 + y2 + ly
            if ax & 1 or ay & 1 or (ax >> 1, ay >> 1) not in member:
                d = (ax, ay)
                tally[d] = tally.get(d, 0) + 1
            bx = x1 + x2 - lx
            by = y1 + y2 - ly
            if bx & 1 or by & 1 or (bx >> 1, by >> 1) not in member:
                d = (bx, by)
                tally[d] = tally.get(d, 0) + 1
    return tally


def _square_candidates(pts, member):
    """Candidate tallies for 2-extension of a parent set.

    Returns (t1, t2): t1 maps a doubled candidate v to three times the
    number of squares with three parent vertices completed by v; t2 maps
    a doubled candidate pair to the number of squares with two parent
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
                r_in = not (r[0] & 1 or r[1] & 1) \
                    and (r[0] >> 1, r[1] >> 1) in member
                s_in = not (s[0] & 1 or s[1] & 1) \
                    and (s[0] >> 1, s[1] >> 1) in member
                if r_in and s_in:
                    continue
                if r_in or s_in:
                    miss = s if r_in else r
                    t1[miss] = t1.get(miss, 0) + 1
                elif r <= s:
                    t2[(r, s)] = t2.get((r, s), 0) + 1
                else:
                    t2[(s, r)] = t2.get((s, r), 0) + 1
    return t1, t2


def _child_points(pts, new_doubled):
    """Parent points plus doubled candidates, halved back when possible.

    Returns (points, scaled): points is a tuple, and scaled is True when
    the parent had to be doubled to keep a half-integer candidate
    integral.
    """
    if all(not (x & 1 or y & 1) for x, y in new_doubled):
        return (*pts, *((x >> 1, y >> 1) for x, y in new_doubled)), False
    return (*((2 * x, 2 * y) for x, y in pts), *new_doubled), True


def _children(square: bool, pts, m: int, floors):
    """Children of one parent with figure count m, scored from the sweep.

    Yields (step, score, new_doubled) for 1-extensions (``square``
    false) or 2-extensions, where new_doubled is the tuple of the one or
    two added points in doubled coordinates; ``_child_points(pts,
    new_doubled)`` builds the child.  ``floors`` maps each step to
    produce (1, and 2 for squares) to the lowest child score worth
    yielding; other steps and lower scores are skipped.  Step-1
    children come first, each step in sweep order.
    """
    member = frozenset(pts)
    if square:
        t1, t2 = _square_candidates(pts, member)
        div = 3
    else:
        t1, t2, div = _rit_candidates(pts, member), {}, 1
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
# chunks in the same order and give the same results; the beam expands
# its parents in chunks of the same size.
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


def one_extensions(ps: PointSet) -> set[PointSet]:
    """All classes obtainable from P by adding one rit-completing vertex.

    One representative per similarity class; the whole set is doubled when
    a half-integer third vertex is used.
    """
    out: dict[tuple, PointSet] = {}
    tally = _rit_candidates(ps.points, ps.member_set)
    for v in tally:
        child = PointSet.of(_child_points(ps.points, [v])[0])
        out.setdefault(centered_key(child.points), child)
    return set(out.values())


def two_extensions(ps: PointSet) -> set[PointSet]:
    """All classes obtainable from P by completing a square from a pair.

    Adds the one or two missing vertices of some completion; completions
    already present are skipped, so every result is strictly larger.
    """
    out: dict[tuple, PointSet] = {}
    t1, t2 = _square_candidates(ps.points, ps.member_set)
    for v in t1:
        child = PointSet.of(_child_points(ps.points, [v])[0])
        out.setdefault(centered_key(child.points), child)
    for r, s in t2:
        child = PointSet.of(_child_points(ps.points, [r, s])[0])
        out.setdefault(centered_key(child.points), child)
    return set(out.values())


# ---------------------------------------------------------------------------
# Breadth-first enumeration.
# ---------------------------------------------------------------------------


@dataclass
class EnumTable:
    """Class counts per (n, m) cell of one enumeration run.

    ``delta_max`` (neighborhood mode) holds the maximum root degree per
    cell.  ``complete`` is False when a level budget stopped the run;
    ``note`` then names the first dropped level.
    """

    mode: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    delta_max: dict[tuple[int, int], int] | None = None
    complete: bool = True
    note: str = ""

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
    """Keyed children of (key, m) parents: a list of (step, child key,
    child m).  ``floors`` as for _children; in neighborhood mode children
    without a root are dropped before they are keyed."""
    mode, items, floors = args
    square = mode != "rit-1ext"
    rooted_only = mode == "neighborhood-2ext"
    out = []
    for key, m in items:
        pts = key_to_pointset(key).points
        for step, cm, new in _children(square, pts, m, floors):
            child = _child_points(pts, new)[0]
            if rooted_only and not root_degrees(PointSet.of(child)):
                continue
            out.append((step, centered_key(child), cm))
    return out


def enumerate_classes(mode: str, n_max: int, *, class_filter=None,
                      threads: int = 1,
                      max_level_classes: int | None = None) -> EnumTable:
    """Breadth-first isomorph-free run of the chosen extension mode.

    Classes are grouped into (n, m) cells, m being the total figure count
    (rits or squares).  ``class_filter(point_set, m)``, when given, drops
    failing classes from storage and further expansion.  A level whose
    class count would exceed ``max_level_classes`` stops the run with
    ``complete=False``; cells of fully processed levels stay exact.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    rooted_mode = mode == "neighborhood-2ext"
    if mode == "rit-1ext":
        seed = PointSet.of([(0, 0), (1, 0), (0, 1)])
        start_n = 3
        steps = (1,)
    else:
        seed = PointSet.of([(0, 0), (1, 0), (0, 1), (1, 1)])
        start_n = 4
        steps = (1, 2)
    seed_key = centered_key(seed.points)

    table = EnumTable(mode=mode, delta_max={} if rooted_mode else None)
    if n_max < start_n:
        return table
    levels: dict[int, dict[tuple, int]] = {start_n: {seed_key: 1}}

    for n in range(start_n, n_max + 1):
        bucket = levels.pop(n, {})
        for key, m in bucket.items():
            cell = (n, m)
            table.entries[cell] = table.entries.get(cell, 0) + 1
            if rooted_mode:
                deg = max(root_degrees(key_to_pointset(key)))
                if deg > table.delta_max.get(cell, 0):
                    table.delta_max[cell] = deg
        if n == n_max or not bucket:
            continue

        floors = {d: 0 for d in steps if n + d <= n_max}
        for children in _map_chunks(mode, list(bucket.items()), floors,
                                    threads):
            for step, key, cm in children:
                target = n + step
                if class_filter is not None \
                        and not class_filter(key_to_pointset(key), cm):
                    continue
                level = levels.setdefault(target, {})
                if level.setdefault(key, cm) != cm:
                    raise RuntimeError(
                        "same class reached with differing counts")
                if max_level_classes is not None \
                        and len(level) > max_level_classes:
                    table.complete = False
                    table.note = (f"level n={target} exceeded "
                                  f"{max_level_classes} classes; "
                                  f"cells with n >= {target} dropped")
                    for t in list(levels):
                        if t >= target:
                            del levels[t]
                    for cell in list(table.entries):
                        if cell[0] >= target:
                            del table.entries[cell]
                    return table
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
