"""Exact plane geometry on integer grids: squares and isosceles right triangles.

All coordinates are Python ints (arbitrary precision), all predicates are
exact.  The two counting routines for each figure type are deliberately
independent implementations (completion-based and subset-scan) so that one
can serve as an oracle for the other.  The module also holds the one
pair-completion primitive, ``pair_completions`` in doubled coordinates.

Conventions used throughout the package:

* a *square* is a set of four distinct points spanning a square of positive
  side length;
* a *rit* is a set of three distinct points spanning an isosceles right
  triangle (squared side lengths ``{t, t, 2t}``);
* points are ``(x, y)`` tuples, ordered lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

Point = tuple[int, int]


@dataclass(frozen=True)
class PointSet:
    """A non-empty tuple of distinct integer points in lexicographic order."""

    points: tuple[Point, ...]

    @classmethod
    def of(cls, pts) -> "PointSet":
        """Build a PointSet from any iterable of (x, y) pairs, deduplicating.

        Coordinates must have integral values; any other value raises
        ValueError instead of being truncated.
        """
        seen = set()
        for x, y in pts:
            ix, iy = int(x), int(y)
            if ix != x or iy != y:
                raise ValueError(f"non-integral point ({x}, {y})")
            seen.add((ix, iy))
        if not seen:
            raise ValueError("empty point set")
        return cls(tuple(sorted(seen)))

    @cached_property
    def member_set(self) -> frozenset[Point]:
        return frozenset(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return p in self.member_set


def sqdist(p: Point, q: Point) -> int:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def is_rit(a: Point, b: Point, c: Point) -> bool:
    """True iff the three points span an isosceles right triangle."""
    d = sorted((sqdist(a, b), sqdist(a, c), sqdist(b, c)))
    return d[0] > 0 and d[0] == d[1] and d[2] == 2 * d[0]


def is_square(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the four points span a square (any vertex order).

    The squared-distance multiset {s,s,s,s,2s,2s} with s > 0 characterizes
    squares among 4-point plane sets.
    """
    dd = sorted(
        sqdist(p, q) for p, q in itertools.combinations((a, b, c, d), 2)
    )
    s = dd[0]
    return s > 0 and dd[1] == s and dd[2] == s and dd[3] == s and dd[4] == 2 * s and dd[5] == 2 * s


# ---------------------------------------------------------------------------
# Pair completions, in doubled coordinates.
#
# For p1, p2 with difference (dx, dy), sum (sx, sy) and left normal
# L = (-dy, dx), a square on the pair has it either as a diagonal or as
# an edge.  Its two missing vertices, doubled so that a half-integer
# diagonal completion stays an integer point, come in this fixed order:
#   diagonal pair   (2M + L, 2M - L)          M = (p1 + p2) / 2
#   edge pair       (2(p2 - L), 2(p1 - L))
#   edge pair       (2(p2 + L), 2(p1 + L))
# A doubled point is a grid point iff both of its coordinates are even.
# The six points are exactly the third vertices completing a rit on the
# pair: p1 +- L and p2 +- L put the right angle at p1 or p2, M +- L/2 put
# it at the new vertex.  ``count_squares``, ``squares_of``, ``count_rit``
# and the rit sweep in ``squarespan.extension`` follow this convention
# with the arithmetic inline, because a call per pair measurably slows
# them.
# ---------------------------------------------------------------------------


def pair_completions(x1: int, y1: int, x2: int, y2: int):
    """The three completion pairs of a point pair, in doubled coordinates.

    Diagonal pair first, then the two edge pairs, as in the block above.
    """
    dx = x2 - x1
    dy = y2 - y1
    sx = x1 + x2
    sy = y1 + y2
    return (
        ((sx - dy, sy + dx), (sx + dy, sy - dx)),
        ((2 * (x2 + dy), 2 * (y2 - dx)), (2 * (x1 + dy), 2 * (y1 - dx))),
        ((2 * (x2 - dy), 2 * (y2 + dx)), (2 * (x1 - dy), 2 * (y1 + dx))),
    )


# ---------------------------------------------------------------------------
# Counting.
# ---------------------------------------------------------------------------


def count_squares(ps: PointSet) -> int:
    """Number of squares spanned by the set (pair-as-diagonal completion).

    Every unordered pair is treated as a candidate diagonal; the square
    exists iff both completions are present.  Each square is found via both
    of its diagonals, so the total is halved.
    """
    pts = ps.points
    member = ps.member_set
    n = len(pts)
    found = 0
    for i in range(n):
        x1, y1 = pts[i]
        for j in range(i + 1, n):
            x2, y2 = pts[j]
            # the diagonal pair of pair_completions, inline
            ax = x1 + x2 - y2 + y1
            if ax & 1:
                continue  # half-integer completions cannot be grid points
            ay = y1 + y2 + x2 - x1
            bx = x1 + x2 + y2 - y1
            by = y1 + y2 - x2 + x1
            if (ax >> 1, ay >> 1) in member and (bx >> 1, by >> 1) in member:
                found += 1
    if found & 1:
        raise RuntimeError("a square was found through one diagonal only")
    return found // 2


def count_squares_subsets(ps: PointSet) -> int:
    """Number of squares by brute-force scan over all 4-subsets (oracle)."""
    return sum(1 for q in itertools.combinations(ps.points, 4) if is_square(*q))


def count_rit(ps: PointSet) -> int:
    """Number of rits spanned by the set (rotation-completion method).

    For each unordered pair, membership of the six completing third
    vertices is tallied; each rit is seen once per contained pair, so the
    total is divided by 3.
    """
    pts = ps.points
    member = ps.member_set
    n = len(pts)
    found = 0
    for i in range(n):
        x1, y1 = pts[i]
        for j in range(i + 1, n):
            x2, y2 = pts[j]
            # the six points of pair_completions, inline and undoubled
            lx, ly = -(y2 - y1), x2 - x1
            if (x1 + lx, y1 + ly) in member:
                found += 1
            if (x2 + lx, y2 + ly) in member:
                found += 1
            if (x1 - lx, y1 - ly) in member:
                found += 1
            if (x2 - lx, y2 - ly) in member:
                found += 1
            ax = x1 + x2 + lx
            if not ax & 1:
                ay = y1 + y2 + ly
                if (ax >> 1, ay >> 1) in member:
                    found += 1
                if ((ax - 2 * lx) >> 1, (ay - 2 * ly) >> 1) in member:
                    found += 1
    if found % 3:
        raise RuntimeError("a rit was not found through all three pairs")
    return found // 3


def count_rit_subsets(ps: PointSet) -> int:
    """Number of rits by brute-force scan over all 3-subsets (oracle)."""
    return sum(1 for t in itertools.combinations(ps.points, 3) if is_rit(*t))


def count_axis_parallel_squares(ps: PointSet) -> int:
    """Number of spanned squares whose sides are parallel to the axes.

    Pairs (x, y), (x+d, y+d) with d > 0 are the lower-left/upper-right
    corners, so each axis-parallel square is counted exactly once.
    """
    member = ps.member_set
    found = 0
    for x, y in ps.points:
        for qx, qy in ps.points:
            d = qx - x
            if d > 0 and qy - y == d:
                if (x + d, y) in member and (x, y + d) in member:
                    found += 1
    return found


def srit_minus_3sq(ps: PointSet) -> int:
    """count_rit(P) - 3 * count_squares(P).

    Nonnegative for every point set: the vertices of each square already
    span four rits.
    """
    return count_rit(ps) - 3 * count_squares(ps)


def squares_of(ps: PointSet) -> list[tuple[Point, Point, Point, Point]]:
    """All spanned squares, each as a lex-sorted vertex 4-tuple, lex order."""
    pts = ps.points
    member = ps.member_set
    n = len(pts)
    out = set()
    for i in range(n):
        p1 = pts[i]
        x1, y1 = p1
        for j in range(i + 1, n):
            p2 = pts[j]
            x2, y2 = p2
            # the diagonal pair of pair_completions, inline
            ax = x1 + x2 - y2 + y1
            if ax & 1:
                continue
            ay = y1 + y2 + x2 - x1
            bx = x1 + x2 + y2 - y1
            by = y1 + y2 - x2 + x1
            a = (ax >> 1, ay >> 1)
            b = (bx >> 1, by >> 1)
            if a in member and b in member:
                out.add(tuple(sorted((p1, p2, a, b))))
    return sorted(out)


def rits_of(ps: PointSet) -> list[tuple[Point, Point, Point]]:
    """All spanned rits, each as a lex-sorted vertex triple, lex order."""
    return [t for t in itertools.combinations(ps.points, 3) if is_rit(*t)]


# ---------------------------------------------------------------------------
# Pair roles inside a square.
#
# With the four vertices in lex order v1 < v2 < v3 < v4, the diagonals are
# always {v1, v4} and {v2, v3} (the two vertices adjacent to the lex-minimal
# one are lex-between it and the opposite corner), so the role labels below
# are well defined by ordering alone:
#   e1={v1,v2}  e2={v1,v3}  e3={v2,v4}  e4={v3,v4}  d1={v1,v4}  d2={v2,v3}
# ---------------------------------------------------------------------------

_ROLE_BY_INDEX = {
    (0, 1): "e1",
    (0, 2): "e2",
    (1, 3): "e3",
    (2, 3): "e4",
    (0, 3): "d1",
    (1, 2): "d2",
}


def classify_pair(square, pair) -> str:
    """Role label of an unordered vertex pair inside a square.

    ``square`` is any ordering of the four vertices of a genuine square;
    ``pair`` must be two of them.  Raises ValueError otherwise.
    """
    if not is_square(*square):
        raise ValueError(f"{square} is not a square")
    vs = sorted(square)
    try:
        i, j = sorted(vs.index(p) for p in pair)
    except ValueError:
        raise ValueError(f"pair {pair} not contained in square {square}")
    if i == j:
        raise ValueError(f"pair {pair} is degenerate")
    return _ROLE_BY_INDEX[(i, j)]


def leftmost_edge_conflicts(ps: PointSet) -> list[tuple[Point, Point]]:
    """Pairs that act as the leftmost edge e1 in one square and as e2 in another.

    The returned list is empty for every set spanning squares at all -- no
    pair can play both roles -- so a non-empty result flags a counting bug.
    """
    roles: dict[tuple[Point, Point], set[str]] = {}
    for sq in squares_of(ps):
        for pair in itertools.combinations(sq, 2):
            roles.setdefault(pair, set()).add(classify_pair(sq, pair))
    return sorted(p for p, rs in roles.items() if "e1" in rs and "e2" in rs)
