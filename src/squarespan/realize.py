"""Oriented square sets and their exact realizability over the rationals.

An oriented square set of order n prescribes counterclockwise square
quadruples on the labels 1..n.  Identifying point j with the complex
number z_j = x_j + i*y_j, each prescribed square (a, b, c, d) imposes

    z_a - z_b + z_c - z_d = 0      (opposite vertices share a midpoint)
    z_d - z_a = i * (z_b - z_a)    (one side is the other rotated by 90)

and the set is realizable exactly when the resulting linear system has a
solution with pairwise distinct z_j.  Everything here is exact: each
square gives four sparse rows of Fractions with four nonzero entries
apiece, and systems are solved by Gauss-Jordan elimination over sparse
rows, dropping entries that cancel.  Each solution space writes every
label's point once as two affine forms on the space, its label table.
Labels coincide in every solution exactly when their forms are equal,
and a quadruple is forced when the forms of c and d equal the
completion of the side a, b to a counterclockwise square, which a dict
from forms to labels finds for all pairs in O(n^2) lookups.
Witnesses are the first integer point of the moment curve
(B, B^2, ..., B^dim) where no avoided form group vanishes; a form that
is not identically zero vanishes at no more than dim values of B, so the
search ends by B = dim * (number of groups).

The unrestricted solution space always contains the constant solutions,
so its dimension is at least 2; a set whose space consists of constants
only is maximally degenerate.  Gauging pins the first square's first
two labels to 0 and i, cutting the similarity freedom out of the space.
The gauged solve continues from the unrestricted one: it reduces only
the four gauge rows against the pivot rows the unrestricted space keeps,
so each decision eliminates the square system once and builds two label
tables, one per space.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from squarespan.geometry import PointSet, sqdist, squares_of
from squarespan.similarity import normalize_to_grid

Quad = tuple[int, int, int, int]
RatPoint = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class OrientedSquareSet:
    """Counterclockwise square quadruples on the labels 1..order.

    Each quadruple lists pairwise distinct labels with the smallest
    first, which makes tuple equality coincide with equality of
    oriented 4-cycles.
    """

    order: int
    squares: tuple[Quad, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        seen = set()
        for q in self.squares:
            if len(q) != 4 or len(set(q)) != 4:
                raise ValueError(f"quadruple {q} has repeated labels")
            if not all(1 <= v <= self.order for v in q):
                raise ValueError(f"quadruple {q} outside labels 1..{self.order}")
            if q[0] != min(q):
                raise ValueError(f"quadruple {q} must start at its minimum")
            if q in seen:
                raise ValueError(f"duplicate quadruple {q}")
            seen.add(q)

    def __len__(self) -> int:
        return len(self.squares)


@dataclass(frozen=True)
class SolutionSpace:
    """Affine solution set {particular + sum t_i * basis_i}."""

    particular: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    gauge: tuple[tuple[int, Fraction, Fraction], ...]
    # The reduced pivot rows {column: {column: Fraction}} of the solve
    # that made this space, for solve_gauged to continue from.
    _pivots: dict | None = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def points_at(self, params) -> list[RatPoint]:
        """Each label's point in the solution for the given parameters."""
        if len(params) != len(self.basis):
            raise ValueError("parameter count must match the dimension")
        v = list(self.particular)
        for t, b in zip(params, self.basis):
            if t:
                for i, c in enumerate(b):
                    v[i] += t * c
        return [(v[2 * i], v[2 * i + 1]) for i in range(len(v) // 2)]

    @cached_property
    def table(self) -> list:
        """Each label's point as its two coordinate forms: entry j - 1
        holds (x_j, y_j).  Two labels coincide in every solution exactly
        when their entries are equal."""
        return [(_form_on_space(self, ((2 * j, 1),)),
                 _form_on_space(self, ((2 * j + 1, 1),)))
                for j in range(len(self.particular) // 2)]


@dataclass(frozen=True)
class RealizabilityReport:
    """Realizability verdict with exact certificates.

    ``dimension`` is the dimension of the unrestricted solution space
    (constants included).  ``degenerate_pairs`` lists the label pairs
    whose difference vanishes on every solution -- non-empty exactly
    when not realizable.  ``forced_squares`` lists quadruples outside
    the prescribed set spanned in every realization; it is empty when
    the set is not realizable.
    """

    realizable: bool
    dimension: int
    witness: tuple[RatPoint, ...] | None
    degenerate_pairs: tuple[tuple[int, int], ...]
    forced_squares: tuple[Quad, ...]

    def to_json(self) -> str:
        data = {
            "realizable": self.realizable,
            "dimension": self.dimension,
            "witness": None if self.witness is None else [
                [f"{p[0].numerator}/{p[0].denominator}",
                 f"{p[1].numerator}/{p[1].denominator}"]
                for p in self.witness],
            "degenerate_pairs": [list(p) for p in self.degenerate_pairs],
            "forced_squares": [list(q) for q in self.forced_squares],
        }
        return json.dumps(data, indent=2)


# ---------------------------------------------------------------------------
# Building oriented square sets.
# ---------------------------------------------------------------------------


def _ccw_cycle(square, start):
    """The square's vertices in counterclockwise order from ``start``."""
    others = sorted((sqdist(start, p), p) for p in square if p != start)
    n1, n2, opposite = others[0][1], others[1][1], others[2][1]
    ax, ay = n1[0] - start[0], n1[1] - start[1]
    bx, by = n2[0] - start[0], n2[1] - start[1]
    if ax * by - ay * bx > 0:
        return (start, n1, opposite, n2)
    return (start, n2, opposite, n1)


def oss_from_pointset(ps: PointSet, labeling=None) -> OrientedSquareSet:
    """The maximal oriented square set of a point set.

    Labels follow ``labeling`` (a sequence assigning label i+1 to
    ``labeling[i]``) or default to lexicographic point order.  One
    quadruple per spanned square, counterclockwise from its smallest
    label; quadruples are sorted.
    """
    pts = tuple(labeling) if labeling is not None else ps.points
    if sorted(pts) != list(ps.points):
        raise ValueError("labeling must list every point exactly once")
    label = {p: i + 1 for i, p in enumerate(pts)}
    quads = []
    for sq in squares_of(ps):
        start = min(sq, key=lambda p: label[p])
        quads.append(tuple(label[p] for p in _ccw_cycle(sq, start)))
    return OrientedSquareSet(order=len(ps), squares=tuple(sorted(quads)))


def parse_oss(text: str) -> OrientedSquareSet:
    """Parse the text format: a line ``n=<order>``, then one square per
    line as four space-separated labels.  '#' starts a comment."""
    order = None
    squares = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if order is None:
            if not line.startswith("n="):
                raise ValueError(f"line {lineno}: expected 'n=<order>' first")
            order = int(line[2:])
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected four labels")
        squares.append(tuple(int(p) for p in parts))
    if order is None:
        raise ValueError("missing 'n=<order>' line")
    return OrientedSquareSet(order=order, squares=tuple(squares))


def render_oss(oss: OrientedSquareSet) -> str:
    lines = [f"n={oss.order}"]
    lines.extend(" ".join(str(v) for v in q) for q in oss.squares)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Linear systems and exact elimination.
# ---------------------------------------------------------------------------


def build_system(oss: OrientedSquareSet) -> list[dict]:
    """The 4 * #squares real rows of the complex square conditions.

    Rows are sparse, {column: Fraction} over the 2n columns x_1, y_1,
    ..., x_n, y_n, four per square in listed square order: midpoint
    condition before rotation condition, real part before imaginary
    part.  All are homogeneous, so none has a right-hand side.
    """
    one = Fraction(1)
    rows = []
    for a, b, c, d in oss.squares:
        xa, xb, xc, xd = (2 * (v - 1) for v in (a, b, c, d))
        ya, yb, yc, yd = xa + 1, xb + 1, xc + 1, xd + 1
        rows += [{xa: one, xb: -one, xc: one, xd: -one},
                 {ya: one, yb: -one, yc: one, yd: -one},
                 {xd: one, xa: -one, yb: one, ya: -one},
                 {yd: one, ya: -one, xb: -one, xa: one}]
    return rows


def _axpy(row: dict, f: Fraction, other: dict) -> None:
    """row += f * other on sparse rows, dropping entries that cancel."""
    for i, c in other.items():
        v = row.get(i)
        v = f * c if v is None else v + f * c
        if v:
            row[i] = v
        else:
            del row[i]


def _solve_affine(n_vars, rows, gauge=(), pivots=None):
    """Exact elimination over sparse rows; returns a SolutionSpace, or
    None if the rows are inconsistent.

    Each row is {column: Fraction}, as :func:`build_system` gives them,
    with any nonzero right-hand side under the key ``n_vars``; the rows
    are copied, and an entry is dropped as soon as it cancels.
    Rows are reduced one at a time against the pivot rows so far, which
    stay in reduced row echelon form: a row's leading column is a new
    pivot, and it is cleared from the earlier pivot rows.  ``pivots``
    continues the reduction from the pivot rows of an earlier call
    (copied, not changed); the result is the same as reducing the
    earlier rows and ``rows`` together, since the reduced row echelon
    form of a system is unique.  The space keeps its pivot rows for such
    a continuation.
    """
    pivots = {} if pivots is None else {
        col: dict(piv) for col, piv in pivots.items()}
    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in pivots]:
            _axpy(row, -row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        if lead == n_vars:
            return None
        f = row[lead]
        row = {i: c / f for i, c in row.items()}
        for piv in pivots.values():
            if lead in piv:
                _axpy(piv, -piv[lead], row)
        pivots[lead] = row
    zero = Fraction(0)
    particular = [zero] * n_vars
    for col, piv in pivots.items():
        particular[col] = piv.get(n_vars, zero)
    free = [i for i in range(n_vars) if i not in pivots]
    basis = []
    for f_col in free:
        vec = [zero] * n_vars
        vec[f_col] = Fraction(1)
        for col, piv in pivots.items():
            vec[col] = -piv.get(f_col, zero)
        basis.append(tuple(vec))
    return SolutionSpace(particular=tuple(particular), basis=tuple(basis),
                         gauge=tuple(gauge), _pivots=pivots)


def solve_space(oss: OrientedSquareSet) -> SolutionSpace:
    """The unrestricted solution space (homogeneous; constants included).

    Its pivot rows let :func:`solve_gauged` continue from this reduction
    instead of reducing the square system again.
    """
    space = _solve_affine(2 * oss.order, build_system(oss))
    if space is None:
        raise RuntimeError("homogeneous system cannot be inconsistent")
    return space


def solve_gauged(oss: OrientedSquareSet, gauge=None,
                 space: SolutionSpace | None = None) -> SolutionSpace:
    """The solution space with two labels pinned: z_a = 0 and z_b = i.

    ``gauge`` defaults to the first square's first two labels.  Only the
    four gauge rows are reduced, against a copy of the pivot rows of the
    unrestricted ``space`` of ``oss``; :func:`solve_space` makes that
    space when none is given.
    Raises ValueError when a gauge label is outside 1..order or the two
    labels are equal, when ``space`` is not an unrestricted space from
    :func:`solve_space` on 2 * order variables, and when the gauged
    system is inconsistent, which happens exactly when every solution
    has z_a = z_b.
    """
    if not oss.squares:
        raise ValueError("gauge needs at least one square")
    a, b = gauge if gauge is not None else oss.squares[0][:2]
    if a == b or not (1 <= a <= oss.order and 1 <= b <= oss.order):
        raise ValueError(f"gauge ({a}, {b}) needs two distinct labels "
                         f"in 1..{oss.order}")
    n_vars = 2 * oss.order
    if space is None:
        space = solve_space(oss)
    elif (space.gauge or space._pivots is None
          or len(space.particular) != n_vars):
        raise ValueError("space must be the unrestricted space of an order-"
                         f"{oss.order} system from solve_space")
    zero = Fraction(0)
    one = Fraction(1)
    xa, xb = 2 * (a - 1), 2 * (b - 1)
    rows = [{xa: one}, {xa + 1: one}, {xb: one}, {xb + 1: one, n_vars: one}]
    gauged = _solve_affine(n_vars, rows, ((a, zero, zero), (b, zero, one)),
                           pivots=space._pivots)
    if gauged is None:
        raise ValueError(
            f"gauge z_{a}=0, z_{b}=i is inconsistent: the labels {a} and "
            f"{b} coincide in every solution")
    return gauged


# ---------------------------------------------------------------------------
# Label points as forms: degenerate pairs, forced squares, realizability.
# ---------------------------------------------------------------------------


def _form_on_space(space: SolutionSpace, terms) -> tuple:
    """A sparse ambient linear form, given as ((column, coefficient), ...),
    as (constant, parameter coefficients) on the space."""
    const = sum(c * space.particular[col] for col, c in terms)
    lin = tuple(sum(c * b[col] for col, c in terms) for b in space.basis)
    return const, lin


def _sub(f, g):
    return f[0] - g[0], tuple(p - q for p, q in zip(f[1], g[1]))


def _add(f, g):
    return f[0] + g[0], tuple(p + q for p, q in zip(f[1], g[1]))


def _completion(table, a: int, b: int):
    """The points (z_c, z_d) that make (a, b, c, d) a counterclockwise
    square: z_d = z_a + i(z_b - z_a) and z_c = z_b + z_d - z_a."""
    (xa, ya), (xb, yb) = table[a - 1], table[b - 1]
    wx, wy = _sub(xb, xa), _sub(yb, ya)
    return (_sub(xb, wy), _add(yb, wx)), (_sub(xa, wy), _add(ya, wx))


def _offsets(table, j: int, z) -> list:
    """The two forms of z_j - z."""
    return [_sub(table[j - 1][0], z[0]), _sub(table[j - 1][1], z[1])]


def degenerate_pairs(oss: OrientedSquareSet,
                     space: SolutionSpace | None = None):
    """Label pairs whose points coincide in every solution."""
    table = (space or solve_space(oss)).table
    return tuple(
        (j, k) for j, k in itertools.combinations(range(1, oss.order + 1), 2)
        if table[j - 1] == table[k - 1])


def forced_squares(oss: OrientedSquareSet,
                   space: SolutionSpace | None = None) -> tuple[Quad, ...]:
    """Quadruples outside the set that every solution spans as squares.

    Each label pair a < b is completed to the square (a, b, c, d) it
    spans, and the labels c, d whose forms equal the completion are
    looked up: O(n^2) lookups, not a test of every oriented 4-cycle.  A
    hit counts when a is its smallest label, so each cycle is found
    once; the result is sorted by label set, then cycle.  The scan is
    meant for realizable systems: on a non-realizable one, coinciding
    labels make many quadruples vanish vacuously, and
    :func:`is_realizable` reports no forced squares.
    """
    table = (space or solve_space(oss)).table
    labels: dict = {}
    for j, point in enumerate(table, start=1):
        labels.setdefault(point, []).append(j)
    present = set(oss.squares)
    out = []
    for a, b in itertools.combinations(range(1, oss.order + 1), 2):
        zc, zd = _completion(table, a, b)
        for c in labels.get(zc, ()):
            for d in labels.get(zd, ()):
                quad = (a, b, c, d)
                if (a < c and a < d and len({b, c, d}) == 3
                        and quad not in present):
                    out.append(quad)
    out.sort(key=lambda q: (sorted(q), q))
    return tuple(out)


def rationalize(space: SolutionSpace, avoid) -> tuple[int, ...]:
    """The first parameter vector (B, B**2, ..., B**dim), for
    B = 0, 1, 2, ..., that satisfies every avoid group.

    ``avoid`` is a list of groups, each group a list of affine forms
    (constant, parameter coefficients); a parameter vector satisfies a
    group when at least one of its forms is nonzero there.  Every group
    must contain a form that is not identically zero.  On this moment
    curve such a form is a nonzero polynomial in B of degree at most
    dim, so it vanishes at no more than dim values of B; hence some
    B <= dim * len(avoid) satisfies every group.
    """
    for group in avoid:
        if not any(const or any(lin) for const, lin in group):
            raise ValueError(
                "an avoid group vanishes identically on the space")
    dim = space.dimension
    for base in range(dim * len(avoid) + 1):
        params = tuple(base ** k for k in range(1, dim + 1))
        if all(any(const + sum(c * t for c, t in zip(lin, params))
                   for const, lin in group)
               for group in avoid):
            return params
    raise RuntimeError("a nonzero form vanishes at more than dim points "
                       "of the moment curve")


def verify_realization(oss: OrientedSquareSet, points) -> bool:
    """True iff the labeled points realize the set: pairwise distinct
    and every quadruple a counterclockwise square."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(pts) != oss.order or len(set(pts)) != oss.order:
        return False
    for a, b, c, d in oss.squares:
        za, zb = pts[a - 1], pts[b - 1]
        zc, zd = pts[c - 1], pts[d - 1]
        if za[0] - zb[0] + zc[0] - zd[0] or za[1] - zb[1] + zc[1] - zd[1]:
            return False
        if zd[0] - za[0] != -(zb[1] - za[1]) or zd[1] - za[1] != zb[0] - za[0]:
            return False
    return True


def _witness(oss: OrientedSquareSet, space: SolutionSpace,
             allowed=None) -> tuple[RatPoint, ...]:
    """A realization of a realizable set, verified geometrically.

    ``space`` is the set's unrestricted space.  The witness is the first
    point of the moment curve on the gauged space (see
    :func:`rationalize`) where all labels are distinct; a set without
    squares gets distinct points on a line instead, which span no
    square.  With ``allowed``, a set of quadruples, every other oriented
    4-cycle (a, b, c, d), a smallest, is avoided too, by keeping z_c or
    z_d off the completion of (a, b).
    """
    if oss.squares:
        gauged = solve_gauged(oss, space=space)
        table = gauged.table
        pairs = list(itertools.combinations(range(1, oss.order + 1), 2))
        groups = [_offsets(table, j, table[k - 1]) for j, k in pairs]
        if allowed is not None:
            for a, b in pairs:
                zc, zd = _completion(table, a, b)
                rest = [v for v in range(a + 1, oss.order + 1) if v != b]
                for c, d in itertools.permutations(rest, 2):
                    if (a, b, c, d) not in allowed:
                        groups.append(
                            _offsets(table, c, zc) + _offsets(table, d, zd))
        witness = tuple(gauged.points_at(rationalize(gauged, groups)))
    else:
        witness = tuple((Fraction(i), Fraction(0)) for i in range(oss.order))
    if not verify_realization(oss, witness):
        raise RuntimeError("witness fails geometric verification")
    return witness


def is_realizable(oss: OrientedSquareSet) -> RealizabilityReport:
    """Decide realizability; construct a rational witness when positive.

    The set is realizable exactly when no two labels share their point
    forms on the unrestricted solution space.  The witness comes from
    the gauged space and is verified before being reported.
    """
    space = solve_space(oss)
    degenerate = degenerate_pairs(oss, space)
    if degenerate:
        return RealizabilityReport(
            realizable=False, dimension=space.dimension, witness=None,
            degenerate_pairs=degenerate, forced_squares=())
    return RealizabilityReport(
        realizable=True, dimension=space.dimension,
        witness=_witness(oss, space), degenerate_pairs=(),
        forced_squares=forced_squares(oss, space))


def strict_witness(oss: OrientedSquareSet) -> tuple[RatPoint, ...]:
    """A realization spanning no squares beyond the set and its forced
    squares."""
    space = solve_space(oss)
    if degenerate_pairs(oss, space):
        raise ValueError("oriented square set is not realizable")
    return _witness(oss, space,
                    set(oss.squares) | set(forced_squares(oss, space)))


# ---------------------------------------------------------------------------
# Integer embeddings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridEmbedding:
    """An integer realization with its bounding-box side length."""

    points: PointSet
    box_side: int
    exceeds_heuristic_bound: bool


def grid_embed(oss: OrientedSquareSet) -> GridEmbedding:
    """Clear a rational witness to the integer grid.

    The scaling is a similarity, so the embedded set realizes the same
    oriented square set.  ``exceeds_heuristic_bound`` flags a bounding
    box larger than 25**order (never expected; informational).
    """
    report = is_realizable(oss)
    if not report.realizable:
        raise ValueError("oriented square set is not realizable")
    denom = lcm(*(c.denominator for p in report.witness for c in p))
    ints = PointSet.of((int(x * denom), int(y * denom))
                       for x, y in report.witness)
    ints = normalize_to_grid(ints)
    xs = [p[0] for p in ints.points]
    ys = [p[1] for p in ints.points]
    side = max(max(xs) - min(xs), max(ys) - min(ys))
    return GridEmbedding(points=ints, box_side=side,
                         exceeds_heuristic_bound=side > 25 ** oss.order)
