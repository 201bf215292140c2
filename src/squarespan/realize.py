"""Oriented square sets and their exact realizability over the rationals.

An oriented square set of order n prescribes counterclockwise square
quadruples on the labels 1..n.  Identifying point j with the complex
number z_j = x_j + i*y_j, each prescribed square (a, b, c, d) imposes

    z_a - z_b + z_c - z_d = 0      (opposite vertices share a midpoint)
    z_d - z_a = i * (z_b - z_a)    (one side is the other rotated by 90)

and the set is realizable exactly when the resulting linear system has a
solution with pairwise distinct z_j.  Everything here is exact: systems
are solved by fraction Gaussian elimination, distinctness and forced
squares are decided by testing whether difference forms vanish
identically on the solution space, and witnesses are found by a
deterministic sweep of integer parameter vectors (ordered by coordinate
sum, then lexicographically), which terminates because finitely many
proper affine subspaces cannot cover the sweep.

The unrestricted solution space always contains the constant solutions,
so its dimension is at least 2; a set whose space consists of constants
only is maximally degenerate.  Gauging pins the first square's first
two labels to 0 and i, cutting the similarity freedom out of the space.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
class LinearSystemQ:
    """Rational rows over the 2n variables x_1, y_1, ..., x_n, y_n.

    Four rows per prescribed square, in listed square order: midpoint
    condition before rotation condition, real part before imaginary
    part.  The right-hand side is zero for all of them; only gauge rows
    appended later are inhomogeneous.
    """

    n_vars: int
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


@dataclass(frozen=True)
class SolutionSpace:
    """Affine solution set {particular + sum t_i * basis_i}."""

    particular: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]
    gauge: tuple[tuple[int, Fraction, Fraction], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def at(self, params) -> tuple[Fraction, ...]:
        """The solution vector for the given parameter tuple."""
        if len(params) != len(self.basis):
            raise ValueError("parameter count must match the dimension")
        v = list(self.particular)
        for t, b in zip(params, self.basis):
            if t:
                for i, c in enumerate(b):
                    v[i] += t * c
        return tuple(v)

    def points_at(self, params) -> list[RatPoint]:
        v = self.at(params)
        return [(v[2 * i], v[2 * i + 1]) for i in range(len(v) // 2)]


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


def build_system(oss: OrientedSquareSet) -> LinearSystemQ:
    """The 4 * #squares real rows of the complex square conditions."""
    n2 = 2 * oss.order
    zero = Fraction(0)
    one = Fraction(1)
    rows = []
    for a, b, c, d in oss.squares:
        xa, ya = 2 * (a - 1), 2 * (a - 1) + 1
        xb, yb = 2 * (b - 1), 2 * (b - 1) + 1
        xc, yc = 2 * (c - 1), 2 * (c - 1) + 1
        xd, yd = 2 * (d - 1), 2 * (d - 1) + 1
        mid_re = [zero] * n2
        mid_re[xa] += one
        mid_re[xb] -= one
        mid_re[xc] += one
        mid_re[xd] -= one
        mid_im = [zero] * n2
        mid_im[ya] += one
        mid_im[yb] -= one
        mid_im[yc] += one
        mid_im[yd] -= one
        rot_re = [zero] * n2
        rot_re[xd] += one
        rot_re[xa] -= one
        rot_re[yb] += one
        rot_re[ya] -= one
        rot_im = [zero] * n2
        rot_im[yd] += one
        rot_im[ya] -= one
        rot_im[xb] -= one
        rot_im[xa] += one
        rows.extend(map(tuple, (mid_re, mid_im, rot_re, rot_im)))
    return LinearSystemQ(n_vars=n2, rows=tuple(rows),
                         rhs=(zero,) * len(rows))


def _solve_affine(n_vars, rows, rhs, gauge=()):
    """Exact elimination; returns a SolutionSpace or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: dict[int, list[Fraction]] = {}
    for row in aug:
        for col, piv in pivots.items():
            if row[col]:
                f = row[col]
                for i in range(n_vars + 1):
                    row[i] -= f * piv[i]
        lead = next((i for i in range(n_vars) if row[i]), None)
        if lead is None:
            if row[n_vars]:
                return None
            continue
        f = row[lead]
        for i in range(n_vars + 1):
            row[i] /= f
        for piv in pivots.values():
            if piv[lead]:
                g = piv[lead]
                for i in range(n_vars + 1):
                    piv[i] -= g * row[i]
        pivots[lead] = row
    free = [i for i in range(n_vars) if i not in pivots]
    particular = [Fraction(0)] * n_vars
    for col, piv in pivots.items():
        particular[col] = piv[n_vars]
    basis = []
    for f_col in free:
        vec = [Fraction(0)] * n_vars
        vec[f_col] = Fraction(1)
        for col, piv in pivots.items():
            vec[col] = -piv[f_col]
        basis.append(tuple(vec))
    return SolutionSpace(particular=tuple(particular), basis=tuple(basis),
                         gauge=tuple(gauge))


def solve_space(oss: OrientedSquareSet) -> SolutionSpace:
    """The unrestricted solution space (homogeneous; constants included)."""
    sys = build_system(oss)
    space = _solve_affine(sys.n_vars, sys.rows, sys.rhs)
    if space is None:
        raise RuntimeError("homogeneous system cannot be inconsistent")
    return space


def solve_gauged(oss: OrientedSquareSet, gauge=None) -> SolutionSpace:
    """The solution space with two labels pinned: z_a = 0 and z_b = i.

    ``gauge`` defaults to the first square's first two labels.  Raises
    ValueError when the gauged system is inconsistent, which happens
    exactly when every solution has z_a = z_b.
    """
    if not oss.squares:
        raise ValueError("gauge needs at least one square")
    a, b = gauge if gauge is not None else oss.squares[0][:2]
    sys = build_system(oss)
    zero = Fraction(0)
    one = Fraction(1)
    rows = list(sys.rows)
    rhs = list(sys.rhs)
    for col, val in (
            (2 * (a - 1), zero), (2 * (a - 1) + 1, zero),
            (2 * (b - 1), zero), (2 * (b - 1) + 1, one)):
        row = [zero] * sys.n_vars
        row[col] = one
        rows.append(tuple(row))
        rhs.append(val)
    gauge_info = ((a, zero, zero), (b, zero, one))
    space = _solve_affine(sys.n_vars, rows, rhs, gauge_info)
    if space is None:
        raise ValueError(
            f"gauge z_{a}=0, z_{b}=i is inconsistent: the labels {a} and "
            f"{b} coincide in every solution")
    return space


# ---------------------------------------------------------------------------
# Vanishing forms, forced squares, realizability.
# ---------------------------------------------------------------------------


def _form_on_space(space: SolutionSpace, terms) -> tuple:
    """A sparse ambient linear form, given as ((column, coefficient), ...),
    as (constant, parameter coefficients) on the space."""
    const = sum(c * space.particular[col] for col, c in terms)
    lin = tuple(sum(c * b[col] for col, c in terms) for b in space.basis)
    return const, lin


def _vanishes(form) -> bool:
    const, lin = form
    return not const and not any(lin)


def _vanish_on(space: SolutionSpace, term_lists) -> bool:
    """True iff every form vanishes identically; stops at the first that
    does not."""
    return all(_vanishes(_form_on_space(space, t)) for t in term_lists)


def _pair_terms(j: int, k: int):
    """The two real difference forms of z_j - z_k."""
    return tuple(((2 * (j - 1) + off, 1), (2 * (k - 1) + off, -1))
                 for off in (0, 1))


def _square_terms(quad: Quad):
    """The four real forms whose joint vanishing makes ``quad`` a square."""
    a, b, c, d = quad
    return (
        ((2 * (a - 1), 1), (2 * (b - 1), -1), (2 * (c - 1), 1),
         (2 * (d - 1), -1)),
        ((2 * (a - 1) + 1, 1), (2 * (b - 1) + 1, -1), (2 * (c - 1) + 1, 1),
         (2 * (d - 1) + 1, -1)),
        ((2 * (d - 1), 1), (2 * (a - 1), -1), (2 * (b - 1) + 1, 1),
         (2 * (a - 1) + 1, -1)),
        ((2 * (d - 1) + 1, 1), (2 * (a - 1) + 1, -1), (2 * (b - 1), -1),
         (2 * (a - 1), 1)),
    )


def degenerate_pairs(oss: OrientedSquareSet,
                     space: SolutionSpace | None = None):
    """Label pairs whose points coincide in every solution."""
    if space is None:
        space = solve_space(oss)
    return tuple(
        (j, k) for j, k in itertools.combinations(range(1, oss.order + 1), 2)
        if _vanish_on(space, _pair_terms(j, k)))


def forced_squares(oss: OrientedSquareSet,
                   space: SolutionSpace | None = None) -> tuple[Quad, ...]:
    """Quadruples outside the set that every solution spans as squares.

    All six oriented 4-cycles of every label 4-subset are tested; a
    quadruple is forced when its four defining forms vanish identically
    on the solution space.  The scan is meant for realizable systems: on
    a non-realizable one, coinciding labels make many quadruples vanish
    vacuously, and :func:`is_realizable` reports no forced squares.
    """
    if space is None:
        space = solve_space(oss)
    present = set(oss.squares)
    out = []
    for sub in itertools.combinations(range(1, oss.order + 1), 4):
        a = sub[0]
        for perm in itertools.permutations(sub[1:]):
            quad = (a,) + perm
            if quad not in present and _vanish_on(space, _square_terms(quad)):
                out.append(quad)
    return tuple(out)


def _sweep_params(dim: int):
    """All nonnegative integer parameter tuples, ordered by coordinate
    sum and lexicographically within equal sums."""
    if dim == 0:
        yield ()
        return
    total = 0
    while True:
        for head in itertools.product(range(total + 1), repeat=dim - 1):
            rest = total - sum(head)
            if rest >= 0:
                yield head + (rest,)
        total += 1


def rationalize(space: SolutionSpace, avoid) -> tuple[int, ...]:
    """The first swept parameter vector satisfying every avoid group.

    ``avoid`` is a list of groups, each group a list of affine forms
    (constant, parameter coefficients); a parameter vector satisfies a
    group when at least one of its forms is nonzero there.  Every group
    must contain a form that is not identically zero, as each group's
    failure locus is then a proper affine subspace and the sweep
    terminates.
    """
    for group in avoid:
        if all(_vanishes(f) for f in group):
            raise ValueError(
                "an avoid group vanishes identically on the space")
    dim = space.dimension
    for params in _sweep_params(dim):
        ok = True
        for group in avoid:
            if not any(const + sum(c * t for c, t in zip(lin, params))
                       for const, lin in group):
                ok = False
                break
        if ok:
            return params
        if dim == 0:
            break
    raise RuntimeError("sweep cannot be exhausted for satisfiable groups")


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


def _forms(space: SolutionSpace, term_lists) -> list:
    return [_form_on_space(space, t) for t in term_lists]


def _collinear(order: int) -> tuple[RatPoint, ...]:
    """Distinct points on a line: a realization spanning no squares."""
    return tuple((Fraction(i), Fraction(0)) for i in range(order))


def _distinctness_groups(space: SolutionSpace, order: int):
    return [_forms(space, _pair_terms(j, k))
            for j, k in itertools.combinations(range(1, order + 1), 2)]


def is_realizable(oss: OrientedSquareSet) -> RealizabilityReport:
    """Decide realizability; construct a rational witness when positive.

    The verdict tests, pair by pair, whether the difference z_j - z_k
    vanishes identically on the unrestricted solution space; the set is
    realizable exactly when no pair does.  The witness is swept on the
    gauged space and verified geometrically before being reported; a
    system without squares gets distinct points on a line instead.
    """
    space = solve_space(oss)
    degenerate = degenerate_pairs(oss, space)
    if degenerate:
        return RealizabilityReport(
            realizable=False, dimension=space.dimension, witness=None,
            degenerate_pairs=degenerate, forced_squares=())
    if oss.squares:
        gauged = solve_gauged(oss)
        params = rationalize(
            gauged, _distinctness_groups(gauged, oss.order))
        witness = tuple(gauged.points_at(params))
    else:
        witness = _collinear(oss.order)
    if not verify_realization(oss, witness):
        raise RuntimeError("witness fails geometric verification")
    return RealizabilityReport(
        realizable=True, dimension=space.dimension, witness=witness,
        degenerate_pairs=(), forced_squares=forced_squares(oss, space))


def strict_witness(oss: OrientedSquareSet) -> tuple[RatPoint, ...]:
    """A realization spanning no squares beyond the set and its forced
    squares: every other oriented 4-cycle is explicitly avoided."""
    space = solve_space(oss)
    if degenerate_pairs(oss, space):
        raise ValueError("oriented square set is not realizable")
    if not oss.squares:
        return _collinear(oss.order)
    allowed = set(oss.squares) | set(forced_squares(oss, space))
    gauged = solve_gauged(oss)
    groups = _distinctness_groups(gauged, oss.order)
    for sub in itertools.combinations(range(1, oss.order + 1), 4):
        for perm in itertools.permutations(sub[1:]):
            quad = (sub[0],) + perm
            if quad not in allowed:
                groups.append(_forms(gauged, _square_terms(quad)))
    params = rationalize(gauged, groups)
    witness = tuple(gauged.points_at(params))
    if not verify_realization(oss, witness):
        raise RuntimeError("strict witness fails geometric verification")
    return witness


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
    denom = 1
    for x, y in report.witness:
        denom = denom * x.denominator // gcd(denom, x.denominator)
        denom = denom * y.denominator // gcd(denom, y.denominator)
    ints = PointSet.of((int(x * denom), int(y * denom))
                       for x, y in report.witness)
    ints = normalize_to_grid(ints)
    xs = [p[0] for p in ints.points]
    ys = [p[1] for p in ints.points]
    side = max(max(xs) - min(xs), max(ys) - min(ys))
    return GridEmbedding(points=ints, box_side=side,
                         exceeds_heuristic_bound=side > 25 ** oss.order)
