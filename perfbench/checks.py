"""Output checks of the benchmark, written apart from the package.

Every check recomputes what it checks with the code in this file (its
own counters, its own Gaussian-rational elimination, its own LP-text
parser and closed forms) or tests a property the method must have.  The
only values taken from the package are the paper's tables in
``squarespan.tables``, which are data.  A failed check raises
``CheckError``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Counting figures.
#
# The fast counters walk ordered point pairs: a square is counted once per
# counterclockwise directed edge (4 times), a rit once, at its right-angle
# vertex, by turning one leg left onto the other.  The brute counters test
# every subset by its squared-distance multiset.
# ---------------------------------------------------------------------------


def _d2(p, q) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def squares_by_edges(points) -> int:
    member = set(points)
    hits = 0
    for (px, py), (qx, qy) in itertools.permutations(member, 2):
        lx, ly = py - qy, qx - px
        if (px + lx, py + ly) in member and (qx + lx, qy + ly) in member:
            hits += 1
    require(hits % 4 == 0, "edge tally of squares is not a multiple of 4")
    return hits // 4


def rits_by_apex(points) -> int:
    member = set(points)
    return sum(1 for (ax, ay), (bx, by) in itertools.permutations(member, 2)
               if (ax - (by - ay), ay + (bx - ax)) in member)


def axis_squares_by_rows(points) -> int:
    member = set(points)
    found = 0
    for (px, py), (qx, qy) in itertools.permutations(member, 2):
        d = qx - px
        if qy == py and d > 0 and (px, py + d) in member \
                and (qx, qy + d) in member:
            found += 1
    return found


def is_square4(quad) -> bool:
    d = sorted(_d2(p, q) for p, q in itertools.combinations(quad, 2))
    return d[0] > 0 and d[0] == d[1] == d[2] == d[3] \
        and d[4] == d[5] == 2 * d[0]


def is_rit3(tri) -> bool:
    d = sorted(_d2(p, q) for p, q in itertools.combinations(tri, 2))
    return d[0] > 0 and d[0] == d[1] and d[2] == 2 * d[0]


def brute_squares(points) -> list[tuple]:
    return [q for q in itertools.combinations(sorted(set(points)), 4)
            if is_square4(q)]


def brute_rits(points) -> int:
    return sum(1 for t in itertools.combinations(set(points), 3)
               if is_rit3(t))


def brute_axis_squares(points) -> int:
    return sum(1 for q in brute_squares(points)
               if len({x for x, _ in q}) == 2)


# ---------------------------------------------------------------------------
# Enumeration tables.
# ---------------------------------------------------------------------------


def expected_cells(table: dict, n_max: int, corrections=None) -> dict:
    """Non-zero cells of a paper table up to n_max, corrections applied."""
    out = {}
    for cell, value in table.items():
        if cell[0] > n_max:
            continue
        count = value[0] if isinstance(value, tuple) else value
        count = (corrections or {}).get(cell, count)
        if count:
            out[cell] = count
    return out


def check_cells(label: str, entries: dict, expected: dict) -> None:
    wrong = sorted(c for c in set(entries) | set(expected)
                   if entries.get(c, 0) != expected.get(c, 0))
    require(not wrong, f"{label}: cells differ from the paper table at "
            + ", ".join(f"{c}: {entries.get(c, 0)} != {expected.get(c, 0)}"
                        for c in wrong[:5]))


def check_delta_max(label: str, delta_max: dict, table: dict,
                    expected: dict) -> None:
    for cell in expected:
        require(delta_max.get(cell) == table[cell][1],
                f"{label}: delta_max at {cell} is {delta_max.get(cell)}, "
                f"the paper has {table[cell][1]}")


# ---------------------------------------------------------------------------
# Beam search.
# ---------------------------------------------------------------------------


def closed_form_upper(mode: str, n: int) -> int:
    """The paper's closed-form caps: (n^2-1)/8 squares, and
    (2(n-1)^2-5)/3 rits for n >= 3."""
    if mode == "square":
        return (n * n - 1) // 8
    return (2 * (n - 1) ** 2 - 5) // 3 if n >= 3 else 0


def check_beam(result, mode: str, exact: dict, gates: dict) -> None:
    counter = squares_by_edges if mode == "square" else rits_by_apex
    start = 4 if mode == "square" else 3
    ns = sorted(result.best)
    require(ns == list(range(start, result.config.n_target + 1)),
            f"beam {mode}: sizes {ns} do not cover "
            f"{start}..{result.config.n_target}")
    prev = 0
    for n in ns:
        best = result.best[n]
        require(best >= prev, f"beam {mode}: best[{n}]={best} < {prev}")
        prev = best
        require(best <= closed_form_upper(mode, n),
                f"beam {mode}: best[{n}]={best} above the closed-form cap")
        if n in exact:
            require(best <= exact[n], f"beam {mode}: best[{n}]={best} above "
                    f"the exact value {exact[n]}")
        origin = result.witness_origin[n]
        pts = result.witnesses[n].points
        require(origin <= n and len(set(pts)) == len(pts) == origin,
                f"beam {mode}: witness of n={n} does not have {origin} "
                "distinct points")
        count = counter(pts)
        require(count == result.best[origin],
                f"beam {mode}: witness of n={n} spans {count}, "
                f"best[{origin}]={result.best[origin]}")
    for n, value in gates.items():
        require(result.best.get(n, -1) >= value,
                f"beam {mode}: best[{n}]={result.best.get(n)} misses the "
                f"record {value}")


# ---------------------------------------------------------------------------
# Realizability.
#
# A label j is the complex unknown z_j; square (a, b, c, d) imposes
# z_a - z_b + z_c - z_d = 0 and z_d - z_a - i(z_b - z_a) = 0.  Gaussian
# rationals are (re, im) pairs of Fractions.
# ---------------------------------------------------------------------------

_ZERO = (Fraction(0), Fraction(0))


def _square_rows(quad):
    """Coefficients by label of the two complex equations of a square."""
    a, b, c, d = quad
    mid = {a: (1, 0), b: (-1, 0), c: (1, 0), d: (-1, 0)}
    rot = {d: (1, 0), a: (-1, 1), b: (0, -1)}  # z_d - z_a - i z_b + i z_a
    return mid, rot


def _cmul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _cdiv(p, q):
    den = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / den,
            (p[1] * q[0] - p[0] * q[1]) / den)


def complex_rank(order: int, squares) -> int:
    """Rank over the Gaussian rationals of the 2 * #squares equations."""
    rows = []
    for quad in squares:
        for spec in _square_rows(quad):
            row = [_ZERO] * (order + 1)
            for label, (re, im) in spec.items():
                row[label] = (row[label][0] + re, row[label][1] + im)
            rows.append([(Fraction(x), Fraction(y)) for x, y in row])
    rank = 0
    for col in range(1, order + 1):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != _ZERO),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != _ZERO:
                f = _cdiv(rows[r][col], top[col])
                rows[r] = [(x[0] - g[0], x[1] - g[1]) for x, g in
                           zip(rows[r], (_cmul(f, t) for t in top))]
        rank += 1
    return rank


def real_rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / top[col]
                rows[r] = [x - f * t for x, t in zip(rows[r], top)]
        rank += 1
    return rank


def _z(vec, label):
    return (vec[2 * (label - 1)], vec[2 * (label - 1) + 1])


def is_ccw_square(za, zb, zc, zd) -> bool:
    """z_a + z_c = z_b + z_d and z_d - z_a = i (z_b - z_a)."""
    return (za[0] + zc[0] == zb[0] + zd[0] and za[1] + zc[1] == zb[1] + zd[1]
            and zd[0] - za[0] == -(zb[1] - za[1])
            and zd[1] - za[1] == zb[0] - za[0])


def check_space(oss, space, gauge=None) -> int:
    """The particular solution and particular + each basis vector solve
    every square; the basis is independent and as large as the solution
    space.  Returns the real dimension of the unrestricted space."""
    label = f"system n={oss.order} ({len(oss.squares)} squares)"
    vectors = [space.particular] + [
        tuple(p + b for p, b in zip(space.particular, vec))
        for vec in space.basis]
    for vec in vectors:
        require(len(vec) == 2 * oss.order, f"{label}: vector length")
        for quad in oss.squares:
            require(is_ccw_square(*(_z(vec, v) for v in quad)),
                    f"{label}: a solution vector violates square {quad}")
    if gauge is not None:
        (ga, gb) = gauge
        require(_z(space.particular, ga) == (0, 0)
                and _z(space.particular, gb) == (0, 1),
                f"{label}: particular solution breaks the gauge")
        for vec in space.basis:
            require(_z(vec, ga) == (0, 0) and _z(vec, gb) == (0, 0),
                    f"{label}: basis vector moves a gauged label")
    require(real_rank(space.basis) == len(space.basis),
            f"{label}: basis vectors are dependent")
    dim = 2 * (oss.order - complex_rank(oss.order, oss.squares))
    expected = dim - 4 if gauge is not None else dim
    require(len(space.basis) == expected,
            f"{label}: {len(space.basis)} basis vectors, solution space "
            f"has dimension {expected}")
    return dim


def degenerate_pairs_of(order: int, space) -> tuple:
    vectors = (space.particular,) + space.basis
    return tuple((j, k) for j, k in itertools.combinations(range(1, order + 1), 2)
                 if all(_z(v, j) == _z(v, k) for v in vectors))


def check_witness(oss, witness, label: str) -> None:
    pts = [(Fraction(x), Fraction(y)) for x, y in witness]
    require(len(pts) == oss.order and len(set(pts)) == oss.order,
            f"{label}: witness does not have {oss.order} distinct points")
    for quad in oss.squares:
        require(is_ccw_square(*(pts[v - 1] for v in quad)),
                f"{label}: witness quadruple {quad} is not a "
                "counterclockwise square")


def check_report(oss, space, report, label: str) -> None:
    """A report from is_realizable against a checked solution space."""
    dim = check_space(oss, space)
    require(report.dimension == dim,
            f"{label}: dimension {report.dimension}, solution space has {dim}")
    own = degenerate_pairs_of(oss.order, space)
    require(tuple(report.degenerate_pairs) == own,
            f"{label}: {len(report.degenerate_pairs)} degenerate pairs "
            f"reported, {len(own)} found")
    require(report.realizable == (not own),
            f"{label}: realizable={report.realizable} with {len(own)} "
            "degenerate pairs")
    if dim == 2:
        require(len(own) == comb(oss.order, 2),
                f"{label}: dimension 2 but not every pair is degenerate")
    if report.realizable:
        require(dim >= 4, f"{label}: realizable with dimension {dim}")
        check_witness(oss, report.witness, label)
    else:
        require(report.witness is None, f"{label}: witness for a "
                "non-realizable system")


def _clear_denominators(points):
    den = 1
    for x, y in points:
        for v in (Fraction(x), Fraction(y)):
            den = den * v.denominator // gcd(den, v.denominator)
    return [(int(Fraction(x) * den), int(Fraction(y) * den))
            for x, y in points]


def check_strict_witness(oss, witness, forced, label: str) -> None:
    """Cleared to integers, the witness spans exactly the prescribed and
    the forced squares."""
    check_witness(oss, witness, label)
    pts = _clear_denominators(witness)
    spanned = {frozenset(q) for q in
               itertools.combinations(range(1, oss.order + 1), 4)
               if is_square4([pts[v - 1] for v in q])}
    wanted = {frozenset(q) for q in tuple(oss.squares) + tuple(forced)}
    require(spanned == wanted,
            f"{label}: strict witness spans {len(spanned)} squares, "
            f"expected {len(wanted)}")


def check_grid_embedding(oss, emb, label: str) -> None:
    pts = emb.points.points
    require(len(set(pts)) == len(pts) == oss.order,
            f"{label}: embedding does not have {oss.order} distinct points")
    require(all(isinstance(c, int) for p in pts for c in p),
            f"{label}: embedding is not integral")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    require(min(xs) == 0 and min(ys) == 0 and emb.box_side ==
            max(max(xs), max(ys)), f"{label}: embedding box")
    require(squares_by_edges(pts) >= len(oss.squares),
            f"{label}: embedding spans fewer squares than prescribed")


# ---------------------------------------------------------------------------
# Bounds, ILP and corpus.
# ---------------------------------------------------------------------------


def ilp_closed_forms(n: int) -> dict:
    """Variable and constraint counts of the base program for n labels."""
    return {
        "x": comb(n, 3),
        "y": sum(comb(n, t) for t in range(4, n + 1)),
        "sub": sum(comb(n, t) for t in range(4, n)),
        "ext4": comb(n, 4),
        "chain": sum(t * comb(n, t) for t in range(5, n + 1)),
    }


def lp_text_counts(text: str) -> dict:
    """Count binaries and constraints by family in LP-format text."""
    counts = {"x": 0, "y": 0, "sub": 0, "ext4": 0, "chain": 0, "other": 0}
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.strip()
            continue
        if section == "Subject To" and ":" in line:
            family = line.split(":", 1)[0].strip().split("_", 1)[0]
            counts[family if family in counts else "other"] += 1
        elif section == "Binary":
            var = line.strip()
            counts[var[0] if var[:2] in ("x_", "y_") else "other"] += 1
    return counts


def check_lp(text: str, n: int) -> None:
    got = lp_text_counts(text)
    want = dict(ilp_closed_forms(n), other=0)
    require(got == want, f"ilp n={n}: counts {got} != closed forms {want}")
    require(text.startswith("Maximize\n") and text.endswith("End\n"),
            f"ilp n={n}: LP sections")


def check_assignment(assignment, points, exact: dict) -> None:
    n = len(points)
    require(assignment.feasible and not assignment.violated,
            f"ilp n={n}: record assignment infeasible under base")
    require(len(assignment.x) == comb(n, 3), f"ilp n={n}: x assignment size")
    require(assignment.objective == sum(assignment.x.values())
            == rits_by_apex(points) == exact[n],
            f"ilp n={n}: objective {assignment.objective} != exact "
            f"value {exact[n]}")


def check_bound_report(report, n: int) -> None:
    require(report.n == n, f"bound report for n={report.n}, asked n={n}")
    if report.best_lower is not None:
        require(report.best_lower <= report.best_upper,
                f"bound report n={n}: lower {report.best_lower} > upper "
                f"{report.best_upper}")


_RECORD_COUNTERS = {
    "rit": rits_by_apex,
    "square": squares_by_edges,
    "hamming-free": squares_by_edges,
    "axis-parallel": axis_squares_by_rows,
    "mixed": lambda pts: rits_by_apex(pts) - 3 * squares_by_edges(pts),
}


def record_points(rec) -> list:
    return [(c, -r) for r, row in enumerate(rec.grid)
            for c, ch in enumerate(row) if ch == "x"]


# Records up to this size are recounted with the benchmark's own counters.
OWN_COUNT_MAX_N = 30


def check_verify_report(report, records) -> None:
    require(report.passed, "verify_corpus does not pass")
    require(len(report.records) == len(records),
            "verify_corpus skipped records")
    for rec, res in zip(records, report.records):
        require(res.id == rec.id and res.computed == rec.expected,
                f"{rec.id}: computed {res.computed}, expected {rec.expected}")
        if rec.n <= OWN_COUNT_MAX_N:
            own = _RECORD_COUNTERS[rec.family](record_points(rec))
            require(own == rec.expected,
                    f"{rec.id}: own counter gives {own}, record says "
                    f"{rec.expected}")


BRUTE_COUNTERS = {
    "count_squares": lambda pts: len(brute_squares(pts)),
    "count_rit": brute_rits,
    "count_axis_parallel_squares": brute_axis_squares,
    "srit_minus_3sq": lambda pts: brute_rits(pts) - 3 * len(brute_squares(pts)),
    "squares_of": brute_squares,
}

