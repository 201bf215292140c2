"""Upper and lower bound calculators for square and rit counts.

Closed-form bounds, averaging transfers between point counts, degree
averages, the constant-weight-code cap, the mixed recursion that splits
a point set along a maximal 2-extension part, and an exportable 0/1
linear program whose optimum bounds the maximum rit count.  All
arithmetic is exact integer arithmetic; nothing here enumerates point
sets -- the heavy search lives in :mod:`squarespan.extension`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

from squarespan.extension import is_1ext_obtainable
from squarespan.geometry import PointSet, count_rit, is_rit
from squarespan.tables import (
    A_N_6_4,
    RIT_EXACT,
    RIT_MINUS_3SQ_EXACT,
    SQUARE_EXACT,
    rit_lower_bound,
    square_lower_bound,
)

# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def rit_upper(n: int) -> dict[str, int]:
    """Closed-form upper bounds on the maximum rit count of n points.

    ``trivial`` is n(n-1); ``improved`` is floor(2(n-1)^2/3 - 5/3),
    present for n >= 3 only.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = {"trivial": n * (n - 1)}
    if n >= 3:
        out["improved"] = (2 * (n - 1) ** 2 - 5) // 3
    return out


def square_upper(n: int) -> dict[str, int]:
    """Closed-form upper bounds on the maximum square count of n points.

    ``pairs`` is floor(C(n,2)/2) (every square owns two point pairs as
    diagonals and no pair serves twice); ``eighth`` is
    floor((n^2-1)/8), which is never weaker.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return {"pairs": comb(n, 2) // 2, "eighth": (n * n - 1) // 8}


# ---------------------------------------------------------------------------
# Averaging transfers.
# ---------------------------------------------------------------------------


def averaging_rit(n: int, k: int, b: int) -> int:
    """Upper bound on the rit count of n points when every k-subset
    spans at most b rits: floor(C(n,3) * b / C(k,3))."""
    if not 3 <= k < n:
        raise ValueError("averaging needs 3 <= k < n")
    if b < 0:
        raise ValueError("b must be nonnegative")
    return comb(n, 3) * b // comb(k, 3)


def averaging_square_subconfig(n: int, n_sub: int, m: int) -> int:
    """Guaranteed square count of the best n_sub-subset of an n-point
    set spanning m squares: ceil(m * C(n-4, n_sub-4) / C(n, n_sub))."""
    if not 4 <= n_sub < n:
        raise ValueError("averaging needs 4 <= n_sub < n")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return -(-m * comb(n - 4, n_sub - 4) // comb(n, n_sub))


def averaging_square_upper(n: int, n_sub: int, b: int) -> int:
    """Upper bound on the square count of n points when every
    n_sub-subset spans at most b squares.

    Contrapositive of :func:`averaging_square_subconfig`: the largest m
    whose guaranteed best-subset count stays within b, which works out
    to floor(b * C(n, n_sub) / C(n-4, n_sub-4)).
    """
    if not 4 <= n_sub < n:
        raise ValueError("averaging needs 4 <= n_sub < n")
    if b < 0:
        raise ValueError("b must be nonnegative")
    return b * comb(n, n_sub) // comb(n - 4, n_sub - 4)


def degree_bounds(n: int, m: int) -> dict[str, int]:
    """Degree averages of an n-point set spanning m squares: the
    minimum square-degree is at most floor(4m/n) and the maximum at
    least ceil(4m/n)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return {"min_le": 4 * m // n, "max_ge": -(-4 * m // n)}


# ---------------------------------------------------------------------------
# Mixed recursion and code-theoretic caps.
# ---------------------------------------------------------------------------


def mixed_square_upper(n: int, sq_exact=None, mixed_exact=None, *,
                       min_part: int = 6) -> int:
    """Upper bound on the square count via the 2-extension split.

    A maximal 2-extension part of size n' caps the total at
    sq_exact(n') + mixed_exact(n - n'); the bound takes the worst case
    over min_part <= n' <= n.  ``sq_exact`` maps sizes to maximum
    square counts and ``mixed_exact`` maps sizes to the maximum of
    (rit count) - 3 * (square count); both default to the shipped
    exact tables.  ``min_part`` is 6 because a part built from a unit
    square by 2-extension and containing a second square has at least
    six points.
    """
    if sq_exact is None:
        sq_exact = SQUARE_EXACT
    if mixed_exact is None:
        mixed_exact = RIT_MINUS_3SQ_EXACT
    if min_part > n:
        raise ValueError("min_part exceeds n")
    best = None
    for n_part in range(min_part, n + 1):
        if n_part not in sq_exact:
            raise ValueError(f"square table lacks a value for {n_part} points")
        rest = n - n_part
        if rest not in mixed_exact:
            raise ValueError(f"mixed table lacks a value for {rest} points")
        value = sq_exact[n_part] + mixed_exact[rest]
        if best is None or value > best:
            best = value
    return best


def a_n_6_4(n: int) -> int:
    """Maximum size of a binary constant-weight-4 code of length n with
    minimum distance 6 (exact for n <= 17); caps the square count of
    sets in which no point pair lies in two squares."""
    if not 1 <= n <= 17:
        raise ValueError("A(n,6,4) is tabulated for 1 <= n <= 17 only")
    return A_N_6_4[n]


def hamming13_upper(caps=None) -> int:
    """Square-count cap for 13 points when no pair lies in two squares.

    Three squares through a maximum-degree point are fixed; every other
    square avoids some point i and is counted by s_i, once per avoided
    point, so at least 8 times in total.  With the per-point caps
    s_i <= 4 for the nine points on the fixed squares' other vertices
    and s_i <= 3 for the remaining three points, the count is at most
    3 + floor(sum(caps) / 8) = 8.
    """
    if caps is None:
        caps = (4,) * 9 + (3,) * 3
    caps = tuple(caps)
    if len(caps) != 12 or any(c < 0 for c in caps):
        raise ValueError("caps must be 12 nonnegative integers")
    return 3 + sum(caps) // 8


# ---------------------------------------------------------------------------
# Bound reports.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Named bound values for one n, with the best of each direction."""

    n: int
    values: dict[str, int]
    best_upper: int
    best_lower: int | None

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "values": self.values,
            "best_upper": self.best_upper, "best_lower": self.best_lower,
        }, indent=2)


def rit_bound_report(n: int) -> BoundReport:
    """All applicable rit-count bounds for n points."""
    values = dict(rit_upper(n))
    uppers = list(values.values())
    lower = None
    if n <= 14:
        exact = RIT_EXACT.get(n, 0)
        values["exact"] = exact
        uppers.append(exact)
        lower = exact
    elif n <= 50:
        lower = rit_lower_bound(n)
        values["lower"] = lower
    return BoundReport(n=n, values=values, best_upper=min(uppers),
                       best_lower=lower)


def square_bound_report(n: int) -> BoundReport:
    """All applicable square-count bounds for n points."""
    values = dict(square_upper(n))
    uppers = list(values.values())
    lower = None
    if n <= 17:
        exact = SQUARE_EXACT.get(n, 0)
        values["exact"] = exact
        uppers.append(exact)
        lower = exact
    elif n <= 100:
        lower = square_lower_bound(n)
        values["lower"] = lower
    return BoundReport(n=n, values=values, best_upper=min(uppers),
                       best_lower=lower)


# ---------------------------------------------------------------------------
# The 0/1 linear program bounding the maximum rit count.
# ---------------------------------------------------------------------------
#
# Variables: x_S for every 3-subset S of {1..n} (S spans a rit) and
# y_{t,T} for every T with 4 <= #T = t <= n (the restriction to T is
# reachable by recursive 1-extension).  Constraint families:
#
#   (1) sum of x_S over triples inside T is at most the exact maximum
#       rit count of #T points, for 4 <= #T <= n-1;
#   (2) -3 y_{4,T} + sum of x_S over the four triples in T <= 1: two
#       rits on four points share an edge, which makes the restriction
#       1-extension reachable;
#   (3) C(t-1,2) (y_{t-1,R} - y_{t,T}) + sum of x_S over triples in T
#       through the point missing from R <= C(t-1,2): a reachable R
#       plus a rit leaning on it makes T reachable.
#
# The mod8 variant (n = 8) adds y_{t,T} = 0 for t in {6,7,8} and
# -8 y_{5,T} + sum x_S >= 0 for #T = 5; the mod9 variant (n = 9) adds
# y_{t,T} = 0 for t in {7,8,9} and -11 y_{6,T} + sum x_S >= 0 for
# #T = 6.  These encode "no reachable restriction beyond 5 (resp. 6)
# points" and score caps of the reachable 5- (resp. 6-) point parts.

ILP_VARIANTS = ("base", "mod8", "mod9")


@dataclass(frozen=True)
class IlpConstraint:
    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "<=", ">=", or "="
    rhs: int


@dataclass(frozen=True)
class IlpAssignment:
    """A 0/1 assignment with its constraint check and objective."""

    x: dict[tuple[int, int, int], int]
    y: dict[tuple[int, ...], int]
    feasible: bool
    violated: tuple[str, ...]
    objective: int


def _x_name(triple) -> str:
    return "x_" + "_".join(str(v) for v in triple)


def _y_name(subset) -> str:
    return f"y_{len(subset)}_" + "_".join(str(v) for v in subset)


def _check_ilp_args(n: int, variant: str) -> None:
    if variant not in ILP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 3 <= n <= 12:
        raise ValueError("the program is built for 3 <= n <= 12 only")
    if variant == "mod8" and n != 8:
        raise ValueError("variant mod8 requires n = 8")
    if variant == "mod9" and n != 9:
        raise ValueError("variant mod9 requires n = 9")


def ilp_variables(n: int):
    """x-variable triples and y-variable subsets, in sorted order."""
    labels = range(1, n + 1)
    x_keys = list(itertools.combinations(labels, 3))
    y_keys = [t for size in range(4, n + 1)
              for t in itertools.combinations(labels, size)]
    return x_keys, y_keys


def ilp_constraints(n: int, variant: str = "base") -> list[IlpConstraint]:
    """All constraints of the program, deterministically ordered."""
    _check_ilp_args(n, variant)
    labels = range(1, n + 1)
    cons = []
    for size in range(4, n):
        for t_set in itertools.combinations(labels, size):
            terms = [(1, _x_name(s))
                     for s in itertools.combinations(t_set, 3)]
            cons.append(IlpConstraint(
                name=f"sub_{size}_" + "_".join(map(str, t_set)),
                terms=tuple(terms), sense="<=", rhs=RIT_EXACT[size]))
    for t_set in itertools.combinations(labels, 4):
        terms = [(-3, _y_name(t_set))]
        terms += [(1, _x_name(s)) for s in itertools.combinations(t_set, 3)]
        cons.append(IlpConstraint(
            name="ext4_" + "_".join(map(str, t_set)),
            terms=tuple(terms), sense="<=", rhs=1))
    for size in range(5, n + 1):
        weight = comb(size - 1, 2)
        for t_set in itertools.combinations(labels, size):
            for missing in t_set:
                r_set = tuple(v for v in t_set if v != missing)
                terms = [(weight, _y_name(r_set)), (-weight, _y_name(t_set))]
                terms += [(1, _x_name(tuple(sorted(s + (missing,)))))
                          for s in itertools.combinations(r_set, 2)]
                cons.append(IlpConstraint(
                    name=f"chain_{size}_" + "_".join(map(str, t_set))
                         + f"_r{missing}",
                    terms=tuple(terms), sense="<=", rhs=weight))
    if variant in ("mod8", "mod9"):
        zero_sizes = (6, 7, 8) if variant == "mod8" else (7, 8, 9)
        low_size = 5 if variant == "mod8" else 6
        low_coef = -8 if variant == "mod8" else -11
        for size in zero_sizes:
            for t_set in itertools.combinations(labels, size):
                cons.append(IlpConstraint(
                    name=f"zero_{size}_" + "_".join(map(str, t_set)),
                    terms=((1, _y_name(t_set)),), sense="=", rhs=0))
        for t_set in itertools.combinations(labels, low_size):
            terms = [(low_coef, _y_name(t_set))]
            terms += [(1, _x_name(s))
                      for s in itertools.combinations(t_set, 3)]
            cons.append(IlpConstraint(
                name=f"low_{low_size}_" + "_".join(map(str, t_set)),
                terms=tuple(terms), sense=">=", rhs=0))
    return cons


def _render_terms(terms) -> str:
    parts = []
    for coef, var in terms:
        if not parts:
            if coef == 1:
                parts.append(var)
            elif coef == -1:
                parts.append(f"- {var}")
            elif coef < 0:
                parts.append(f"- {-coef} {var}")
            else:
                parts.append(f"{coef} {var}")
        else:
            sign = "+" if coef > 0 else "-"
            mag = abs(coef)
            parts.append(f"{sign} {var}" if mag == 1 else f"{sign} {mag} {var}")
    return " ".join(parts)


def _wrap(prefix: str, body: str, width: int = 78) -> list[str]:
    words = body.split(" ")
    lines = []
    cur = prefix
    for word in words:
        if cur != prefix and len(cur) + 1 + len(word) > width:
            lines.append(cur)
            cur = " " + word
        else:
            cur = cur + " " + word if cur else word
    lines.append(cur)
    return lines


def ilp_export(n: int, variant: str = "base") -> str:
    """The program as LP-format text (Maximize / Subject To / Binary /
    End), with deterministic variable and constraint naming."""
    _check_ilp_args(n, variant)
    x_keys, y_keys = ilp_variables(n)
    lines = ["Maximize"]
    objective = _render_terms([(1, _x_name(s)) for s in x_keys])
    lines.extend(_wrap(" obj:", objective))
    lines.append("Subject To")
    for con in ilp_constraints(n, variant):
        body = f"{_render_terms(con.terms)} {con.sense} {con.rhs}"
        lines.extend(_wrap(f" {con.name}:", body))
    lines.append("Binary")
    for s in x_keys:
        lines.append(f" {_x_name(s)}")
    for t in y_keys:
        lines.append(f" {_y_name(t)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def ilp_assignment_from_pointset(ps: PointSet, n: int | None = None,
                                 variant: str = "base") -> IlpAssignment:
    """The assignment a concrete point set induces, with verification.

    Labels follow lexicographic point order; x_S records whether the
    triple spans a rit and y_{t,T} whether the restriction to T is
    1-extension reachable.  Every constraint of the chosen variant is
    evaluated on the assignment.  Infeasibility under the base variant
    is impossible by construction, so it raises instead of reporting.
    """
    if n is None:
        n = len(ps)
    if len(ps) != n:
        raise ValueError("point count must equal n")
    _check_ilp_args(n, variant)
    pts = ps.points
    x = {}
    for triple in itertools.combinations(range(1, n + 1), 3):
        a, b, c = (pts[i - 1] for i in triple)
        x[triple] = 1 if is_rit(a, b, c) else 0
    y = {}
    for size in range(4, n + 1):
        for t_set in itertools.combinations(range(1, n + 1), size):
            sub = PointSet.of(pts[i - 1] for i in t_set)
            y[t_set] = 1 if is_1ext_obtainable(sub) else 0
    values = {_x_name(s): v for s, v in x.items()}
    values.update({_y_name(t): v for t, v in y.items()})
    violated = []
    for con in ilp_constraints(n, variant):
        total = sum(coef * values[var] for coef, var in con.terms)
        ok = (total <= con.rhs if con.sense == "<="
              else total >= con.rhs if con.sense == ">="
              else total == con.rhs)
        if not ok:
            violated.append(con.name)
    objective = count_rit(ps)
    if objective != sum(x.values()):
        raise RuntimeError(
            "triple tally disagrees with the counting routine")
    if violated and variant == "base":
        raise RuntimeError(
            "point-set assignment violates the base program: "
            + ", ".join(violated[:5]))
    return IlpAssignment(x=x, y=y, feasible=not violated,
                         violated=tuple(violated), objective=objective)
