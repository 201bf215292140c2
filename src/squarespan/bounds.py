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
#
# One row enumeration, `_rows`, lists the constraints in program order
# and feeds all three consumers: `ilp_constraints` expands each row
# into named terms, `ilp_export` streams the rows into LP text, and
# `ilp_assignment_from_pointset` evaluates each row without terms.  A
# row's x-sum is a rit count: with cnt[T] the number of rits inside T,
# it is cnt[T], or cnt[T] - cnt[R] for a chain row.  The assignment's
# y values come from family (3) read as a rule: a rit is reachable, and
# T with #T >= 4 is reachable iff some R = T - v is reachable and some
# rit inside T passes through v.  Label v is bit v - 1 of a subset mask.

ILP_VARIANTS = ("base", "mod8", "mod9")

# zero-row sizes, low-row size and low-row y coefficient of each variant
_TIGHTENED = {"mod8": ((6, 7, 8), 5, -8), "mod9": ((7, 8, 9), 6, -11)}


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


def _subsets(n: int, size: int):
    """(labels, mask, name tag) of every size-subset of {1..n}, in
    combinations order."""
    labels = range(1, n + 1)
    bits = [1 << (v - 1) for v in labels]
    tags = [str(v) for v in labels]
    return zip(itertools.combinations(labels, size),
               map(sum, itertools.combinations(bits, size)),
               map("_".join, itertools.combinations(tags, size)))


def _rows(n: int, variant: str):
    """Every constraint of the program, in program order.

    A row is (name, family, labels, mask, missing, coef, sense, rhs):
    ``labels`` is the subset T and ``mask`` its bitmask, and ``coef``
    multiplies y_T (0: no y term).  Every family but ``zero`` sums x_S
    over the triples inside T; a ``chain`` row sums only the triples
    through ``missing`` and adds -coef y_R for R = T - {missing}.
    ``missing`` is 0 outside chain rows.
    """
    for size in range(4, n):
        for labels, mask, tag in _subsets(n, size):
            yield (f"sub_{size}_{tag}", "sub", labels, mask, 0, 0, "<=",
                   RIT_EXACT[size])
    for labels, mask, tag in _subsets(n, 4):
        yield f"ext4_{tag}", "ext4", labels, mask, 0, -3, "<=", 1
    for size in range(5, n + 1):
        weight = comb(size - 1, 2)
        for labels, mask, tag in _subsets(n, size):
            for missing in labels:
                yield (f"chain_{size}_{tag}_r{missing}", "chain", labels,
                       mask, missing, -weight, "<=", weight)
    if variant in _TIGHTENED:
        zero_sizes, low_size, low_coef = _TIGHTENED[variant]
        for size in zero_sizes:
            for labels, mask, tag in _subsets(n, size):
                yield f"zero_{size}_{tag}", "zero", labels, mask, 0, 1, "=", 0
        for labels, mask, tag in _subsets(n, low_size):
            yield (f"low_{low_size}_{tag}", "low", labels, mask, 0,
                   low_coef, ">=", 0)


def _variable_names(x_keys, y_keys):
    """Each variable's name, built once: x names under every ordering
    of their triple, y names under their subset."""
    x_names = {}
    for triple in x_keys:
        name = _x_name(triple)
        for order in itertools.permutations(triple):
            x_names[order] = name
    return x_names, {t: _y_name(t) for t in y_keys}


def _row_terms(row, x_names, y_names):
    """The row's y terms as (coefficient, name) pairs and the names of
    its x terms, whose coefficients are all 1, in program order."""
    _, family, labels, _, missing, coef, _, _ = row
    if family == "chain":
        rest = tuple(v for v in labels if v != missing)
        return ([(-coef, y_names[rest]), (coef, y_names[labels])],
                [x_names[a, b, missing]
                 for a, b in itertools.combinations(rest, 2)])
    y_terms = [(coef, y_names[labels])] if coef else []
    if family == "zero":
        return y_terms, []
    return y_terms, [x_names[s] for s in itertools.combinations(labels, 3)]


def ilp_constraints(n: int, variant: str = "base") -> list[IlpConstraint]:
    """All constraints of the program, deterministically ordered."""
    _check_ilp_args(n, variant)
    x_names, y_names = _variable_names(*ilp_variables(n))
    cons = []
    for row in _rows(n, variant):
        y_terms, x_vars = _row_terms(row, x_names, y_names)
        cons.append(IlpConstraint(
            name=row[0], terms=tuple(y_terms + [(1, v) for v in x_vars]),
            sense=row[6], rhs=row[7]))
    return cons


def _render_terms(y_terms, x_vars) -> str:
    """LP text of sum(coef * y) + sum(x): 'x_1_2_3 + x_1_2_4',
    '- 3 y_4_1_2_3_4 + x_1_2_3', ..."""
    parts = []
    for coef, var in y_terms:
        if parts or coef < 0:
            parts.append("+" if coef > 0 else "-")
        if coef not in (1, -1):
            parts.append(str(abs(coef)))
        parts.append(var)
    if x_vars:
        parts.append(("+ " if parts else "") + " + ".join(x_vars))
    return " ".join(parts)


def _wrap(prefix: str, body: str, width: int = 78) -> list[str]:
    """Greedy word wrap of ``prefix`` and ``body`` into lines of at most
    ``width`` characters (or one word); continuation lines start with a
    space."""
    text = f"{prefix} {body}"
    lines = []
    # a line runs from pos; start is the space before its first word
    pos, start = 0, len(prefix)
    while len(text) - pos > width:
        cut = text.rfind(" ", start + 1, pos + width + 1)
        if cut < 0:
            cut = text.find(" ", start + 1)
            if cut < 0:
                break
        lines.append(text[pos:cut])
        pos = start = cut
    lines.append(text[pos:])
    return lines


def ilp_export(n: int, variant: str = "base") -> str:
    """The program as LP-format text (Maximize / Subject To / Binary /
    End), with deterministic variable and constraint naming."""
    _check_ilp_args(n, variant)
    x_keys, y_keys = ilp_variables(n)
    x_names, y_names = _variable_names(x_keys, y_keys)
    lines = ["Maximize"]
    lines += _wrap(" obj:", _render_terms((), [x_names[s] for s in x_keys]))
    lines.append("Subject To")
    for row in _rows(n, variant):
        body = _render_terms(*_row_terms(row, x_names, y_names))
        lines += _wrap(f" {row[0]}:", f"{body} {row[6]} {row[7]}")
    lines.append("Binary")
    lines += [f" {x_names[s]}" for s in x_keys]
    lines += [f" {name}" for name in y_names.values()]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _rit_counts(pts, n: int):
    """x_S of every triple, and cnt[T], the number of rits inside each
    label subset T, by one subset-sum pass over the rit triples."""
    x = {}
    cnt = [0] * (1 << n)
    for triple in itertools.combinations(range(1, n + 1), 3):
        a, b, c = (pts[i - 1] for i in triple)
        x[triple] = 1 if is_rit(a, b, c) else 0
        if x[triple]:
            cnt[sum(1 << (v - 1) for v in triple)] = 1
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                cnt[mask] += cnt[mask ^ bit]
    return x, cnt


def _reachable(cnt, n: int) -> list[int]:
    """reach[T]: 1 iff T is 1-extension reachable, that is, T is a rit,
    or T - v is reachable and a rit inside T passes through v, for some
    v in T (the subsets are visited in increasing mask order)."""
    bits = [1 << i for i in range(n)]
    reach = [0] * (1 << n)
    for mask in range(1 << n):
        if mask.bit_count() == 3:
            reach[mask] = cnt[mask]
        elif any(mask & b and reach[mask ^ b] and cnt[mask] > cnt[mask ^ b]
                 for b in bits):
            reach[mask] = 1
    return reach


def ilp_assignment_from_pointset(ps: PointSet,
                                 variant: str = "base") -> IlpAssignment:
    """The assignment a concrete point set induces, with verification.

    The program's size n is the number of points, and labels follow
    lexicographic point order; x_S records whether the triple spans a
    rit and y_{t,T} whether the restriction to T is 1-extension
    reachable.  Every constraint of the chosen variant is
    evaluated on the assignment.  Infeasibility under the base variant
    is impossible by construction, so it raises instead of reporting.
    """
    n = len(ps)
    _check_ilp_args(n, variant)
    x, cnt = _rit_counts(ps.points, n)
    reach = _reachable(cnt, n)
    y = {labels: reach[mask] for size in range(4, n + 1)
         for labels, mask, _ in _subsets(n, size)}
    violated = []
    for name, family, _, mask, missing, coef, sense, rhs in _rows(n, variant):
        if family == "chain":
            rest = mask ^ (1 << (missing - 1))
            total = (coef * (reach[mask] - reach[rest])
                     + cnt[mask] - cnt[rest])
        else:
            total = coef * reach[mask] + (cnt[mask] if family != "zero"
                                          else 0)
        ok = (total <= rhs if sense == "<="
              else total >= rhs if sense == ">="
              else total == rhs)
        if not ok:
            violated.append(name)
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
