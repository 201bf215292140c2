"""Truncated best-first search for record rit and square counts.

The beam keeps, at every cardinality, the ``beam_width`` best similarity
classes by figure count (ties broken by ascending centered key) and
expands them with :func:`squarespan.extension._children`, the child
generator the exact enumeration uses, passing each pool's floor as the
lowest score worth building.  A square step may add one or two points,
so each level feeds two pending candidate pools; a pool is finalized
when the search reaches its cardinality.

Retention is exact: the retained classes are precisely the first
``beam_width`` of the deduplicated pool under (score descending, key
ascending).  Candidates wait in per-score buckets, each as its parent's
doubled point tuple (made once per parent and shared, not copied) and
the one or two doubled points it adds; the child is keyed as the two
joined, which is the child at twice its scale and has its key.  When
too many wait, the pool is cut: it keys them from the top score down,
stops at the first score s with at least ``beam_width`` classes scoring
s or more, and drops everything below s.  Nothing below s can be
retained, so s is an exact floor: later candidates under it are neither
built nor stored.  Finalizing keys what is left the same way.

Every best value is certified on the spot by recounting its witness
with the counting routines of :mod:`squarespan.geometry`.  The search
is serial and deterministic.  Children reach the pools in parent order
(the level's retained order); a parent's step-1 children come before
its step-2 children, each step in the sweep's order; and the floors are
re-read before each parent, so a cut made by one parent's children
spares the next parents building what falls under it.  The order of
arrival, and with it every cut, is fixed by the configuration alone.
Which candidates are stored and keyed depends on that order; the
retained classes do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from squarespan.corpus import CorpusRecord, render_grid
from squarespan.extension import _SEEDS, _children, _doubled
from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import (
    centered_key,
    key_to_pointset,
    normalize_to_grid,
)

BEAM_MODES = ("rit", "square")


@dataclass(frozen=True)
class BeamConfig:
    """Search parameters: mode, target cardinality, width."""

    mode: str
    n_target: int
    beam_width: int = 200

    def __post_init__(self):
        if self.mode not in BEAM_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {BEAM_MODES}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.n_target < len(_SEEDS[self.mode]):
            raise ValueError(
                f"n_target must be at least {len(_SEEDS[self.mode])}"
                f" for mode {self.mode!r}")


@dataclass(frozen=True)
class LevelStat:
    """Collection diagnostics of one finalized cardinality.

    ``collected`` counts raw candidate arrivals at the pool, ``keyed``
    the candidates actually canonicalized (by cuts and finalizing
    alike), ``distinct`` the classes they fell into; ``rebuilds`` is how
    many times the pool was cut to its exact floor.
    """

    n: int
    collected: int
    keyed: int
    distinct: int
    retained: int
    best: int
    rebuilds: int = 0


@dataclass
class BeamResult:
    """Per-cardinality record values with certified witnesses.

    ``best[n]`` is the highest figure count seen at any cardinality up
    to n (a square step may skip a cardinality, so the running maximum
    is the honest value there); ``witnesses[n]`` attains it and
    ``witness_origin[n]`` names the cardinality where that witness was
    found.
    """

    config: BeamConfig
    best: dict[int, int] = field(default_factory=dict)
    witnesses: dict[int, PointSet] = field(default_factory=dict)
    witness_origin: dict[int, int] = field(default_factory=dict)
    levels: list[LevelStat] = field(default_factory=list)

    def best_at(self, n: int) -> int:
        return self.best[n]

    def _witness_id(self, origin: int) -> str:
        cfg = self.config
        return f"beam-{cfg.mode}-w{cfg.beam_width}-n{origin}"

    def to_tsv(self) -> str:
        lines = ["n\tbest\twitness"]
        for n in sorted(self.best):
            lines.append(
                f"{n}\t{self.best[n]}\t"
                f"{self._witness_id(self.witness_origin[n])}")
        return "\n".join(lines) + "\n"

    def witness_records(self) -> list[CorpusRecord]:
        """One corpus-format record per distinct witness."""
        out = []
        for n in sorted(self.best):
            if self.witness_origin[n] != n:
                continue
            ps = self.witnesses[n]
            out.append(CorpusRecord(
                id=self._witness_id(n), family=self.config.mode,
                n=len(ps), expected=self.best[n],
                grid=tuple(render_grid(ps))))
        return out


# ---------------------------------------------------------------------------
# Candidate pools.
# ---------------------------------------------------------------------------


class _Pool:
    """Candidates of one cardinality, cut at an exact floor when full.

    Candidates at or above ``floor`` wait unkeyed in per-score buckets,
    each as (parent2, new_doubled): the parent's doubled tuple (shared,
    not copied) and the doubled points ``extension._children`` adds to
    it.  Keyed candidates are held once per class in ``classes`` (key ->
    score).  When more than ``cap`` candidates wait, :func:`_rebuild_pool`
    keys them and raises ``floor`` to the highest score with at least
    ``width`` classes at or above it; nothing below that score can be
    retained, so it is dropped for good.
    """

    __slots__ = ("width", "cap", "buckets", "classes", "floor", "stored",
                 "collected", "keyed", "distinct", "cuts")

    def __init__(self, width: int, cap: int):
        self.width = width
        self.cap = cap
        self.buckets: dict[int, list[tuple]] = {}
        self.classes: dict[tuple, int] = {}
        self.floor = 0
        self.stored = 0
        self.collected = 0
        self.keyed = 0
        self.distinct = 0
        self.cuts = 0

    def add(self, score: int, parent2: tuple, new_doubled: tuple) -> None:
        self.collected += 1
        if score < self.floor:
            return
        self.buckets.setdefault(score, []).append((parent2, new_doubled))
        self.stored += 1
        if self.stored > self.cap:
            _rebuild_pool(self)


def _key_down(pool: _Pool) -> int:
    """Key waiting candidates from the top score down.

    Stops at the first score s, among waiting buckets and held classes,
    with at least ``pool.width`` classes scoring s or more, and returns
    s; returns ``pool.floor`` when every candidate is keyed without
    reaching the width.  Each candidate is keyed as its doubled parent
    joined with its doubled new points.  Raises RuntimeError when one
    class turns up at two scores, which would make the scores, and so
    the retained set, wrong.
    """
    buckets, classes = pool.buckets, pool.classes
    per_score: dict[int, int] = {}
    for s in classes.values():
        per_score[s] = per_score.get(s, 0) + 1
    above = 0
    for s in sorted(buckets.keys() | per_score.keys(), reverse=True):
        for parent2, new in buckets.pop(s, ()):
            pool.keyed += 1
            k = centered_key(parent2 + new)
            seen = classes.get(k)
            if seen is None:
                classes[k] = s
                per_score[s] = per_score.get(s, 0) + 1
                pool.distinct += 1
            elif seen != s:
                raise RuntimeError(
                    f"same class at two scores: {seen} and {s}")
        above += per_score.get(s, 0)
        if above >= pool.width:
            return s
    return pool.floor


def _rebuild_pool(pool: _Pool) -> None:
    """Cut the pool at its exact floor: key what waits, drop what scores
    below the ``pool.width``-th best class.

    ``perfbench/tracing.py`` times this function as ``beam.rebuild``.
    """
    pool.cuts += 1
    pool.floor = floor = _key_down(pool)
    pool.classes = {k: s for k, s in pool.classes.items() if s >= floor}
    pool.buckets.clear()
    pool.stored = 0


def _finalize(pool: _Pool) -> list[tuple[tuple, int]]:
    """Exact top ``pool.width`` classes as (key, score) pairs.

    Keys the waiting candidates as a cut does, starting from the classes
    the pool holds, and returns the first ``width`` classes in (score
    descending, key ascending) order.
    """
    floor = _key_down(pool)
    top = sorted((-s, k) for k, s in pool.classes.items() if s >= floor)
    return [(k, -s) for s, k in top[:pool.width]]


# ---------------------------------------------------------------------------
# Expansion.
# ---------------------------------------------------------------------------


def _expand_beam_chunk(square: bool, retained, sinks) -> None:
    """Feed the children of a level's retained classes to their pools.

    ``retained`` holds the level's (key, score) pairs; ``sinks`` maps a
    step size (1, and 2 for squares) to the pool of that child
    cardinality, and steps absent from it are not produced.  Each parent
    is decoded and doubled once, and its children are built only as far
    as the pools' current floors ask.  ``perfbench/tracing.py`` times
    this function as ``beam.expand``.
    """
    for key, m in retained:
        pts = key_to_pointset(key).points
        pts2 = _doubled(pts)
        floors = {d: sink.floor for d, sink in sinks.items()}
        for d, s, new in _children(square, pts, pts2, m, floors):
            sinks[d].add(s, pts2, new)


def beam_search(cfg: BeamConfig) -> BeamResult:
    """Run the truncated best-first search to ``cfg.n_target``."""
    mode = cfg.mode
    seed = _SEEDS[mode]
    deltas = (1,) if mode == "rit" else (1, 2)
    start_n = len(seed)
    cap = max(4096, 8 * cfg.beam_width)
    count_fn = count_rit if mode == "rit" else count_squares

    result = BeamResult(config=cfg)
    pools: dict[int, _Pool] = {}
    cur_best = 0
    cur_origin = start_n

    for n in range(start_n, cfg.n_target + 1):
        if n == start_n:
            level = [(centered_key(seed), 1)]
            stat = LevelStat(n=n, collected=1, keyed=1, distinct=1,
                             retained=1, best=1)
        else:
            pool = pools.pop(n)
            level = _finalize(pool)
            stat = LevelStat(n=n, collected=pool.collected, keyed=pool.keyed,
                             distinct=pool.distinct, retained=len(level),
                             best=level[0][1] if level else 0,
                             rebuilds=pool.cuts)
        result.levels.append(stat)

        if level and level[0][1] > cur_best:
            top_key, top_score = level[0]
            witness = normalize_to_grid(key_to_pointset(top_key))
            recount = count_fn(witness)
            if recount != top_score:
                raise RuntimeError(f"witness recount {recount} != "
                                   f"tracked score {top_score}")
            cur_best = top_score
            cur_origin = n
            result.witnesses[n] = witness
        else:
            result.witnesses[n] = result.witnesses[cur_origin]
        result.best[n] = cur_best
        result.witness_origin[n] = cur_origin

        if n == cfg.n_target:
            break
        sinks = {d: pools.setdefault(n + d, _Pool(cfg.beam_width, cap))
                 for d in deltas if n + d <= cfg.n_target}
        _expand_beam_chunk(mode == "square", level, sinks)

    return result
