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
ascending).  Two internal shortcuts never change that set:

* candidates are stored in per-score buckets with a bounded total, each
  as its parent's point tuple (shared, not copied) and the one or two
  points it adds; the child's own point tuple is built only when it is
  keyed.  When the bound is hit the lowest buckets are evicted and
  later candidates at evicted scores are skipped.  If deduplication
  then runs short of ``beam_width`` classes, the pool is rebuilt from
  the retained parents with a larger bound, so eviction is only ever an
  accelerator;
* candidates are canonicalized bucket by bucket from the top and keying
  stops once the retention boundary's bucket is complete.

Every best value is certified on the spot by recounting its witness
with the counting routines of :mod:`squarespan.geometry`.  For a fixed
configuration the retained classes, best values, witnesses and level
statistics are all independent of the worker count: parents are
expanded in fixed-size chunks whose children reach the pools in chunk
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from squarespan.corpus import CorpusRecord, render_grid
from squarespan.extension import _child_points, _children, _map_chunks
from squarespan.geometry import PointSet, count_rit, count_squares
from squarespan.similarity import (
    centered_key,
    key_to_pointset,
    normalize_to_grid,
)

BEAM_MODES = ("rit", "square")

_SEEDS = {
    "rit": ((0, 0), (0, 1), (1, 0)),
    "square": ((0, 0), (0, 1), (1, 0), (1, 1)),
}


@dataclass(frozen=True)
class BeamConfig:
    """Search parameters: mode, target cardinality, width, workers."""

    mode: str
    n_target: int
    beam_width: int = 200
    threads: int = 1

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
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class LevelStat:
    """Collection diagnostics of one finalized cardinality.

    ``collected`` counts raw candidate arrivals at the pool, ``keyed``
    the candidates actually canonicalized, ``distinct`` the classes
    found down to the retention boundary; ``rebuilds`` is how often the
    pool had to be recollected to certify exactness.
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


class _PoolShortfall(Exception):
    """Deduplication ran short of the width after eviction; recollect."""


class _Pool:
    """Raw candidates in per-score buckets with a bounded total.

    A candidate is stored as (parent points, new_doubled), the parent's
    tuple and the doubled points ``extension._children`` adds to it; it
    counts as one entry.  Exceeding ``cap`` evicts whole lowest-score
    buckets down to half the cap (never the highest bucket); the largest
    evicted score is remembered and later arrivals at or below it are
    dropped.
    """

    __slots__ = ("buckets", "cap", "stored", "collected", "evicted")

    def __init__(self, cap: int):
        self.buckets: dict[int, list[tuple]] = {}
        self.cap = cap
        self.stored = 0
        self.collected = 0
        self.evicted = -1

    @property
    def floor(self) -> int:
        """Minimal score still accepted."""
        return self.evicted + 1

    def add(self, score: int, parent: tuple, new_doubled: tuple) -> None:
        self.collected += 1
        if score <= self.evicted:
            return
        self.buckets.setdefault(score, []).append((parent, new_doubled))
        self.stored += 1
        if self.stored > self.cap:
            for s in sorted(self.buckets)[:-1]:
                if 2 * self.stored <= self.cap:
                    break
                self.stored -= len(self.buckets.pop(s))
                self.evicted = max(self.evicted, s)


def _finalize(pool: _Pool, width: int):
    """Exact top-``width`` classes: (retained, keyed, distinct).

    ``retained`` is a list of (key, score) in (score descending, key
    ascending) order; each candidate's child points are built just
    before it is keyed.  Raises _PoolShortfall when fewer than ``width``
    classes survive deduplication although candidates were evicted --
    only then could an evicted candidate have belonged to the result.
    Raises RuntimeError when one class turns up at two scores, which
    would make the scores, and so the retained set, wrong.
    """
    retained: list[tuple[tuple, int]] = []
    seen: dict[tuple, int] = {}
    keyed = 0
    for s in sorted(pool.buckets, reverse=True):
        if len(retained) >= width:
            break
        fresh = []
        for parent, new in pool.buckets[s]:
            keyed += 1
            k = centered_key(_child_points(parent, new)[0])
            if k in seen:
                if seen[k] != s:
                    raise RuntimeError(
                        f"same class at two scores: {seen[k]} and {s}")
                continue
            seen[k] = s
            fresh.append(k)
        fresh.sort()
        for k in fresh:
            if len(retained) < width:
                retained.append((k, s))
    if len(retained) < width and pool.evicted >= 0:
        raise _PoolShortfall
    return retained, keyed, len(seen)


# ---------------------------------------------------------------------------
# Expansion.
# ---------------------------------------------------------------------------


def _expand_beam_chunk(args):
    """Children of the given (points, score) parents, unbuilt.

    ``floors`` maps a step size (1, and 2 for squares) to the minimal
    child score worth collecting; steps absent from ``floors`` are not
    produced.  Returns {step: {score: [(i, new_doubled), ...]}}, i being
    the parent's index in ``items`` and new_doubled the points the child
    adds to it, so a pooled worker sends back no point sets.
    """
    mode, items, floors = args
    out: dict[int, dict[int, list[tuple]]] = {d: {} for d in floors}
    for i, (pts, m) in enumerate(items):
        for d, s, new in _children(mode == "square", pts, m, floors):
            out[d].setdefault(s, []).append((i, new))
    return out


def _collect(sinks, items, out) -> None:
    """Add one _expand_beam_chunk result to the pools ``sinks[step]``,
    resolving each parent index against ``items``."""
    for d in sorted(out):
        sink = sinks[d]
        for s in sorted(out[d], reverse=True):
            for i, new in out[d][s]:
                sink.add(s, items[i][0], new)


def _reps(retained) -> list[tuple[tuple, int]]:
    """Decoded (points, score) parents of a retained level."""
    return [(key_to_pointset(k).points, m) for k, m in retained]


def _rebuild_pool(mode: str, target: int, retained, cap: int, deltas) -> _Pool:
    """Recollect the pool of cardinality ``target`` with a larger cap."""
    pool = _Pool(cap)
    for d in deltas:
        parents = retained.get(target - d)
        if not parents:
            continue
        items = _reps(parents)
        out = _expand_beam_chunk((mode, items, {d: pool.floor}))
        _collect({d: pool}, items, out)
    return pool


def beam_search(cfg: BeamConfig) -> BeamResult:
    """Run the truncated best-first search to ``cfg.n_target``."""
    mode = cfg.mode
    seed = _SEEDS[mode]
    deltas = (1,) if mode == "rit" else (1, 2)
    start_n = len(seed)
    base_cap = max(4096, 8 * cfg.beam_width)
    count_fn = count_rit if mode == "rit" else count_squares

    result = BeamResult(config=cfg)
    retained: dict[int, list[tuple[tuple, int]]] = {}
    pools: dict[int, _Pool] = {}
    cur_best = 0
    cur_origin = start_n

    for n in range(start_n, cfg.n_target + 1):
        if n == start_n:
            level = [(centered_key(seed), 1)]
            stat = LevelStat(n=n, collected=1, keyed=1, distinct=1,
                             retained=1, best=1)
        else:
            pool = pools.pop(n, None) or _Pool(base_cap)
            rebuilds = 0
            while True:
                try:
                    level, keyed, distinct = _finalize(pool, cfg.beam_width)
                    break
                except _PoolShortfall:
                    rebuilds += 1
                    pool = _rebuild_pool(mode, n, retained, pool.cap * 4,
                                         deltas)
            stat = LevelStat(n=n, collected=pool.collected, keyed=keyed,
                             distinct=distinct, retained=len(level),
                             best=level[0][1] if level else 0,
                             rebuilds=rebuilds)
        retained[n] = level
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

        if n == cfg.n_target or not level:
            if n == cfg.n_target:
                break
            continue

        floors = {}
        for d in deltas:
            t = n + d
            if t <= cfg.n_target:
                pools.setdefault(t, _Pool(base_cap))
                floors[d] = pools[t].floor
        if floors:
            sinks = {d: pools[n + d] for d in floors}
            for chunk, out in _map_chunks(_expand_beam_chunk, mode,
                                          _reps(level), floors, cfg.threads):
                _collect(sinks, chunk, out)

        retained.pop(n - 2, None)

    return result
