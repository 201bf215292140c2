"""Canonical forms of point sets under plane similarity (rotation, scaling,
translation, reflection).

Two complete invariants are provided:

* ``canonical_key`` -- the reference form.  Identifying each point with the
  Gaussian rational x + iy, every ordered pair (p, q) and each of
  {identity, conjugation} induces the map z -> (s(z) - s(p)) / (s(q) - s(p));
  the key is the lexicographically minimal sorted image over all
  2*n*(n-1) candidates, serialized to bytes.  O(n^3) integer arithmetic.

* ``centered_key`` -- a fast complete invariant used by the search code.
  Coordinates are centered on the centroid (scaled by n to stay integral);
  the residual rotation/scale/reflection freedom is removed by dividing by
  a point of maximal norm, minimizing the encoded image over all
  maximal-norm points and both reflections.  Each image is encoded with
  one division by its content (the gcd of its coordinates and the
  common denominator), which also removes the set's own scale, so a
  scaled copy of a set has the set's key.  The centroid is
  similarity-equivariant and maximal-norm points map to maximal-norm
  points, so equal keys characterize similar sets exactly as for
  ``canonical_key`` (the two partitions are property-tested against
  each other).

Both keys require at least two points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .geometry import Point, PointSet


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Serialized canonical form; equal keys iff similar point sets."""

    data: bytes

    @property
    def text(self) -> str:
        return self.data.decode("ascii")


def normalize_to_grid(ps: PointSet) -> PointSet:
    """Translate the lower-left bounding corner to the origin and divide out
    the content (gcd of all coordinates).  A similarity-preserving integer
    normal form for storage and display."""
    return PointSet(_normalize(ps.points))


def _normalize(pts: tuple[Point, ...]) -> tuple[Point, ...]:
    minx = min(x for x, _ in pts)
    miny = min(y for _, y in pts)
    g = 0
    for x, y in pts:
        g = gcd(g, x - minx)
        g = gcd(g, y - miny)
    if g == 0:
        g = 1  # single point at origin
    return tuple(((x - minx) // g, (y - miny) // g) for x, y in pts)


# ---------------------------------------------------------------------------
# Reference canonical key (pair sweep over Gaussian rationals).
# ---------------------------------------------------------------------------


def canonical_key(ps: PointSet) -> CanonicalKey:
    """Reference canonical form under similarity, including reflections.

    All points of one image share the denominator ``nrm``, so an image is
    kept as sorted integer numerators; only the minimal one is reduced.
    """
    pts = ps.points
    if len(pts) < 2:
        raise ValueError("canonical key needs at least two points")
    best = None
    best_nrm = 0
    for conj in (False, True):
        spts = [(x, -y) for x, y in pts] if conj else list(pts)
        for px, py in spts:
            for qx, qy in spts:
                dx = qx - px
                dy = qy - py
                if dx == 0 and dy == 0:
                    continue
                nrm = dx * dx + dy * dy
                image = sorted(
                    ((zx - px) * dx + (zy - py) * dy,
                     (zy - py) * dx - (zx - px) * dy)
                    for zx, zy in spts
                )
                if best is None or _image_less(image, nrm, best, best_nrm):
                    best = image
                    best_nrm = nrm
    image = [(Fraction(x, best_nrm), Fraction(y, best_nrm)) for x, y in best]
    return CanonicalKey(";".join(
        f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}"
        for x, y in image).encode("ascii"))


def _image_less(a, a_nrm: int, b, b_nrm: int) -> bool:
    """Whether image a / a_nrm sorts before image b / b_nrm."""
    for (ax, ay), (bx, by) in zip(a, b):
        if ax * b_nrm != bx * a_nrm:
            return ax * b_nrm < bx * a_nrm
        if ay * b_nrm != by * a_nrm:
            return ay * b_nrm < by * a_nrm
    return False


def similar(a: PointSet, b: PointSet) -> bool:
    """True iff the two sets are related by a plane similarity."""
    if len(a) != len(b):
        return False
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# Fast complete invariant.
# ---------------------------------------------------------------------------


def centered_key(pts: tuple[Point, ...],
                 marked: Point | None = None) -> tuple[int, ...]:
    """Fast complete similarity invariant of a tuple of distinct points.

    Returns a flat int tuple: (common denominator, x1, y1, ..., xn, yn)
    of the minimal centered image in lowest terms.  With a ``marked``
    point of the set, equal keys mean that some similarity maps one set
    onto the other carrying marked point to marked point; the marked
    point's image is then appended to the encoding.  The key of a
    scaled copy of the set is the key of the set.
    """
    n = len(pts)
    if n < 2:
        raise ValueError("centered key needs at least two points")
    if marked is not None and marked not in pts:
        raise ValueError("marked point must belong to the set")
    sx = 0
    sy = 0
    for x, y in pts:
        sx += x
        sy += y
    w = [(n * x - sx, n * y - sy) for x, y in pts]
    norms = [x * x + y * y for x, y in w]
    top = max(norms)
    if norms.count(top) == 1:
        cands = (w[norms.index(top)],)
    else:
        cands = [p for p, nm in zip(w, norms) if nm == top]
    if marked is not None:
        mx = n * marked[0] - sx
        my = n * marked[1] - sy
    best = None
    for ux, uy in cands:
        fwd = [(x * ux + y * uy, y * ux - x * uy) for x, y in w]
        image = sorted(fwd)
        x0, y0 = image[0]
        if marked is not None:
            fm = (mx * ux + my * uy, my * ux - mx * uy)
            image.append(fm)
        # When the least x is taken by one point only and its y is
        # negative, the image's first point beats the mirror's (x0, -y0),
        # so the mirror is neither used nor needed.
        if y0 >= 0 or image[1][0] == x0:
            mirror = sorted([(x, -y) for x, y in fwd])
            if marked is not None:
                mirror.append((fm[0], -fm[1]))
            if mirror < image:
                image = mirror
        # Both reflections have the same content, and dividing by it
        # keeps the order, so images compare before they are reduced.
        flat = list(chain.from_iterable(image))
        c = gcd(top, *flat)
        enc = (top // c, *[v // c for v in flat])
        if best is None or enc < best:
            best = enc
    return best


def key_to_pointset(key: tuple[int, ...], marked: bool = False):
    """Integer representative of a ``centered_key`` class: the key's own
    numerator points, grid-normalized.  Deterministic across platforms.

    For a marked key returns (PointSet, marked point) with the marked
    point expressed in the representative's coordinates.
    """
    coords = key[1:]
    pts = _normalize(tuple(zip(coords[::2], coords[1::2])))
    if not marked:
        return PointSet.of(pts)
    # The marked image is one of the key's points, so normalizing it with
    # them leaves the shift and the divisor unchanged.
    ps, mp = PointSet.of(pts[:-1]), pts[-1]
    if mp not in ps:
        raise ValueError("marked image missing from key points")
    return ps, mp


# ---------------------------------------------------------------------------
# Exact similarity images (testing and verification support).
# ---------------------------------------------------------------------------


def similarity_image(
    ps: PointSet,
    a: tuple[Fraction, Fraction],
    b: tuple[Fraction, Fraction],
    conjugate: bool = False,
) -> PointSet:
    """Image of the set under z -> a*s(z) + b (s = conjugation if requested),
    rescaled by the common denominator so the result is again integral.
    ``a`` must be nonzero; the rescaling is itself a similarity, so the
    image is similar to the input.

    With D the lcm of the denominators of a and b, D times each image
    coordinate is an integer; dividing those integers by their gcd with
    D clears exactly the image's common denominator.
    """
    coeffs = [Fraction(c) for c in (*a, *b)]
    if not coeffs[0] and not coeffs[1]:
        raise ValueError("similarity scale factor must be nonzero")
    denom = lcm(*(c.denominator for c in coeffs))
    ax, ay, bx, by = (c.numerator * (denom // c.denominator) for c in coeffs)
    pts = [(x, -y) for x, y in ps.points] if conjugate else ps.points
    out = [(ax * x - ay * y + bx, ax * y + ay * x + by) for x, y in pts]
    g = gcd(denom, *chain.from_iterable(out))
    return PointSet.of((ix // g, iy // g) for ix, iy in out)
