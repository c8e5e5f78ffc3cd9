"""Concrete two-coloring families of the plane.

Four families, each a total map from points to black/white:

* ``StripColoring`` -- alternating half-open horizontal strips of width
  ``scale * sqrt(3)/2``, the classical unit-triangle-avoiding coloring.
* ``ZebraColoring`` -- the boundary is an infinite family of congruent
  piecewise-linear curves ``L_i``, each 1-periodic along a unit vector
  ``x_hat`` (a profile spans u = 0 to 1 exactly), with ``L_{i+1} = L_i +
  x_hat/2 + (sqrt(3)/2) x_hat'`` for the ccw quarter turn ``x_hat'`` of
  ``x_hat``. Interior bands alternate colors; points on the curves are
  colored separately by a boundary parity rule, which the twin toggles.
* ``PolygonalColoring`` -- an explicit list of oriented boundary segments
  (white face on the left), per-segment boundary colors, and one seed point
  per face, every coordinate within +-2^197; segment ends meet where they
  are equal, and ends that nearly meet or segments that cross (rays count)
  are refused. Interior points resolve by crossing parity from a seed, in
  one array pass (``resolve``) that also reports the points no seed reaches.
* ``HalfPlaneColoring`` -- the simplest polygonal coloring, kept as its own
  family for cheap negative tests.

Every family answers one vectorized mask query, ``resolve(xs, ys, tol)``,
which returns the black, on-boundary and unresolved masks of the points
``(xs[k], ys[k])`` together. A point is unresolved when no seed of a
polygonal coloring reaches it, when a zebra coloring cannot locate its
band exactly (a coordinate that is not finite, or frame coordinates with
``|s| + |t| >= 2^48``), when a strip point's ``y / (period / 2)`` is not
finite, or when a half-plane point's projection on the normal is not finite;
a quotient or sum that overflows counts as not finite, and no numpy warning
is raised. The strip reads y alone: its masks, and its distances at finite
x, are the same at (x, y) and (x', y). The single-point ``color_at`` is a
view over ``resolve``, and raises ``UnresolvedFace`` at an unresolved point.
``distance(xs, ys)`` returns the exact distance of each point to the
boundary in one array pass (the witness margin of a scan), NaN where a
coordinate is not finite and where a zebra, strip or half-plane point is
unresolved. ``boundary_segments(window)`` gives the boundary in a window
as one ``PieceTable``, for the probes, ``render`` and the almost-unit
search: the pieces' ends, ray flags and colors as arrays, and the ids of
the vertices where their ends meet, which each family sets where it
knows them (a zebra where consecutive pieces of a curve share a joint in
the window, a polygonal coloring once, where piece ends are equal).
Colorings are immutable after construction; all queries are pure. Three
array kernels hold the segment arithmetic: ``_clip``, the one
Liang-Barsky clip (zebra, half-plane and almost-unit tables), ``_offsets``
from points to their nearest segment points (polygonal queries and seed
table, zebra ``distance``, the hexagon probe's host piece), and
``circle_polyline_intersections``, a circle's hits on a table; one
builder, ``ZebraColoring._polylines``, makes every zebra polyline row.

``coloring_from_dict`` is the one reader of the JSON document form that
``to_dict`` writes: it checks each field's shape as it builds, and raises
``SchemaError`` naming the field's path on a bad one.

The zebra family carries its structural checker: conditions (a)-(c) hold by
construction of the representation, and the distance/angle condition (d) --
for consecutive curves, ``|AB| > 1`` iff the acute angle of AB with x_hat is
below pi/3 -- is verified exactly on the piecewise-linear data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product
from numbers import Real
from enum import Enum
from typing import Optional

import numpy as np

from .geom import (
    DEFAULT_TOL,
    SQRT3,
    Circle,
    CircleHit,
    GeometryError,
    InvalidArgument,
    Point,
    Region,
    SchemaError,
    Segment,
    TriangleSpec,
    UnitVector,
    WindowTooLarge,
    check_tol,
    distance,
)

__all__ = [
    "BoundaryPiece", "Color", "Coloring", "DWitness", "HalfPlaneColoring",
    "MalformedProfile", "PieceTable", "PolygonalColoring", "SchemaError", "StripColoring",
    "TriangleSpec", "UnresolvedFace", "ZebraColoring", "ZebraConditionReport", "ZebraProfile",
    "all_black_coloring", "check_zebra_conditions", "circle_polyline_intersections",
    "coloring_from_dict", "l_shape_coloring",
]

HALF_SQRT3 = SQRT3 / 2.0


class MalformedProfile(GeometryError):
    """A zebra profile violates its structural invariants."""


class UnresolvedFace(GeometryError):
    """The queried point is unresolved: no seed of a polygonal coloring reaches
    it without an ambiguous crossing, or it is too far out for the zebra kernel."""


class Color(Enum):
    BLACK = "black"
    WHITE = "white"

    def opposite(self) -> "Color":
        return Color.WHITE if self is Color.BLACK else Color.BLACK


def _parity_color(index: int, rule: str) -> Color:
    even = index % 2 == 0
    if rule == "even-black":
        return Color.BLACK if even else Color.WHITE
    if rule == "even-white":
        return Color.WHITE if even else Color.BLACK
    raise ValueError(f"unknown parity rule {rule!r}")


@dataclass(frozen=True)
class BoundaryPiece:
    """One oriented piece of a polygonal coloring's boundary, as documents give it.

    Orientation convention: the white face lies on the left of p->q.
    ``ray_start``/``ray_end`` flag pieces that continue unbounded past the
    stored endpoints (the stored segment is a clipped representative).
    """

    seg: Segment
    color: Color
    ray_start: bool = False
    ray_end: bool = False


class PieceTable:
    """A boundary as arrays, one row per oriented piece, white face on the left.

    Piece k is ``a + u e`` for u in ``[u_lo[k], u_hi[k]]``: a = ``(ax[k],
    ay[k])``, b = ``(bx[k], by[k])``, ``e = (ex, ey) = b - a``, ``len2 =
    |e|^2``, and u in [0, 1] widened to -inf past a where ``ray_start[k]``,
    to inf past b where ``ray_end[k]``. ``black[k]`` is its color. ``v0[k]``
    and ``v1[k]`` are the ids of the vertices at a and b, -1 on a ray side
    and at a free end; vertex m, where two or more ends meet, is ``(vx[m],
    vy[m])``, the first end in piece order (a before b) that references it.
    ``joints`` gives, for end j of piece k at 2k + j, the position of the
    first end that it meets, or -1. The arrays are read-only.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, black: np.ndarray,
                 ray_start=False, ray_end=False, joints: Optional[np.ndarray] = None):
        n = black.shape[0]
        (self.ax, self.ay), (self.bx, self.by) = a, b
        self.black = black
        self.ray_start = np.zeros(n, dtype=bool) | ray_start
        self.ray_end = np.zeros(n, dtype=bool) | ray_end
        with np.errstate(over="ignore"):  # a window's pieces may span most of the floats
            self.ex, self.ey = self.bx - self.ax, self.by - self.ay
            self.len2 = self.ex * self.ex + self.ey * self.ey
        self.u_lo = np.where(self.ray_start, -np.inf, 0.0)
        self.u_hi = np.where(self.ray_end, np.inf, 1.0)
        first = np.full(2 * n, -1) if joints is None else joints
        meets = np.bincount(first[first >= 0], minlength=2 * n) >= 2
        ids = np.where((first >= 0) & meets[first], np.cumsum(meets)[first] - 1, -1)
        self.v0, self.v1 = ids.reshape(n, 2).T
        roots = np.flatnonzero(meets)
        self.vx = np.stack((self.ax, self.bx), axis=1).ravel()[roots]
        self.vy = np.stack((self.ay, self.by), axis=1).ravel()[roots]
        for table in vars(self).values():
            table.setflags(write=False)

    def __len__(self) -> int:
        return self.black.shape[0]

    @classmethod
    def of(cls, pieces: tuple[BoundaryPiece, ...]) -> "PieceTable":
        """The table of polygonal pieces, whose ends meet where they are equal
        (+0.0 and -0.0 too) and bounded. ``InvalidArgument`` names ``segments``
        when the bounded ends of two pieces lie within 10 ``DEFAULT_TOL`` of
        each other without being equal: no tolerance decides whether they meet.
        Sorted by x, then y, equal ends are adjacent, and all the ends between
        two within reach lie within reach of the first in x."""
        coords = np.array([(pc.seg.p.x, pc.seg.p.y, pc.seg.q.x, pc.seg.q.y)
                           for pc in pieces]).reshape(-1, 4)
        rays = np.array([(pc.ray_start, pc.ray_end) for pc in pieces], dtype=bool).reshape(-1, 2)
        e = np.flatnonzero(~rays.ravel())
        x, y = coords.reshape(-1, 2)[e].T + 0.0  # + 0.0 turns -0.0 into +0.0
        order = np.lexsort((y, x))  # stable: equal ends stay in piece order
        e, x, y = e[order], x[order], y[order]
        step = 1
        with np.errstate(over="ignore", invalid="ignore"):
            while (i := np.flatnonzero(x[step:] - x[:-step] <= 10.0 * DEFAULT_TOL)).size:
                j = i + step
                near = ((np.hypot(x[j] - x[i], y[j] - y[i]) <= 10.0 * DEFAULT_TOL)
                        & ((x[j] != x[i]) | (y[j] != y[i])) & (e[i] // 2 != e[j] // 2))
                if near.any():
                    f, g = sorted((int(e[i[near][0]]), int(e[j[near][0]])))
                    raise InvalidArgument(
                        "segments", f"must meet at equal ends or keep them more than "
                                    f"{10.0 * DEFAULT_TOL} apart, but segments {f // 2} and "
                                    f"{g // 2} do not", coords.reshape(-1, 2)[[f, g]].tolist())
                step += 1
        new = np.ones(e.size, dtype=bool)  # the first end of each run of equal ends
        new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        joints = np.full(rays.size, -1)
        joints[e] = e[new][np.cumsum(new) - 1]
        a, b = coords.T.copy().reshape(2, 2, -1)
        return cls(a, b, np.array([pc.color is Color.BLACK for pc in pieces], dtype=bool),
                   rays[:, 0], rays[:, 1], joints)


_RESOLVE_BLOCK = 2048  # points per array pass of ``resolve`` and ``distance``
_MAX_WINDOW_POINTS = 2 ** 20  # most polyline points of a window's boundary


def _check_window(points: float) -> None:
    """Raise ``WindowTooLarge`` unless ``points <= _MAX_WINDOW_POINTS``."""
    if not points <= _MAX_WINDOW_POINTS:
        raise WindowTooLarge(f"holds more than {_MAX_WINDOW_POINTS} boundary polyline "
                             f"points (about {points:.3g})")


def _by_block(kernel, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """``kernel(xs, ys)``, a tuple of per-point arrays, over blocks of
    ``_RESOLVE_BLOCK`` points, so that temporaries stay at one block's size."""
    if xs.shape[0] <= _RESOLVE_BLOCK:
        return kernel(xs, ys)
    blocks = [kernel(xs[lo:lo + _RESOLVE_BLOCK], ys[lo:lo + _RESOLVE_BLOCK])
              for lo in range(0, xs.shape[0], _RESOLVE_BLOCK)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _nearest(n: int, owner: np.ndarray, gx: np.ndarray, gy: np.ndarray,
             valid=True) -> np.ndarray:
    """Per point k < n, the least ``math.hypot(gx[r, j], gy[r, j])`` over the
    ``valid`` entries (r, j) of the rows r with ``owner[r] == k``.

    Squared lengths pick the entries within a few ulps of each point's
    minimum; the value returned is ``math.hypot`` of the nearest of those,
    which is what the scalar point-segment distance gives (``np.hypot``
    differs from it by an ulp on some pairs).
    """
    sq = np.where(valid, gx * gx + gy * gy, np.inf)
    least = np.full(n, np.inf)
    np.minimum.at(least, owner, np.minimum.reduce(sq, axis=1, initial=np.inf))
    rows, cols = np.nonzero(sq <= least[owner, None] * (1.0 + 1e-14) + 1e-300)
    out = np.full(n, np.inf)
    np.minimum.at(out, owner[rows], list(map(math.hypot, gx[rows, cols].tolist(),
                                             gy[rows, cols].tolist())))
    return out


def _offsets(px, py, ax, ay, ex, ey, len2, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from points p to their nearest points ``a + u e``, u in [lo, hi],
    with ``len2 = |e|^2``, at the projection ``(p - a).e / len2`` clamped; the
    arguments broadcast. ``math.hypot`` of an offset is p's distance from the piece."""
    u = ((px - ax) * ex + (py - ay) * ey) / len2
    u = np.minimum(np.maximum(u, lo), hi)
    return px - (ax + u * ex), py - (ay + u * ey)


def circle_polyline_intersections(circle: Circle, table: PieceTable,
                                  tol: float = DEFAULT_TOL) -> list[CircleHit]:
    """All intersections of ``circle`` with the pieces of ``table``, in one
    array pass, each piece over its ``[u_lo, u_hi]``, so rays too.

    Piece a + t e meets the circle at the roots of
    ``len2 t^2 + b t + c = 0``. Two roots closer than ``2 tol`` along the
    piece, and, without a root, the nearest point of the piece when it lies
    within ``tol`` of the circle, are one tangential hit; a root or
    tangent point within ``tol / |e|`` of the parameter range counts, at
    its clamped parameter. Hits come in piece order, the smaller root
    first, and a hit within ``10 tol`` of an earlier one is merged into it,
    so that a shared end gives one hit, on the lower row.
    """
    cx, cy, r = circle.center.x, circle.center.y, circle.radius
    with np.errstate(over="ignore", invalid="ignore"):
        fx, fy = table.ax - cx, table.ay - cy
        a = table.len2
        b = 2.0 * (fx * table.ex + fy * table.ey)
        disc = b * b - 4.0 * a * (fx * fx + fy * fy - r * r)
        length = np.sqrt(a)
        root = np.sqrt(disc)
        t1, t2 = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
        graze = disc <= 0.0
        cross = ~graze & ((t2 - t1) * length > 2.0 * tol)
        # each piece's first candidate: its nearest point to the center, the
        # double root, or the smaller root
        t0 = np.where(graze, -b / (2.0 * a), np.where(cross, t1, 0.5 * (t1 + t2)))
        lo, hi = table.u_lo - tol / length, table.u_hi + tol / length
        # a superset of the grazing pieces whose nearest point lies within tol
        # of the circle, which math.hypot decides below (np.hypot may err by an ulp)
        u = np.minimum(np.maximum(t0, table.u_lo), table.u_hi)
        gap = np.hypot(table.ax + u * table.ex - cx, table.ay + u * table.ey - cy)
        first = np.where(graze, np.abs(gap - r) <= tol + 1e-12 * (gap + r), (lo <= t0) & (t0 <= hi))
        second = cross & (lo <= t2) & (t2 <= hi)
    rows, slot = np.nonzero(np.stack((first, second), axis=1))
    hits: list[CircleHit] = []
    for k, t, grazing, tangent, ax, ay, ex, ey, u_lo, u_hi in zip(
            rows.tolist(), np.where(slot, t2[rows], t0[rows]).tolist(), graze[rows].tolist(),
            (~cross)[rows].tolist(), *(c[rows].tolist() for c in (
                table.ax, table.ay, table.ex, table.ey, table.u_lo, table.u_hi))):
        t = min(max(t, u_lo), u_hi)
        x, y = ax + t * ex, ay + t * ey
        if grazing and abs(math.hypot(x - cx, y - cy) - r) > tol:
            continue
        hit = CircleHit(Point(x, y), k, tangent)
        if all(distance(known.point, hit.point) > 10.0 * tol for known in hits):
            hits.append(hit)
    return hits


def _clip(p: np.ndarray, d: np.ndarray, window: Region, u_lo=0.0, u_hi=1.0
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Liang-Barsky clip of the segments ``p + t d``, t in [u_lo, u_hi] (x, y
    on axis 0; unbounded on a ray side), to ``window``: the indices of those
    that keep a piece longer than ``DEFAULT_TOL`` (by ``math.hypot``), and
    its ends a and b."""
    n = p.shape[1]
    t0, t1, missed = np.zeros(n) + u_lo, np.zeros(n) + u_hi, np.zeros(n, bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start, delta, lo, hi in ((p[0], d[0], window.x0, window.x1),
                                     (p[1], d[1], window.y0, window.y1)):
            flat = delta == 0.0
            missed |= flat & ((start < lo) | (start > hi))
            ta, tb = (lo - start) / delta, (hi - start) / delta
            swap = ta > tb
            ta, tb = np.where(swap, tb, ta), np.where(swap, ta, tb)
            # max(t0, ta) and min(t1, tb) as Python takes them, signed zeros too
            t0 = np.where((ta > t0) & ~flat, ta, t0)
            t1 = np.where((tb < t1) & ~flat, tb, t1)
    hit = np.flatnonzero(~missed & (t0 < t1))
    p, d = p[:, hit], d[:, hit]
    a, b = p + t0[hit] * d, p + t1[hit] * d
    gx, gy = (a - b).tolist()
    long = np.fromiter(map(math.hypot, gx, gy), float, hit.size) > DEFAULT_TOL
    return hit[long], a[:, long], b[:, long]


def _resolved_black(coloring: Coloring, xs: np.ndarray, ys: np.ndarray,
                    tol: float) -> np.ndarray:
    """The black mask of ``coloring.resolve``; ``UnresolvedFace`` naming the
    first unresolved point, if there is one."""
    black, _, unresolved = coloring.resolve(xs, ys, tol)
    if np.count_nonzero(unresolved):
        j = int(unresolved.argmax())
        raise UnresolvedFace(coloring._UNRESOLVED.format(float(xs[j]), float(ys[j])))
    return black


class _Queries:
    """``color_at``, the one-point view over ``resolve``, and ``distance``."""

    _UNRESOLVED = "no seed reaches ({}, {}) unambiguously"
    # True where ``resolve`` reads ys alone, and ``distance`` does at finite
    # xs: a scan then classifies one lattice column (see monotri.scan)
    _YS_ONLY = False

    def color_at(self, p: Point, tol: float = DEFAULT_TOL) -> Color:
        black = _resolved_black(self, np.array([p.x]), np.array([p.y]), tol)[0]
        return Color.BLACK if bool(black) else Color.WHITE

    def distance(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Exact distance of each point to the boundary; NaN outside ``_measurable``."""
        ok = self._measurable(xs, ys)
        if ok is None:
            return _by_block(self._distance_block, xs, ys)[0]
        out = np.full(xs.shape, np.nan)
        out[ok] = _by_block(self._distance_block, xs[ok], ys[ok])[0]
        return out

    def _measurable(self, xs: np.ndarray, ys: np.ndarray) -> Optional[np.ndarray]:
        """The mask of the points with finite coordinates; None if that is all."""
        ok = np.isfinite(xs) & np.isfinite(ys)
        return None if ok.all() else ok


def _frac(q: np.ndarray) -> np.ndarray:
    """``np.mod(q, 1.0)`` bit for bit, at a tenth of the cost.

    ``q - floor(q)`` is exact, or one rounding of the same sum that
    ``np.mod`` rounds (``fmod(q, 1) + 1`` for negative q), and an integer q
    gives +0.0 on both sides.
    """
    return q - np.floor(q)


# ---------------------------------------------------------------------------
# Strip coloring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripColoring(_Queries):
    """Alternating horizontal strips of width ``scale * sqrt(3)/2``.

    Under the upper-closed rule a point is black iff
    ``n * scale * sqrt(3) < y <= (n + 1/2) * scale * sqrt(3)`` for some
    integer n; the lower-closed rule flips the strictness of both bounds.
    A point whose ``y / (period / 2)`` is not finite (y not finite, or the
    quotient overflows) is unresolved, and its distance is NaN.

    The queries read y alone (``distance`` also takes a non-finite x to
    NaN), so find and avoidance scans classify only the first lattice
    column of each angle: every column's placements have the same vertex
    ys, hence bit for bit the same colors and margins. Counts are the
    column's times the column count, and examples are the column's,
    repeated across the columns in pose order (``monotri.scan``).
    """

    scale: float = 1.0
    boundary_rule: str = "upper-closed"

    def __post_init__(self):
        if not (self.scale > 0.0):
            raise GeometryError(f"scale must be positive, got {self.scale}")
        if self.boundary_rule not in ("upper-closed", "lower-closed"):
            raise ValueError(f"unknown boundary rule {self.boundary_rule!r}")

    @property
    def period(self) -> float:
        return self.scale * SQRT3

    _UNRESOLVED = "({}, {}) has no finite height in half strip widths"
    _YS_ONLY = True

    def resolve(self, xs: np.ndarray, ys: np.ndarray, tol: float = DEFAULT_TOL
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Strip membership is decided by the half-open rule exactly; tol
        # widens the boundary mask only. ys / half is the unresolved test.
        half = self.period / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            q = ys / half
            frac = _frac(ys / self.period)
            near = _frac(q)
        if self.boundary_rule == "upper-closed":
            black = (frac > 0.0) & (frac <= 0.5)
        else:
            black = (frac >= 0.0) & (frac < 0.5)
        return black, np.minimum(near, 1.0 - near) * half <= tol, ~np.isfinite(q)

    def boundary_segments(self, window: Region) -> PieceTable:
        """Horizontal boundary lines across ``window``, white on the left."""
        half = self.period / 2.0
        _check_window(2.0 * ((window.y1 - window.y0) / half + 5.0))  # two points a line
        k = np.arange(math.floor(window.y0 / half) - 1, math.ceil(window.y1 / half) + 2)
        k = k[~((k * half < window.y0 - half) | (k * half > window.y1 + half))]
        y, upper_edge = k * half, k % 2 != 0  # y = (n + 1/2) * period: top edge of a black strip
        # White face above the upper edge, below the lower edge.
        x0, x1 = np.where(upper_edge, [[window.x0], [window.x1]], [[window.x1], [window.x0]])
        return PieceTable(np.stack((x0, y)), np.stack((x1, y)),
                          upper_edge == (self.boundary_rule == "upper-closed"), True, True)

    def _distance_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray]:
        # fmod, not _frac: at negative multiples of the half period this is
        # -0.0 where _frac gives +0.0; NaN where ys / half is not finite
        half = self.period / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            frac = np.fmod(ys / half, 1.0)
        frac = np.where(frac < 0.0, frac + 1.0, frac)
        return (np.minimum(frac, 1.0 - frac) * half,)

    def to_dict(self) -> dict:
        return {"type": "strip", "scale": self.scale,
                "boundary_rule": self.boundary_rule}


# ---------------------------------------------------------------------------
# Zebra colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZebraProfile:
    """One period of the boundary curve as a piecewise-linear graph.

    Breakpoints ``(u, v)`` with u strictly increasing from exactly 0 to
    exactly 1 and the last v equal to the first, so that no curve jumps at
    an integer u. Interior breakpoints must be genuine corners; collinear
    interior joints would be fake vertices and are rejected. The flat
    profile ``[(0,0),(1,0)]`` reproduces the strip coloring boundary.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = tuple((float(u), float(v)) for u, v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 2:
            raise MalformedProfile("profile needs at least two breakpoints")
        us = [u for u, _ in vs]
        if us[0] != 0.0 or us[-1] != 1.0:
            raise MalformedProfile("profile must span u = 0 to u = 1")
        for u0, u1 in zip(us, us[1:]):
            if u1 - u0 <= DEFAULT_TOL:
                raise MalformedProfile("profile breakpoints must strictly increase in u")
        if vs[0][1] != vs[-1][1]:
            raise MalformedProfile("profile is not periodic (first v != last v)")
        slopes = self.tables.slopes
        for i in range(len(slopes) - 1):
            if abs(slopes[i] - slopes[i + 1]) <= 1e-12:
                raise MalformedProfile(
                    f"consecutive collinear pieces at breakpoint u = {us[i + 1]}")

    @cached_property
    def amplitude(self) -> float:
        heights = [v for _, v in self.vertices]
        return max(heights) - min(heights)

    @cached_property
    def v_min(self) -> float:
        return min(v for _, v in self.vertices)

    @cached_property
    def v_max(self) -> float:
        return max(v for _, v in self.vertices)

    @cached_property
    def tables(self) -> "ProfileTables":
        """Lookup tables of the period, built once per profile."""
        return ProfileTables(self.vertices)

    def values(self, u: np.ndarray) -> np.ndarray:
        return np.interp(_frac(u), self.tables.us, self.tables.vs)


class ProfileTables:
    """Breakpoint tables of one profile period, for vectorized lookups.

    ``us``, ``vs`` are the breakpoints and ``slopes`` the piece slopes.
    ``secants[k]``, ``sqrt(1 + m^2)`` for the slope m of the piece that
    holds ``w = u mod 1``, with ``k = searchsorted(us, w, side="right")``,
    turns a normal tolerance into a vertical one; the end slots (w below
    ``us[0]`` or at or above ``us[-1]``) take the nearest piece's slope.
    """

    def __init__(self, vertices: tuple[tuple[float, float], ...]):
        us = np.array([u for u, _ in vertices])
        vs = np.array([v for _, v in vertices])
        slopes = np.diff(vs) / np.diff(us)
        self.us, self.vs, self.slopes = us, vs, slopes
        m = np.concatenate((slopes[:1], slopes, slopes[-1:]))
        self.secants = np.sqrt(1.0 + m * m)
        for table in vars(self).values():
            table.setflags(write=False)


FLAT_PROFILE = ZebraProfile(((0.0, 0.0), (1.0, 0.0)))
# the band of a point with no window curve at or below it; -2^63 as a float
# casts to the least int64
_NO_CURVE_BELOW = float(np.iinfo(np.int64).min)


@dataclass(frozen=True)
class ZebraColoring(_Queries):
    """Coloring whose boundary is the curve family ``L_i = L_0 + i*z``.

    ``z = x_hat/2 + (sqrt(3)/2) x_hat'`` with ``x_hat'`` the ccw quarter turn
    of ``x_hat``. Open bands between consecutive curves are colored by
    ``parity_rule`` of the band index; points on ``L_i`` by
    ``boundary_parity`` of i. Both rules are explicit: boundary colors are
    free and never inferred from the bands.
    """

    profile: ZebraProfile = FLAT_PROFILE
    x_hat: UnitVector = UnitVector(1.0, 0.0)
    parity_rule: str = "even-black"
    boundary_parity: str = "even-black"

    _UNRESOLVED = "({}, {}) lies too far from the origin to locate its band exactly"

    def __post_init__(self):
        for rule in (self.parity_rule, self.boundary_parity):
            if rule not in ("even-black", "even-white"):
                raise ValueError(f"unknown parity rule {rule!r}")
        if self.profile.amplitude >= HALF_SQRT3 - DEFAULT_TOL:
            raise MalformedProfile(
                "profile amplitude must stay below sqrt(3)/2 so consecutive "
                "curves are disjoint")

    # Frame coordinates: s along x_hat, t along its ccw perpendicular.
    def to_frame(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x dx + y dy, y dx - x dy)``; t is ``-x dy + y dx`` bit for bit,
        since ``a - b`` rounds as ``a + (-b)``."""
        xh = self.x_hat
        s = xs * xh.dx
        s += ys * xh.dy
        t = ys * xh.dx
        t -= xs * xh.dy
        return s, t

    def curve_points(self, i, u: np.ndarray) -> np.ndarray:
        """World coordinates of L_i at the profile parameters ``u``, x and y
        along axis 0; an array of curve indices ``i`` broadcasts against ``u``.

        x is ``s * dx - t * dy`` bit for bit: ``a + (-b)`` rounds as ``a - b``.
        """
        s = u + 0.5 * i
        t = self.profile.values(u) + i * HALF_SQRT3
        xh = self.x_hat
        return np.multiply.outer((xh.dx, xh.dy), s) + np.multiply.outer((-xh.dy, xh.dx), t)

    def curve_point(self, i: int, u: float) -> Point:
        """World point of L_i at profile parameter u."""
        xs, ys = self.curve_points(i, np.array([u]))
        return Point(float(xs[0]), float(ys[0]))

    def resolve(self, xs: np.ndarray, ys: np.ndarray, tol: float = DEFAULT_TOL
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Black, on-boundary and unresolved masks, from the parity of one
        curve index per point.

        A point's band is the largest i with L_i at or below it, and it is
        on a curve when some curve lies within ``tol`` of it, measured
        vertically as ``tol * sqrt(1 + m^2)`` on a piece of slope m. Its
        color is ``boundary_parity`` of the first such i in ascending order,
        else ``parity_rule`` of the band. Heights are those of
        ``ZebraProfile.values``, and only the points within ``w = tol * max
        secant`` of a curve look up their piece's slope.

        Every point is tested against one curve, L_i0 with i0 = floor(q)
        and ``q = (t - v_min) / (sqrt(3)/2)`` at frame height t: its index
        is i0 if it is on L_i0, else its band ``i0 - (h > t)`` for the
        height h of L_i0 at the point. Only that index's parity counts, so
        the mask reads i0's parity and a 0/1 offset: ``h > t`` off the
        curve; on it 0 when the two rules agree, and 1 when they differ,
        which turns ``boundary_parity`` into ``parity_rule``. That is the
        answer unless L_i0-1 or L_i0+1 may come within w of the point. The
        points where they may, the hard ones, take the curve window
        instead: curves i0 - 1 .. i0 + 1 (i0 - 2 .. i0 + 2 when
        w >= sqrt(3)/2), then curve i0 - 2, as the band only, where
        rounding put all three above the point (at |t| from about 10^7,
        for an amplitude within 1e-9 of the cap). In exact arithmetic that
        window decides everything: curve i0 - 1 lies below the point and
        curve i0 + 1 above it, and curves i0 +- 2 are more than sqrt(3)/2
        away vertically, since the amplitude stays below sqrt(3)/2.

        Which points are hard. Let H be the float ``HALF_SQRT3`` in which
        every height is computed, u = 2^-53, A = v_max - v_min,
        V = max |v|, and T = 1.5 (max |x| + max |y|) over the call. Then
        T >= max |s| + max |t| >= |t| at every point: |s| + |t| <=
        (|dx| + |dy|) (|x| + |y|) (1 + u)^2 for x_hat = (dx, dy), and
        |dx| + |dy| <= sqrt(2) (1 + 1e-7). If some x or y is not finite,
        neither is T, and every point is hard.
        - L_i's computed height at s is ``fl(fl(i H) + b)``. Here b is one
          ``np.interp``, ``fp[j] + slope * (x - xp[j])`` with x in
          [xp[j], xp[j+1]] and four roundings, so it lies in [v_min, v_max]
          up to 12 u V. The height then lies in [i H + v_min, i H + v_max]
          up to 3 u |i H| + 14 u V, and |(i0 +- 1) H| <= T + V + 2 while
          T < 2^48 (from there on eps > H, and every point is hard).
        - With Q = (t - v_min) / H exactly, the computed q is Q up to
          2.01 u |Q| and |Q| H <= T + V, so f = q - i0 is Q - i0 up to
          u + 2.01 u (T + V) / H.
        - Hence, exactly, with r = 5.1 u T + 19.1 u V + 7 u,
          ``t - h(i0 - 1) >= f H + (H - A) - r`` and
          ``h(i0 + 1) - t >= (1 - f) H - r``.
        - A computed gap exceeds w once its exact value exceeds w (1 + 2 u).
          So if both right-hand sides exceed w (1 + 2 u), neither L_i0-1
          nor L_i0+1 is within w of the point, h(i0 - 1) <= t < h(i0 + 1),
          and the window gives the answer of L_i0 alone.
        A point is easy iff

            f H + (H - amplitude) > w + eps   and   (1 - f) H > w + eps,

        each tested as a float threshold on f, with
        eps = 2^-48 (T + V + w + 1) = 32 u (T + V + w + 1). That covers r,
        2 u w, the rounding of the amplitude (2 u V) and that of eps and
        the thresholds (6 u (w + eps + 1)). A NaN f fails the test, and
        when w >= H every point does.

        The proof needs T < 2^48, and the window, which sees one point at a
        time, is trusted as far. At T >= 2^48, eps > 1 > H and every point
        is hard, so such a call skips the one-curve pass: a point with
        |s| + |t| >= 2^48, or with a coordinate that is not finite, is
        unresolved, with index 0 and off the boundary, and the others take
        the window, under ``np.errstate``, since infinities and overflow warn.
        """
        # Python floats, whose sum overflows to inf without a warning
        size = 1.5 * (float(np.abs(xs).max(initial=0.0)) + float(np.abs(ys).max(initial=0.0)))
        if size < 2.0 ** 48:
            return self._resolve_within(xs, ys, tol, size)
        with np.errstate(invalid="ignore", over="ignore"):
            s, t = self.to_frame(xs, ys)
            inside = np.flatnonzero(np.abs(s) + np.abs(t) < 2.0 ** 48)
            black = np.full(xs.shape, self.parity_rule == "even-black")
            on_curve = np.zeros(xs.shape, dtype=bool)
            unresolved = np.ones(xs.shape, dtype=bool)
            unresolved[inside] = False
            s, t = s[inside], t[inside]
            black[inside], on_curve[inside] = self._curve_window(
                s, t, np.floor((t - self.profile.v_min) / HALF_SQRT3), tol,
                tol * self.profile.tables.secants.max())
        return black, on_curve, unresolved

    def _resolve_within(self, xs: np.ndarray, ys: np.ndarray, tol: float, size: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``resolve`` where T = ``size`` < 2^48: L_i0 for the easy points,
        the window for the hard ones."""
        profile = self.profile
        s, t = self.to_frame(xs, ys)
        # Curve indices are floats: integers below 2^53 are exact floats,
        # the form in which 0.5 * i and i * HALF_SQRT3 use them.
        q = t - profile.v_min
        q /= HALF_SQRT3
        i0 = np.floor(q)
        widest = tol * profile.tables.secants.max()
        h, on_curve = self._near_curve(s, t, i0, tol, widest)
        offset = h > t
        if self.parity_rule == self.boundary_parity:
            offset &= ~on_curve
        else:
            offset |= on_curve
        black = self._black(i0, offset)
        margin = widest + 2.0 ** -48 * (  # w + eps
            size + max(-profile.v_min, profile.v_max) + widest + 1.0)
        f = np.subtract(q, i0, out=q)
        easy = f > (margin - (HALF_SQRT3 - profile.amplitude)) / HALF_SQRT3
        easy &= f < 1.0 - margin / HALF_SQRT3
        if not easy.all():
            hard = np.flatnonzero(~easy)
            black[hard], on_curve[hard] = self._curve_window(s[hard], t[hard], i0[hard], tol,
                                                             widest)
        return black, on_curve, np.zeros(xs.shape, dtype=bool)

    def _black(self, index: np.ndarray, offset) -> np.ndarray:
        """The black mask of the points whose index parity is that of
        ``index + offset``, for a float ``index`` and a bool ``offset``."""
        half = index * 0.5
        even = half == np.floor(half)
        return even != offset if self.parity_rule == "even-black" else even == offset

    def _height(self, s: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frame height of L_i at frame abscissa s, ``i H + values(s - i/2)``
        bit for bit, and the fractional part of ``s - i/2`` that it reads."""
        tables = self.profile.tables
        u = i * 0.5
        np.subtract(s, u, out=u)
        h = np.floor(u)
        u -= h  # _frac
        np.multiply(i, HALF_SQRT3, out=h)
        h += np.interp(u, tables.us, tables.vs)
        return h, u

    def _near_curve(self, s: np.ndarray, t: np.ndarray, i: np.ndarray, tol: float,
                    widest: float) -> tuple[np.ndarray, np.ndarray]:
        """Height of L_i at each abscissa s, and whether (s, t) is on L_i."""
        tables = self.profile.tables
        h, u = self._height(s, i)
        gap = np.subtract(t, h)
        np.abs(gap, out=gap)
        # tol * secants[k] <= widest, so only these points can be on L_i
        onb = gap <= widest
        near = onb.nonzero()[0]
        if near.size:
            k = np.searchsorted(tables.us, u[near], side="right")
            onb[near] = gap[near] <= tol * tables.secants[k]
        return h, onb

    def _curve_window(self, s: np.ndarray, t: np.ndarray, i0: np.ndarray, tol: float,
                      widest: float) -> tuple[np.ndarray, np.ndarray]:
        """``resolve``'s black and on-boundary masks from the window of curves
        i0 - 1 .. i0 + 1 (i0 +- 2 when ``widest >= sqrt(3)/2``): the index of
        the first window curve within ``tol`` of a point, else its band; the
        band of a point below every window curve is looked up on L_i0-2."""
        index = np.full(s.shape, _NO_CURVE_BELOW)
        on_curve = np.zeros(s.shape, dtype=bool)
        curve_idx = np.zeros(s.shape)
        reach = 2 if widest >= HALF_SQRT3 else 1
        for di in range(-reach, reach + 1):
            i = i0 + di
            h, onb = self._near_curve(s, t, i, tol, widest)
            np.copyto(curve_idx, i, where=onb & ~on_curve)
            on_curve |= onb
            np.copyto(index, i, where=h <= t)  # i ascends, so this keeps the band
        below = np.flatnonzero(index == _NO_CURVE_BELOW)
        if reach == 1 and below.size:
            i = i0[below] - 2
            index[below] = np.where(self._height(s[below], i)[0] <= t[below], i, index[below])
        np.copyto(index, curve_idx, where=on_curve)
        return self._black(index, on_curve & (self.parity_rule != self.boundary_parity)), on_curve

    def _window_polylines(self, window: Region) -> tuple[range, np.ndarray, ...]:
        """The curves that can reach ``window`` and the one above, and their
        ``_polylines`` over its frame abscissas widened by 1 each side;
        ``WindowTooLarge`` if those could top ``_MAX_WINDOW_POINTS`` points."""
        with np.errstate(over="ignore"):  # an infinite frame is too large below
            s, t = self.to_frame(np.array([window.x0, window.x0, window.x1, window.x1]),
                                 np.array([window.y0, window.y1, window.y0, window.y1]))
        (s_lo, s_hi), (t_lo, t_hi) = ((float(a.min()), float(a.max())) for a in (s, t))
        profile = self.profile
        # rows (one to spare) times the columns of a row
        _check_window(((t_hi - t_lo + profile.amplitude) / HALF_SQRT3 + 6.0)
                      * ((len(profile.vertices) - 1) * (s_hi - s_lo + 4.0) + 2.0))
        curves = range(math.floor((t_lo - profile.v_max) / HALF_SQRT3) - 1,
                       math.ceil((t_hi - profile.v_min) / HALF_SQRT3) + 3)
        i = np.arange(len(curves), dtype=float)[:, None] + curves.start
        return curves, *self._polylines(i, s_lo - 0.5 * i - 1.0, s_hi - 0.5 * i + 1.0)

    def _polylines(self, i: np.ndarray, lo: np.ndarray, hi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Polylines of the curves L_i over u in [lo, hi], a row per entry of the
        columns ``i``, ``lo``, ``hi``: points (x, y on axis 0), kept mask (ends
        included) and steps between columns. A row holds its ends and the sorted
        breakpoints u_j + m of the periods m = ceil(a - u_{n-2}) .. floor(b - u_0)
        that can meet [a, b] = [lo + 1e-12, hi - 1e-12], clamped onto the
        nearer end outside [a, b]. ``_merge_joints`` merges collinear joints;
        clamped and merged columns repeat the last kept point, so their steps
        have length zero.
        """
        us = self.profile.tables.us
        a, b = lo + 1e-12, hi - 1e-12
        first = np.ceil(a - us[-2])
        m = first + np.arange(int((np.floor(b - us[0]) - first).max(initial=-1.0)) + 1)
        cand = np.sort((us[:-1] + m[:, :, None]).reshape(len(i), m.shape[1] * (len(us) - 1)),
                       axis=1)
        inside = (a <= cand) & (cand <= b)
        u = np.concatenate((lo, np.where(inside, cand, np.where(cand < a, lo, hi)), hi), axis=1)
        P = self.curve_points(i, u)
        kept = np.ones(u.shape, dtype=bool)
        kept[:, 1:-1] = inside
        return P, kept, _merge_joints(P, kept)

    def boundary_segments(self, window: Region) -> PieceTable:
        """Clipped curves as oriented pieces, white face on the left: the
        segments of ``_polylines``, clipped by ``_clip``. Two consecutive
        pieces of a row meet when only zero-length steps lie between them and
        their joint lies in the closed window."""
        curves, P, _, E = self._window_polylines(window)
        starts, steps = P[:, :, :-1].reshape(2, -1), E.reshape(2, -1)
        kept, a, b = _clip(starts, steps, window)
        row = kept // E.shape[2]
        even = (row + curves.start) % 2 == 0
        # band i sits above L_i, and +x_hat keeps the upper band on the left
        flip = even == (self.parity_rule == "even-black")
        moved = np.cumsum((steps[0] != 0.0) | (steps[1] != 0.0))
        (jx, jy), k = starts[:, kept[1:]], np.arange(kept.size - 1)
        k = k[(row[1:] == row[:-1]) & (moved[kept[1:]] == moved[kept[:-1]] + 1)
              & (window.x0 <= jx) & (jx <= window.x1) & (window.y0 <= jy) & (jy <= window.y1)]
        # piece k's clipped b meets piece k + 1's a; flipped pieces hold b first
        joints = np.full(2 * kept.size, -1)
        joints[2 * k + 1 - flip[k]] = joints[2 * k + 2 + flip[k + 1]] = 2 * k + 1 - flip[k]
        return PieceTable(np.where(flip, b, a), np.where(flip, a, b),
                          even == (self.boundary_parity == "even-black"), joints=joints)

    def _measurable(self, xs: np.ndarray, ys: np.ndarray) -> Optional[np.ndarray]:
        """The points ``resolve`` resolves, finite with ``|s| + |t| < 2^48``; None
        if that is all, as when max(|x|, |y|) < 2^46 (see ``resolve``)."""
        if np.abs(np.concatenate((xs, ys))).max(initial=0.0) < 2.0 ** 46:
            return None
        with np.errstate(invalid="ignore", over="ignore"):
            s, t = self.to_frame(xs, ys)
            return np.abs(s) + np.abs(t) < 2.0 ** 48

    def _distance_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray]:
        """One array pass over the points and their curves i0 - 2 .. i0 + 2.

        i0 is as in ``resolve``. Curve i of a point at frame (s, t) is its
        ``_polylines`` row over u in [c - 1.5, c + 1.5], ``c = s - i/2``. Its
        vertical gap at c is at least its distance and at most the largest
        secant times it, so a curve is dropped when that lower bound exceeds
        the point's least gap by more than rounding and the few 1e-12 by which
        merged joints move a polyline. A row of the pass is one kept (point,
        curve) pair; its zero-length steps are masked out. Distances come from
        ``_offsets``: the scalar ones bit for bit, also on segments shorter
        than ``Segment`` accepts.
        """
        profile = self.profile
        s, t = self.to_frame(xs, ys)
        i = np.floor((t - profile.v_min) / HALF_SQRT3)[:, None] + np.arange(-2.0, 3.0)
        gap = np.abs(t[:, None] - self._height(s[:, None], i)[0])
        secant = profile.tables.secants.max()
        slack = 2e-9 * (1.0 + np.abs(xs) + np.abs(ys))[:, None] + 1e-10 * secant
        rows = (gap <= (np.minimum.reduce(gap, axis=1, keepdims=True) + slack)
                * secant).ravel().nonzero()[0]
        owner = rows // 5
        i = i.reshape(-1, 1)[rows]
        c = s[owner, None] - 0.5 * i
        P, _, (ex, ey) = self._polylines(i, c - 1.5, c + 1.5)
        L2 = ex * ex + ey * ey
        seg = L2 > 0.0
        gx, gy = _offsets(xs[owner, None], ys[owner, None], P[0, :, :-1], P[1, :, :-1],
                          ex, ey, np.where(seg, L2, 1.0), 0.0, 1.0)
        return (_nearest(xs.shape[0], owner, gx, gy, seg),)

    def twin(self, new_boundary_parity: str) -> "ZebraColoring":
        """Same coloring off the boundary, new parity rule on the curves."""
        return replace(self, boundary_parity=new_boundary_parity)

    def to_dict(self) -> dict:
        return {
            "type": "zebra",
            "profile": [[u, v] for u, v in self.profile.vertices],
            "x_hat": [self.x_hat.dx, self.x_hat.dy],
            "parity_rule": self.parity_rule,
            "boundary_parity": self.boundary_parity,
        }


def _corner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The joint rule of the zebra polylines: whether the joint between the
    steps ``a`` and ``b`` (x and y along axis 0) is kept."""
    return np.abs(a[0] * b[1] - a[1] * b[0]) > 1e-12 * (np.abs(a[0]) + np.abs(a[1])) * (
        np.abs(b[0]) + np.abs(b[1]) + 1)


def _merge_joints(P: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Merge the collinear joints of polylines in place; return their steps.

    ``P`` holds a polyline per row (x, y on axis 0) and ``kept`` marks the
    columns that may stay joints; ends always stay. A joint is kept iff
    ``_corner`` holds for the steps to it from the last kept point and on
    to the next point. Rows that drop a joint replay that rule joint by
    joint, a dropped joint taking the last kept point's value, so that
    consecutive columns are the polyline's segments and zero-length ones;
    ``kept`` is cleared where a joint is dropped.
    """
    E = P[:, :, 1:] - P[:, :, :-1]
    merge = (kept[:, 1:-1] & ~_corner(E[:, :, :-1], E[:, :, 1:])).any(axis=1).nonzero()[0]
    if not merge.size:
        return E
    Q = P[:, merge]
    last = Q[:, :, 0]
    for j in range(1, Q.shape[2] - 1):
        keep = kept[merge, j] & _corner(Q[:, :, j] - last, Q[:, :, j + 1] - Q[:, :, j])
        last = Q[:, :, j] = np.where(keep, Q[:, :, j], last)
        kept[merge, j] = keep
    P[:, merge] = Q
    return P[:, :, 1:] - P[:, :, :-1]


# ---------------------------------------------------------------------------
# Half-plane coloring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfPlaneColoring(_Queries):
    """Closed half-plane {p : p . normal >= offset} in one color, open rest other.

    A point whose projection ``s = p . normal`` is not finite (a coordinate
    not finite, or the sum overflows) is unresolved, and its distance is NaN.
    """

    normal: UnitVector = UnitVector(0.0, 1.0)
    offset: float = 0.0
    closed_side_color: Color = Color.BLACK

    _UNRESOLVED = "({}, {}) has no finite projection on the normal"

    def resolve(self, xs: np.ndarray, ys: np.ndarray, tol: float = DEFAULT_TOL
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            s = xs * self.normal.dx + ys * self.normal.dy
            on = np.abs(s - self.offset) <= tol
        closed = s >= self.offset - tol
        black = closed if self.closed_side_color is Color.BLACK else ~closed
        return black, on, ~np.isfinite(s)

    def boundary_segments(self, window: Region) -> PieceTable:
        n = self.normal
        white_on_plus = self.closed_side_color is Color.WHITE
        # Direction whose ccw perpendicular points into the white side.
        d = (n.dy, -n.dx) if white_on_plus else (-n.dy, n.dx)
        anchor = Point(n.dx * self.offset, n.dy * self.offset)
        reach = abs(window.x0) + abs(window.x1) + abs(window.y0) + abs(window.y1) + 4.0
        a = Point(anchor.x - reach * d[0], anchor.y - reach * d[1])
        b = Point(anchor.x + reach * d[0], anchor.y + reach * d[1])
        _, p, q = _clip(np.array([[a.x], [a.y]]), np.array([[b.x - a.x], [b.y - a.y]]), window)
        return PieceTable(p, q, np.full(p.shape[1], self.closed_side_color is Color.BLACK),
                          True, True)

    def _distance_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            s = xs * self.normal.dx + ys * self.normal.dy
            d = np.abs(s - self.offset)
        return (np.where(np.isfinite(s), d, np.nan),)

    def to_dict(self) -> dict:
        return {"type": "halfplane", "normal": [self.normal.dx, self.normal.dy],
                "offset": self.offset,
                "closed_color": self.closed_side_color.value}


# ---------------------------------------------------------------------------
# General polygonal colorings
# ---------------------------------------------------------------------------

_POLYGON_RANGE = 2.0 ** 197  # the largest coordinate magnitude of a polygonal document


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the pairs i < j in row-major order, at less cost."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


class PolygonTables:
    """The piece table and seed arrays of a polygonal coloring, for vectorized queries.

    The range: every piece end (a ray side's stored end too) and every seed
    coordinate has magnitude at most 2^197, ``_POLYGON_RANGE``; a document
    outside it is refused here, ``InvalidArgument`` naming ``segments`` or
    ``seeds``. So ``clear_scale`` <= 2^198 + 2^199 + 2^198 = 2^200, and no
    product of the seed table, the crossing pass or the seed check overflows.

    ``pieces`` is the ``PieceTable`` of the coloring's pieces. The columns
    that the kernels read are repeated here as views of shape (pieces, 1),
    so that a (pieces, points) grid keeps the points on its fast axis:
    piece j is ``a + u * e`` for u in ``[u_lo, u_hi]``, unbounded on a ray
    side. ``piece_len`` is ``math.hypot`` of e, and ``seed_dist[j, k]`` the
    distance of seed k from piece j, ``math.hypot`` of its ``gaps`` offset.

    ``seed_clear[k]``, the least ``seed_dist[j, k]`` over the pieces (inf
    without pieces), is seed k's clear radius: no piece comes nearer to
    the seed. A point well inside its nearest seed's clear disk takes
    that seed's color without the piece pass; ``clear_scale``, the
    largest ``|ax| + |ay| + |ex| + |ey|`` plus the largest seed
    ``|x| + |y|``, sizes the pad of that test
    (``PolygonalColoring._resolve_block``).
    """

    def __init__(self, pieces: PieceTable, seeds: tuple[tuple[Point, Color], ...]):
        for name in ("ax", "ay", "ex", "ey", "len2", "ray_start", "ray_end", "u_lo", "u_hi"):
            setattr(self, name, getattr(pieces, name)[:, None])
        self.piece_len = np.fromiter(map(math.hypot, pieces.ex.tolist(), pieces.ey.tolist()),
                                     float, len(pieces))[:, None]
        self.seed_x = np.array([p.x for p, _ in seeds])
        self.seed_y = np.array([p.y for p, _ in seeds])
        self.seed_black = np.array([c is Color.BLACK for _, c in seeds], dtype=bool)
        for name, coords in (("segments", (pieces.ax, pieces.ay, pieces.bx, pieces.by)),
                             ("seeds", (self.seed_x, self.seed_y))):
            far = (np.abs(coords).max(axis=0) > _POLYGON_RANGE).nonzero()[0]
            if far.size:
                raise InvalidArgument(name, f"must have coordinates of magnitude at most 2^197, "
                                            f"but {name[:-1]} {far[0]} does not",
                                      [float(c[far[0]]) for c in coords])
        gx, gy = self.gaps(self.seed_x, self.seed_y)
        self.seed_dist = np.fromiter(map(math.hypot, gx.ravel().tolist(), gy.ravel().tolist()),
                                     float, gx.size).reshape(gx.shape)
        self.seed_clear = self.seed_dist.min(axis=0, initial=np.inf)
        for table in vars(self).values():
            table.setflags(write=False)
        self.pieces = pieces
        self.clear_scale = float(np.max(np.abs(self.ax) + np.abs(self.ay) + np.abs(self.ex)
                                        + np.abs(self.ey), initial=0.0)
                                 + np.max(np.abs(self.seed_x) + np.abs(self.seed_y)))

    def gaps(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_offsets`` from each point to each piece, as (pieces, points) arrays."""
        return _offsets(xs, ys, self.ax, self.ay, self.ex, self.ey, self.len2,
                        self.u_lo, self.u_hi)

    def first_crossing(self) -> Optional[tuple[int, int]]:
        """The first pair of pieces i < j, in row-major order, that cross: their
        lines ``a_i + t e_i`` and ``a_j + u e_j`` meet with t inside piece i's
        ``[u_lo, u_hi]`` by more than ``DEFAULT_TOL / |e_i|`` and u in piece j's
        widened by ``DEFAULT_TOL / |e_j|``, or i and j swapped; ray sides count.
        Parallel pairs, ``|e_i x e_j| <= DEFAULT_TOL |e_i| |e_j|``, are not checked."""
        pc, length = self.pieces, self.piece_len[:, 0]
        i, j = _pairs(len(pc))
        denom = pc.ex[i] * pc.ey[j] - pc.ey[i] * pc.ex[j]
        apart = (np.abs(denom) > DEFAULT_TOL * length[i] * length[j]).nonzero()[0]
        i, j, denom = i[apart], j[apart], denom[apart]
        wx, wy = pc.ax[j] - pc.ax[i], pc.ay[j] - pc.ay[i]
        t = (wx * pc.ey[j] - wy * pc.ex[j]) / denom
        u = (wx * pc.ey[i] - wy * pc.ex[i]) / denom
        t_tol, u_tol = DEFAULT_TOL / length[i], DEFAULT_TOL / length[j]
        inside_t = (pc.u_lo[i] + t_tol < t) & (t < pc.u_hi[i] - t_tol)
        inside_u = (pc.u_lo[j] + u_tol < u) & (u < pc.u_hi[j] - u_tol)
        on_t = (pc.u_lo[i] - t_tol <= t) & (t <= pc.u_hi[i] + t_tol)
        on_u = (pc.u_lo[j] - u_tol <= u) & (u <= pc.u_hi[j] + u_tol)
        first = ((inside_t & on_u) | (inside_u & on_t)).nonzero()[0]
        return (int(i[first[0]]), int(j[first[0]])) if first.size else None


@dataclass(frozen=True)
class PolygonalColoring(_Queries):
    """Coloring given by explicit boundary pieces and face seed points.

    Pieces may be rays or lines via their ray flags (the stored segment is a
    clipped representative inside ``window``). A point within ``tol`` of a
    piece takes the color of the first such piece. Any other point takes
    the color of a seed, flipped at every proper crossing of the sight line
    from the point to that seed with the boundary. Sight lines that graze
    an endpoint, cross at a boundary vertex or run along a piece are
    ambiguous; each point tries the seeds nearest first and takes the
    first unambiguous one. ``resolve`` does all of this over whole arrays
    and flags the points that no seed reaches.
    A point well inside its nearest seed's clear disk (``PolygonTables``)
    skips the piece pass: no piece is near it or crosses its sight line,
    so it takes that seed's color, as the walk would give it.
    """

    pieces: tuple[BoundaryPiece, ...]
    seeds: tuple[tuple[Point, Color], ...]
    window: Region

    def __post_init__(self):
        if not self.seeds:
            raise GeometryError("polygonal coloring needs at least one seed")
        on = np.flatnonzero((self.tables.seed_dist <= DEFAULT_TOL).any(axis=0))
        if on.size:
            raise GeometryError(f"seed {on[0]} lies on the boundary")
        cross = self.tables.first_crossing()
        if cross is not None:
            raise GeometryError(f"boundary segments {cross[0]} and {cross[1]} intersect away "
                                "from their endpoints")
        self._check_seeds()

    def _check_seeds(self) -> None:
        """Refuse seeds that disagree, raising ``InvalidArgument`` naming ``seeds``.

        Seeds i < j are linked by the sight line between them or, where that
        line is ambiguous, by a bent line through a point beside its
        midpoint: the first point off the boundary, at 1/4 or 1/2 of the
        seeds' distance to either side, whose two legs are unambiguous. A
        linked pair's colors must differ exactly when its line crosses the
        boundary an odd number of times, and a chain of links must join
        every seed to seed 0. Otherwise a point's color would depend on
        which seed it reaches first.
        """
        tb, tol = self.tables, DEFAULT_TOL
        i, j = _pairs(len(self.seeds))
        if not i.size:
            return
        dx, dy = tb.seed_x[j] - tb.seed_x[i], tb.seed_y[j] - tb.seed_y[i]
        odd, ambiguous = self._crossing_parity(tb.seed_x[i], tb.seed_y[i], j,
                                               np.hypot(dx, dy), tol)
        for f in (0.25, -0.25, 0.5, -0.5):
            bent = np.flatnonzero(ambiguous)
            if not bent.size:
                break
            wx = 0.5 * (tb.seed_x[i[bent]] + tb.seed_x[j[bent]]) - f * dy[bent]
            wy = 0.5 * (tb.seed_y[i[bent]] + tb.seed_y[j[bent]]) + f * dx[bent]
            (odd_i, amb_i), (odd_j, amb_j) = (
                self._crossing_parity(wx, wy, k[bent], np.hypot(tb.seed_x[k[bent]] - wx,
                                                                tb.seed_y[k[bent]] - wy), tol)
                for k in (i, j))
            gx, gy = tb.gaps(wx, wy)
            ok = (np.hypot(gx, gy) > tol).all(axis=0) & ~amb_i & ~amb_j
            odd[bent[ok]] = odd_i[ok] ^ odd_j[ok]
            ambiguous[bent[ok]] = False
        linked = ~ambiguous
        clash = np.flatnonzero(linked & (tb.seed_black[i] ^ tb.seed_black[j] ^ odd))
        if clash.size:
            a, b = (int(k[clash[0]]) for k in (i, j))
            raise InvalidArgument("seeds", f"must take the colors that the boundary crossings "
                                           f"between them give, but seeds {a} and {b} do not",
                                  [self.to_dict()["seeds"][k] for k in (a, b)])
        reached = np.zeros(len(self.seeds), dtype=bool)
        reached[0] = True
        while True:
            grow = linked & (reached[i] != reached[j])
            if not grow.any():
                break
            reached[i[grow]] = reached[j[grow]] = True
        if not reached.all():
            a = int(np.argmin(reached))
            raise InvalidArgument("seeds", f"must each be joined to seed 0 by unambiguous sight "
                                           f"lines, but seed {a} is not",
                                  self.to_dict()["seeds"][a])

    @cached_property
    def tables(self) -> PolygonTables:
        """Piece and seed arrays, built once per coloring; ``PieceTable.of``
        refuses ends that nearly meet, naming ``segments``."""
        return PolygonTables(PieceTable.of(self.pieces), self.seeds)

    def resolve(self, xs: np.ndarray, ys: np.ndarray, tol: float = DEFAULT_TOL
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Black, on-boundary and unresolved masks of the points ``(xs[k], ys[k])``.

        ``black`` is False where ``unresolved`` is True. Points go through
        in blocks of ``_RESOLVE_BLOCK``, so temporaries stay at
        block x pieces.
        """
        return _by_block(lambda x, y: self._resolve_block(x, y, tol), xs, ys)

    def _resolve_block(self, xs: np.ndarray, ys: np.ndarray, tol: float):
        """``resolve`` on one block: clear points first, the walk for the rest.

        With u = 2^-53, a point p whose nearest seed s = seed k (the first
        least of the computed distances: the walk's first seed) is *clear*
        when its computed distance d from s is below the seed's reach,

            (c - 3 tol - 2 B kappa) / (1 + 1.5 kappa),   kappa = 64 u (1 + 1/tol),

        for c = ``seed_clear[k]`` and B = ``clear_scale``, all in floats:
        that is, d + pad < c for pad = 3 tol + kappa L, L = 2 B + 1.5 d. A
        clear point takes s's color and is neither on the boundary nor
        unresolved, as the walk would have it; only the other points go
        through ``PolygonTables.gaps`` and the walk, with the distances already
        computed. A tol <= 0, a non-finite tol and a non-finite
        ``3 tol + 2 B kappa`` clear no point; nor does a NaN or infinite d,
        which a non-finite x or y gives.

        Why the walk agrees. Piece j is a + v e for v in [v_lo, v_hi], in
        the table's floats (v is ``_crossing_parity``'s u); w = a - p and
        D = s - p. The 1-norms of s, a, e and s - a are at most B, and
        |D|_1 <= sqrt(2) |D| <= 1.5 d, so those of p, w and D are at most
        L. Every operation errs by at most u relative (hypot by 2u).
        1. Range. ``clear_scale`` <= 2^200 by the range (``PolygonTables``),
           and every piece is longer than 1e-9 (``Segment``). A clear point has
           64 u L < pad < c + 7 u L < 2.51 * 2^200 (by 2 and 3), so
           L < 2^249 and no product overflows; an underflow errs by
           2^-1074 absolute, negligible at every step here.
        2. Gaps. ``gaps``, which also gives ``seed_dist``, computes the
           parameter of the nearest point of a piece to q within
           6.1 u |q - a| / |e| of the exact one, and the offset from q to
           the piece point at the computed parameter within 7.4 u L.
           So the exact distance of s from piece j is at least
           ``seed_dist[j, k]`` - 21 u L >= c - 21 u L, and a piece is
           ``near`` p only if it comes within tol (1 + 2.01 u) + 7.4 u L
           of p. Also c < 2.5 B <= 2.5 L.
        3. Clearance. The exact |D| is at most d + 4 u L, and every point
           of the sight segment [p, s] is within |D| of s, so every piece
           stays at least c - d - 25.1 u L from that segment. The clear
           test, rounded, gives d + pad (1 - 5.01 u) < c + 6.1 u L, as
           c < 2.5 L; so that clearance exceeds
           2.99 tol + 32 u L + 63 u L / tol.
        4. ``near`` is False for every piece, by 2 and 3. The
           ``parallel & seed_dist <= tol`` term of ``ambiguous`` is False,
           since every ``seed_dist[j, k] >= c`` and c > 2.99 tol by 3.
        5. No piece gives ``hit``. Suppose one did; the rule for d <= tol
           (the point is at its seed) ignores hits, so let d > tol. Not
           being ``parallel`` means |denom| > tol |D| |e| (1 - 7.01 u),
           and denom errs by at most 3.01 u |D| |e|, that is by a relative
           theta = 3.02 u / tol. A clear point has 64 u L / tol < pad
           < c + 7 u L < 2.51 L, so tol > 25 u, theta < 1/8, and
           |denom| > 2^-300. The lines then meet at X = p + t* D = a + v* e,
           and the numerators of t and v err by 3.01 u |w| |e| and
           3.01 u |w| |D|. For T = |t - t*| |D| and V = |v - v*| |e|:
           T (1 - theta) <= theta |w| + (theta + u) |t| |D|, with
           |t| |D| <= (1 + u)(|D| + tol (1 + 4.01 u)) from the hit's range
           of t; and V (1 - u) <= theta |w| + (theta + u) |v*| |e|, with
           |v*| |e| = |X - a| <= |w| + |t| |D| + T. With u < tol / 25 that
           gives T <= 6.91 u L / tol + 1.15 u L + 0.15 tol and
           V <= 9.95 u L / tol + 2.16 u L + 0.15 tol. The hit's ranges of t
           and v put X within tol (1 + 5.02 u) + u L + T of the sight
           segment and within tol (1 + 4.02 u) + u L + V of piece j. So
           the piece comes within 2.31 tol + 5.31 u L + 16.9 u L / tol of
           the segment, inside the clearance of 3: a contradiction.
        So the walk's first seed gives an even, unambiguous crossing
        count, and the point takes ``seed_black[k]``.
        """
        tb = self.tables
        dist = np.hypot(tb.seed_x - xs[:, None], tb.seed_y - ys[:, None])
        t = float(tol)  # Python floats: a huge 1/t or B kappa is inf or NaN, without a warning
        kappa = 64.0 * 2.0 ** -53 * (1.0 + 1.0 / t) if t > 0.0 else math.nan
        base = 3.0 * t + 2.0 * tb.clear_scale * kappa
        if not math.isfinite(base):
            return self._walk(xs, ys, dist, tol)
        nearest = dist.argmin(axis=1)
        reach = (tb.seed_clear - base) / (1.0 + 1.5 * kappa)
        clear = dist.min(axis=1) < reach[nearest]
        if not clear.any():
            return self._walk(xs, ys, dist, tol)
        black = tb.seed_black[nearest]
        on = np.zeros(xs.shape, dtype=bool)
        unresolved = np.zeros(xs.shape, dtype=bool)
        rest = np.flatnonzero(~clear)
        if rest.size:
            black[rest], on[rest], unresolved[rest] = self._walk(
                xs[rest], ys[rest], dist[rest], tol)
        return black, on, unresolved

    def _walk(self, xs: np.ndarray, ys: np.ndarray, dist: np.ndarray, tol: float):
        """``resolve`` by the piece pass and the seed walk, given the seed distances.

        A point with a NaN or infinite coordinate is unresolved, and takes
        neither pass, whose arithmetic would warn of it.
        """
        finite = np.isfinite(xs) & np.isfinite(ys)
        if not finite.all():
            black, on = np.zeros(xs.shape, dtype=bool), np.zeros(xs.shape, dtype=bool)
            unresolved = ~finite
            keep = np.flatnonzero(finite)
            black[keep], on[keep], unresolved[keep] = self._walk(xs[keep], ys[keep],
                                                                 dist[keep], tol)
            return black, on, unresolved
        tb = self.tables
        gx, gy = tb.gaps(xs, ys)
        # np.hypot(gx, gy) >= max(|gx|, |gy|), so it is needed only where both are within tol
        near = (np.abs(gx) <= tol) & (np.abs(gy) <= tol)
        near[near] = np.hypot(gx[near], gy[near]) <= tol
        on = near.any(axis=0)
        black = np.zeros(xs.shape, dtype=bool)
        if on.any():
            black[on] = tb.pieces.black[near[:, on].argmax(axis=0)]
        # The walk: each point off the boundary tries its seeds nearest first.
        pend = np.flatnonzero(~on)
        px, py, dist = xs[pend], ys[pend], dist[pend]
        order = np.argsort(dist, axis=1, kind="stable")
        todo = np.arange(pend.size)
        for rank in range(order.shape[1]):
            if not todo.size:
                break
            k = order[todo, rank]
            seg_len = dist[todo, k]
            odd, ambiguous = self._crossing_parity(px[todo], py[todo], k, seg_len, tol)
            ok = ~ambiguous
            black[pend[todo[ok]]] = tb.seed_black[k[ok]] ^ odd[ok]
            todo = todo[ambiguous]
        unresolved = np.zeros(xs.shape, dtype=bool)
        unresolved[pend[todo]] = True
        return black, on, unresolved

    def _crossing_parity(self, px: np.ndarray, py: np.ndarray, k: np.ndarray,
                         seg_len: np.ndarray, tol: float):
        """Parity of the proper crossings of each sight line from ``(px, py)``
        to seed ``k``, of length ``seg_len``, with the boundary, and whether
        the sight line is ambiguous.

        The points lie off the boundary, so a sight line parallel to a piece
        is ambiguous only when its seed is within ``tol`` of that piece.
        """
        tb = self.tables
        dx, dy = tb.seed_x[k] - px, tb.seed_y[k] - py
        denom = dx * tb.ey - dy * tb.ex
        parallel = np.abs(denom) <= tol * seg_len * tb.piece_len
        wx, wy = tb.ax - px, tb.ay - py
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (wx * tb.ey - wy * tb.ex) / denom
            u = (wx * dy - wy * dx) / denom
            t_tol = tol / seg_len
        u_tol = tol / tb.piece_len
        hit = ~(parallel | (t < -t_tol) | (t > 1.0 + t_tol)
                | (u < tb.u_lo - u_tol) | (u > tb.u_hi + u_tol))
        graze = (np.abs(t) <= t_tol) | (np.abs(t - 1.0) <= t_tol)
        # a vertex is a bounded end of a piece; -inf tolerates nothing on a ray side
        vertex = ((np.abs(u) <= np.where(tb.ray_start, -np.inf, u_tol))
                  | (np.abs(u - 1.0) <= np.where(tb.ray_end, -np.inf, u_tol)))
        ambiguous = (hit & (graze | vertex)) | (parallel & (tb.seed_dist[:, k] <= tol))
        short = seg_len <= tol  # the point is at its seed
        return np.logical_xor.reduce(hit, axis=0) & ~short, ambiguous.any(axis=0) & ~short

    def boundary_segments(self, window: Region) -> PieceTable:
        """The table of every piece, whatever the window: ray sides stay unbounded."""
        return self.tables.pieces

    def _measurable(self, xs: np.ndarray, ys: np.ndarray) -> Optional[np.ndarray]:
        """The points whose ``PolygonTables.gaps`` offsets are all finite: a
        point whose offset overflows to inf or NaN has no distance the
        floats can form. None if that is all: with no pieces (every
        distance is inf), or when max(|x|, |y|) < 2^500. Then |p - a| < 2^501
        by the range (``PolygonTables``) and |e| > 1e-9 > 2^-30 (``Segment``),
        so the piece parameter stays below 2^531, and every offset below 2^503."""
        if not self.pieces or np.abs(np.concatenate((xs, ys))).max(initial=0.0) < 2.0 ** 500:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            gx, gy = self.tables.gaps(xs, ys)
        ok = np.isfinite(gx).all(axis=0) & np.isfinite(gy).all(axis=0)
        return None if ok.all() else ok

    def _distance_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray]:
        # Past 2^500 a finite offset may come from an overflowing parameter,
        # and its square may overflow: inf ranks the same in ``_nearest``,
        # whose math.hypot of the offset stays exact.
        with np.errstate(over="ignore"):
            gx, gy = self.tables.gaps(xs, ys)
            return (_nearest(xs.shape[0], np.arange(xs.shape[0]), gx.T, gy.T),)

    def to_dict(self) -> dict:
        return {
            "type": "polygonal",
            "segments": [{"p": [pc.seg.p.x, pc.seg.p.y],
                          "q": [pc.seg.q.x, pc.seg.q.y],
                          "ray_start": pc.ray_start, "ray_end": pc.ray_end}
                         for pc in self.pieces],
            "boundary_colors": [pc.color.value for pc in self.pieces],
            "seeds": [[pt.x, pt.y, color.value] for pt, color in self.seeds],
            "window": [self.window.x0, self.window.y0, self.window.x1, self.window.y1],
        }


# ---------------------------------------------------------------------------
# Zebra condition checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DWitness:
    """A pair violating the distance/angle biconditional of condition (d)."""

    A: Point
    B: Point
    dist: float
    theta: float


@dataclass(frozen=True)
class ZebraConditionReport:
    a_ok: bool
    b_ok: bool
    c_ok: bool
    d_ok: bool
    witness: Optional[DWitness] = None
    pairs_checked: int = 0
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return self.a_ok and self.b_ok and self.c_ok and self.d_ok

    def to_dict(self) -> dict:
        doc = {
            "a": "pass" if self.a_ok else "fail",
            "b": "pass" if self.b_ok else "fail",
            "c": "pass" if self.c_ok else "fail",
            "d": "pass" if self.d_ok else "fail",
            "pairs_checked": self.pairs_checked,
            "notes": list(self.notes),
        }
        if self.witness is not None:
            doc["witness"] = {
                "A": [self.witness.A.x, self.witness.A.y],
                "B": [self.witness.B.x, self.witness.B.y],
                "dist": self.witness.dist,
                "theta": self.witness.theta,
            }
        else:
            doc["witness"] = None
        return doc


def _d_violation(dx: float, dy: float, tol: float) -> bool:
    """Violation of: dist > 1 iff acute angle with the x axis < pi/3.

    Points within tol of the decision boundaries are treated as consistent;
    the checker reports only violations that survive the tolerance.
    """
    r = math.hypot(dx, dy)
    theta = math.atan2(abs(dy), abs(dx))
    third = math.pi / 3.0
    if r >= 1.0 + tol and theta >= third + tol:
        return True
    if r <= 1.0 - tol and theta <= third - tol:
        return True
    return False


def _segment_event_params(ax, ay, bx, by) -> list[float]:
    """Parameters where the segment crosses the unit circle or the pi/3 rays."""
    dx, dy = bx - ax, by - ay
    events = []
    # unit circle
    qa = dx * dx + dy * dy
    qb = 2.0 * (ax * dx + ay * dy)
    qc = ax * ax + ay * ay - 1.0
    disc = qb * qb - 4.0 * qa * qc
    if qa > 0.0 and disc > 0.0:
        root = math.sqrt(disc)
        events.extend([(-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)])
    # rays dy = +-sqrt(3) dx (full lines through the origin)
    for sign in (1.0, -1.0):
        denom = dy - sign * SQRT3 * dx
        if abs(denom) > 1e-15:
            events.append((sign * SQRT3 * ax - ay) / denom)
    return [t for t in events if 0.0 < t < 1.0]


def _parallelogram_violation(tables: ProfileTables, j: int, k: int, m: int,
                             tol: float) -> Optional[tuple[float, float]]:
    """First (alpha, beta) on piece j of L_0 and piece k of L_1, shifted by m
    periods, whose difference vector violates (d): a parallelogram vertex,
    else the midpoint of an edge sub-interval between zone-boundary crossings.
    """
    a0, a1 = float(tables.us[j]), float(tables.us[j + 1])
    b0, b1 = float(tables.us[k]) + m, float(tables.us[k + 1]) + m
    mj, fa0 = float(tables.slopes[j]), float(tables.vs[j])
    mk, fb0 = float(tables.slopes[k]), float(tables.vs[k])
    corners = [(a0, b0), (a1, b0), (a1, b1), (a0, b1)]
    quad = [(b - a + 0.5, (fb0 + mk * (b - b0)) - (fa0 + mj * (a - a0)) + HALF_SQRT3)
            for a, b in corners]
    for (dx, dy), ab in zip(quad, corners):
        if _d_violation(dx, dy, tol):
            return ab
    for e in range(4):
        (px, py), (qx, qy) = quad[e], quad[(e + 1) % 4]
        (pa, pb), (qa, qb) = corners[e], corners[(e + 1) % 4]
        params = sorted([0.0, 1.0] + _segment_event_params(px, py, qx, qy))
        for t0, t1 in zip(params, params[1:]):
            tm = 0.5 * (t0 + t1)
            if _d_violation(px + tm * (qx - px), py + tm * (qy - py), tol):
                return (pa + tm * (qa - pa), pb + tm * (qb - pb))
    return None


def check_zebra_conditions(zc: ZebraColoring,
                           tol: float = DEFAULT_TOL) -> ZebraConditionReport:
    """Verify the four structural conditions of a zebra coloring.

    (a) x_hat-periodicity, (b) the translation law between consecutive
    curves, and (c) alternating band colors hold by construction of the
    representation and are recorded as such. Condition (d) is decided
    exactly on the piecewise-linear data: over every pair of linear pieces
    of L_0 and L_1, the difference vector B - A ranges over a parallelogram,
    and the biconditional fails somewhere iff a parallelogram meets one of
    the two forbidden zones (outside the unit circle at angle >= pi/3 from
    x_hat, or inside at angle < pi/3). Zone membership changes only across
    the unit circle and the pi/3 rays, and no zone component fits inside a
    parallelogram: with the amplitude below sqrt(3)/2, every difference
    vector has 0 < dy = f(beta) - f(alpha) + sqrt(3)/2 < sqrt(3), while each
    component is unbounded or reaches dy <= 0 (the inner sectors contain
    (+-0.5, 0)). So testing vertices and edge sub-intervals split at the
    crossings is a complete check. A failure is reported as a concrete pair
    (A, B) with its distance and angle.
    """
    check_tol(tol)
    profile = zc.profile
    notes = ("a: profile is one exact period, invariant under u -> u + 1",
             "b: curves generated as L_i = L_0 + i * z by construction",
             "c: band colors assigned by parity of the band index")
    n_pieces = len(profile.tables.us) - 1

    # Period shifts m in [-3, 2] cover every violating difference vector
    # (necessarily |dx| <= 1 since |dy| <= sqrt(3)).
    pairs_checked = 0
    for j, k, m in product(range(n_pieces), range(n_pieces), range(-3, 3)):
        pairs_checked += 1
        pair = _parallelogram_violation(profile.tables, j, k, m, tol)
        if pair is not None:
            break

    witness = None
    if pair is not None:
        A, B = zc.curve_point(0, pair[0]), zc.curve_point(1, pair[1])
        dx, dy = B - A
        theta = math.atan2(abs(-dx * zc.x_hat.dy + dy * zc.x_hat.dx),
                           abs(dx * zc.x_hat.dx + dy * zc.x_hat.dy))
        witness = DWitness(A, B, distance(A, B), theta)
    return ZebraConditionReport(
        a_ok=True, b_ok=True, c_ok=True, d_ok=witness is None,
        witness=witness, pairs_checked=pairs_checked, notes=notes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

Coloring = StripColoring | ZebraColoring | HalfPlaneColoring | PolygonalColoring


# A reader ``(value, path) -> result`` checks the shape of one field's value
# and raises ``SchemaError`` naming its path, such as ``segments[2].p``.

_REQUIRED = object()


def _bad(path: str, what: str, value) -> SchemaError:
    return SchemaError(f"field '{path}' must be {what}, got {value!r}")


class _Fields:
    """One JSON object of a document; ``get`` reads one of its fields."""

    def __init__(self, value, path: str = ""):
        if not isinstance(value, dict):
            raise (_bad(path, "an object", value) if path else
                   SchemaError(f"the document must be an object, got {value!r}"))
        self.value, self.path = value, path

    def get(self, key: str, read, default=_REQUIRED):
        path = f"{self.path}.{key}" if self.path else key
        if key in self.value:
            return read(self.value[key], path)
        if default is _REQUIRED:
            raise SchemaError(f"missing field '{path}'")
        return default


def _number(value, path: str) -> float:
    """A finite number; JSON ``true`` and ``false`` are not numbers."""
    if (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):  # exact for any integer, false for NaN
        return float(value)
    raise _bad(path, "a finite number", value)


def _positive(value, path: str) -> float:
    if _number(value, path) > 0.0:
        return float(value)
    raise _bad(path, "a positive number", value)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _bad(path, "true or false", value)
    return value


def _one_of(*allowed: str):
    """Reader of a string that is one of ``allowed``."""
    def read_choice(value, path: str) -> str:
        if not (isinstance(value, str) and value in allowed):
            raise _bad(path, f"one of {', '.join(allowed)}", value)
        return value
    return read_choice


def _list_of(read, non_empty: bool = False):
    """Reader of a list of any length, each entry read by ``read``."""
    def read_list(value, path: str) -> list:
        if not (isinstance(value, (list, tuple)) and len(value) >= non_empty):
            raise _bad(path, "a non-empty list" if non_empty else "a list", value)
        return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return read_list


def _tuple_of(*reads):
    """Reader of a list of ``len(reads)`` entries, entry i read by ``reads[i]``."""
    def read_tuple(value, path: str) -> list:
        if not (isinstance(value, (list, tuple)) and len(value) == len(reads)):
            raise _bad(path, f"a list of {len(reads)} entries", value)
        return [read(v, f"{path}[{i}]") for i, (read, v) in enumerate(zip(reads, value))]
    return read_tuple


_pair = _tuple_of(_number, _number)
_color = _one_of(*(c.value for c in Color))
_parity = _one_of("even-black", "even-white")


def _direction(value, path: str) -> UnitVector:
    dx, dy = _pair(value, path)
    if dx == 0.0 and dy == 0.0:
        raise _bad(path, "nonzero", value)
    return UnitVector.normalized(dx, dy)


def coloring_from_dict(doc: dict) -> Coloring:
    """Build a coloring from its JSON document form, the inverse of ``to_dict``.

    Each field is read once, and a bad one raises ``SchemaError`` naming
    its path; the constructors keep their invariant checks.
    """
    fields = _Fields(doc)
    kind = fields.get("type", _one_of("strip", "zebra", "halfplane", "polygonal"))
    if kind == "strip":
        rule = _one_of("upper-closed", "lower-closed")
        return StripColoring(scale=fields.get("scale", _positive),
                             boundary_rule=fields.get("boundary_rule", rule, "upper-closed"))
    if kind == "zebra":
        return ZebraColoring(
            profile=ZebraProfile(tuple(fields.get("profile", _list_of(_pair)))),
            x_hat=fields.get("x_hat", _direction, UnitVector(1.0, 0.0)),
            parity_rule=fields.get("parity_rule", _parity, "even-black"),
            boundary_parity=fields.get("boundary_parity", _parity, "even-black"))
    if kind == "halfplane":
        return HalfPlaneColoring(
            normal=fields.get("normal", _direction),
            offset=fields.get("offset", _number, 0.0),
            closed_side_color=Color(fields.get("closed_color", _color, "black")))
    segs = fields.get("segments", _list_of(_Fields), [])
    colors = fields.get("boundary_colors", _list_of(_color), [])
    if len(colors) != len(segs):
        raise SchemaError("field 'boundary_colors' must match 'segments' one-to-one")
    pieces = tuple(
        BoundaryPiece(Segment(Point(*seg.get("p", _pair)), Point(*seg.get("q", _pair))),
                      Color(color), ray_start=seg.get("ray_start", _flag, False),
                      ray_end=seg.get("ray_end", _flag, False))
        for seg, color in zip(segs, colors))
    seeds = tuple((Point(x, y), Color(c)) for x, y, c in
                  fields.get("seeds", _list_of(_tuple_of(_number, _number, _color), True)))
    window = fields.get("window", _tuple_of(*[_number] * 4), None)
    if window is None:  # the ends padded by 1, or by an ulp where rounding loses the 1
        xs = [c for pc in pieces for c in (pc.seg.p.x, pc.seg.q.x)] or [0.0]
        ys = [c for pc in pieces for c in (pc.seg.p.y, pc.seg.q.y)] or [0.0]
        lo, hi = (lambda c: min(min(c) - 1.0, math.nextafter(min(c), -math.inf)),
                  lambda c: max(max(c) + 1.0, math.nextafter(max(c), math.inf)))
        window = (lo(xs), lo(ys), hi(xs), hi(ys))
    return PolygonalColoring(pieces, seeds, Region(*window))


def l_shape_coloring() -> PolygonalColoring:
    """Open first quadrant black, the rest white; corner of angle pi/2.

    The two boundary rays leave the origin along +x and +y, clipped at 16
    for representation but flagged unbounded; the window is [-16, 16]^2.
    """
    along_x = BoundaryPiece(Segment(Point(16.0, 0.0), Point(0.0, 0.0)),
                            Color.BLACK, ray_start=True)
    along_y = BoundaryPiece(Segment(Point(0.0, 0.0), Point(0.0, 16.0)),
                            Color.BLACK, ray_end=True)
    return PolygonalColoring(
        (along_x, along_y),
        ((Point(1.0, 1.0), Color.BLACK), (Point(-1.0, -1.0), Color.WHITE)),
        Region(-16.0, -16.0, 16.0, 16.0))


def all_black_coloring() -> PolygonalColoring:
    """Degenerate polygonal coloring with no boundary: everything black."""
    return PolygonalColoring((), ((Point(0.0, 0.0), Color.BLACK),),
                             Region(-16.0, -16.0, 16.0, 16.0))
