"""Scalar oracles of the boundary kernels, one piece and one point at a time.

``point_segment_distance`` is the point-to-piece distance as it was before
the array kernels: one projection in Python floats, rescaled by a power of
two where it overflows. ``piece_distance`` applies it to a ``BoundaryPiece``
with its ray flags. ``circle_segment_hits`` solves one piece's circle
quadratic, over the parameter range [lo, hi], and ``scalar_circle_hits``
runs it piece by piece, merging a hit within 10 tol of an earlier one: the
circle pass as it was before it became one array pass, widened to rays.
``table_of`` builds the ``PieceTable`` of a list of segments.
"""

import math

import numpy as np

from monotri.colorings import BoundaryPiece, PieceTable
from monotri.geom import Circle, CircleHit, Point, Segment, distance


def point_segment_distance(p: Point, seg: Segment,
                           ray_start: bool = False, ray_end: bool = False) -> float:
    """Distance from ``p`` to a segment, optionally unbounded past either end.

    Where the projection of ``p`` overflows (p far out), the distance is
    that of the figure scaled by 2^-k, which is exact, times 2^k. With
    |p - a| below 2^r and |q - a| below 2^s, the least k with
    2k >= max(r, s) + s - 1020 keeps the scaled projection, and |q - a|^2,
    below 2^1021; finite projections keep their bits.
    """
    coords = (p.x, p.y, seg.p.x, seg.p.y, seg.q.x, seg.q.y)
    lo = -math.inf if ray_start else 0.0
    hi = math.inf if ray_end else 1.0
    num, dist = _projected(*coords, lo, hi)
    if math.isfinite(num):  # else it overflowed, as every coordinate is finite
        return dist
    reach, size = (max(math.frexp(c)[1] for c in cs) + 1 for cs in (coords[:4], coords[2:]))
    k = (max(reach, size) + size - 1020 + 1) // 2
    return math.ldexp(_projected(*(math.ldexp(c, -k) for c in coords), lo, hi)[1], k)


def _projected(px, py, ax, ay, qx, qy, lo, hi) -> tuple[float, float]:
    """The projection numerator (p - a).(q - a) and the distance from p to
    the nearest point a + t (q - a), t in [lo, hi]."""
    dx, dy = qx - ax, qy - ay
    L2 = dx * dx + dy * dy
    num = (px - ax) * dx + (py - ay) * dy
    t = min(max(num / L2, lo), hi)
    return num, math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def piece_distance(piece: BoundaryPiece, p: Point) -> float:
    return point_segment_distance(p, piece.seg, piece.ray_start, piece.ray_end)


def circle_segment_hits(circle: Circle, seg: Segment, seg_index: int, tol: float,
                        lo: float = 0.0, hi: float = 1.0) -> list[CircleHit]:
    """The hits of ``circle`` on p + t (q - p), t in [lo, hi]."""
    px, py = seg.p.x, seg.p.y
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    fx, fy = px - circle.center.x, py - circle.center.y
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - circle.radius * circle.radius
    disc = b * b - 4.0 * a * c

    def at(t: float) -> Point:
        return Point(px + t * dx, py + t * dy)

    hits: list[CircleHit] = []
    length = math.sqrt(a)
    t_pad = tol / length
    if disc <= 0.0:
        # No transversal crossing; report grazing contact if the closest
        # approach sits on the piece at radius distance within tol.
        p_min = at(min(max(-b / (2.0 * a), lo), hi))
        if abs(distance(p_min, circle.center) - circle.radius) <= tol:
            hits.append(CircleHit(p_min, seg_index, tangent=True))
        return hits
    root = math.sqrt(disc)
    t1 = (-b - root) / (2.0 * a)
    t2 = (-b + root) / (2.0 * a)
    if (t2 - t1) * length <= 2.0 * tol:
        tm = 0.5 * (t1 + t2)
        if lo - t_pad <= tm <= hi + t_pad:
            hits.append(CircleHit(at(min(max(tm, lo), hi)), seg_index, tangent=True))
        return hits
    for t in (t1, t2):
        if lo - t_pad <= t <= hi + t_pad:
            hits.append(CircleHit(at(min(max(t, lo), hi)), seg_index, tangent=False))
    return hits


def scalar_circle_hits(circle: Circle, table: PieceTable, tol: float) -> list[CircleHit]:
    """Every piece of ``table`` through ``circle_segment_hits``, in order;
    a hit within 10 tol of an earlier one is merged into it."""
    hits: list[CircleHit] = []
    for k in range(len(table)):
        seg = Segment(Point(float(table.ax[k]), float(table.ay[k])),
                      Point(float(table.bx[k]), float(table.by[k])))
        for hit in circle_segment_hits(circle, seg, k, tol, float(table.u_lo[k]),
                                       float(table.u_hi[k])):
            if all(distance(known.point, hit.point) > 10.0 * tol for known in hits):
                hits.append(hit)
    return hits


def table_of(chain: list[Segment], ray_start=False, ray_end=False) -> PieceTable:
    """The table of black pieces ``chain``, with the given ray flags and no vertices."""
    a = np.array([[s.p.x for s in chain], [s.p.y for s in chain]]).reshape(2, -1)
    b = np.array([[s.q.x for s in chain], [s.q.y for s in chain]]).reshape(2, -1)
    return PieceTable(a, b, np.ones(len(chain), dtype=bool), ray_start, ray_end)
