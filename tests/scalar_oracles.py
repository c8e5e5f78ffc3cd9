"""Scalar oracles of the boundary kernels, one piece and one point at a time.

``point_segment_distance`` is the point-to-piece distance as it was before
the array kernels: one projection in Python floats, rescaled by a power of
two where it overflows. ``piece_distance`` applies it to a ``BoundaryPiece``
with its ray flags. ``circle_segment_hits`` solves one piece's circle
quadratic, over the parameter range [lo, hi], and ``scalar_circle_hits``
runs it piece by piece, merging a hit within 10 tol of an earlier one: the
circle pass as it was before it became one array pass, widened to rays.
``table_of`` builds the ``PieceTable`` of a list of segments.
``pieces_cross`` is the crossing test of two bounded pieces as it was
before ``PolygonTables.first_crossing`` made it one array pass, and
``first_crossing`` its double loop over the pairs.

``locate`` is the zebra kernel as it was before ``resolve`` read one float
index's parity: the int64 band and on-curve index of every point, from
curve L_i0 alone where no neighbour can reach the point and from the
curve window elsewhere, with its own copies of the height, near-curve and
window passes; ``locate_resolve`` is ``resolve`` over it, the three masks.

``clear_disk_resolve`` is the polygonal ``resolve`` of one block as it was
before the cell table: a point well inside its nearest seed's clear disk
takes that seed's color, and every other point takes the walk.
"""

import math

import numpy as np

from monotri.colorings import (HALF_SQRT3, BoundaryPiece, PieceTable, PolygonalColoring,
                               ZebraColoring)
from monotri.geom import DEFAULT_TOL, Circle, CircleHit, Point, Segment, distance

# the band of a point with no window curve at or below it; -2^63 as a float
# casts to the least int64
_NO_CURVE_BELOW = float(np.iinfo(np.int64).min)


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


def pieces_cross(a: Segment, b: Segment) -> bool:
    """True when the segments meet at a point interior to at least one of them."""
    d1x, d1y = a.q.x - a.p.x, a.q.y - a.p.y
    d2x, d2y = b.q.x - b.p.x, b.q.y - b.p.y
    denom = d1x * d2y - d1y * d2x
    len1, len2 = math.hypot(d1x, d1y), math.hypot(d2x, d2y)
    if abs(denom) <= DEFAULT_TOL * len1 * len2:
        return False  # parallel or collinear: overlaps share whole stretches, not checked
    wx, wy = b.p.x - a.p.x, b.p.y - a.p.y
    t = (wx * d2y - wy * d2x) / denom
    u = (wx * d1y - wy * d1x) / denom
    t_tol, u_tol = DEFAULT_TOL / len1, DEFAULT_TOL / len2
    inside_t = t_tol < t < 1.0 - t_tol
    inside_u = u_tol < u < 1.0 - u_tol
    on_t = -t_tol <= t <= 1.0 + t_tol
    on_u = -u_tol <= u <= 1.0 + u_tol
    return (inside_t and inside_u) or (inside_t and on_u and not inside_u) or \
        (inside_u and on_t and not inside_t)


def first_crossing(segments: list[Segment]):
    """The first pair i < j of ``segments``, in row-major order, that
    ``pieces_cross``, or None."""
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            if pieces_cross(segments[i], segments[j]):
                return i, j
    return None


def locate(zc: ZebraColoring, xs: np.ndarray, ys: np.ndarray, tol: float):
    """Band index, on-curve mask, on-curve index and unresolved mask of each
    point: the band is the largest i with L_i at or below the point, the
    on-curve index the first i in ascending order whose curve lies within
    ``tol`` of it (vertically ``tol * sqrt(1 + m^2)`` on a piece of slope
    m), 0 on no curve. Points that ``resolve`` leaves unresolved get band
    and index 0."""
    size = 1.5 * (float(np.abs(xs).max(initial=0.0)) + float(np.abs(ys).max(initial=0.0)))
    if size < 2.0 ** 48:
        return _locate_within(zc, xs, ys, tol, size)
    with np.errstate(invalid="ignore", over="ignore"):
        return _locate_within(zc, xs, ys, tol, size)


def _locate_within(zc: ZebraColoring, xs, ys, tol: float, size: float):
    profile = zc.profile
    xh = zc.x_hat
    s, t = xs * xh.dx + ys * xh.dy, -xs * xh.dy + ys * xh.dx
    q = (t - profile.v_min) / HALF_SQRT3
    i0 = np.floor(q)
    widest = tol * profile.tables.secants.max()
    h, on_curve = _near_curve(zc, s, t, i0, tol, widest)
    band = i0 - (h > t)
    curve_idx = np.where(on_curve, i0, 0.0)
    margin = widest + 2.0 ** -48 * (size + max(-profile.v_min, profile.v_max) + widest + 1.0)
    f = q - i0
    easy = ((f > (margin - (HALF_SQRT3 - profile.amplitude)) / HALF_SQRT3)
            & (f < 1.0 - margin / HALF_SQRT3))
    hard = np.flatnonzero(~easy)
    unresolved = np.zeros(xs.shape, bool)
    if hard.size:
        far = ~(np.abs(s[hard]) + np.abs(t[hard]) < 2.0 ** 48)
        if far.any():
            out, hard = hard[far], hard[~far]
            band[out], on_curve[out], curve_idx[out] = 0.0, False, 0.0
            unresolved[out] = True
        band[hard], on_curve[hard], curve_idx[hard] = _curve_window(
            zc, s[hard], t[hard], i0[hard], tol, widest)
    return band.astype(np.int64), on_curve, curve_idx.astype(np.int64), unresolved


def _height(zc: ZebraColoring, s, i):
    return i * HALF_SQRT3 + zc.profile.values(s - 0.5 * i)


def _near_curve(zc: ZebraColoring, s, t, i, tol: float, widest: float):
    tables = zc.profile.tables
    h = _height(zc, s, i)
    gap = np.abs(t - h)
    onb = gap <= widest
    near = onb.nonzero()[0]
    if near.size:
        u = s[near] - 0.5 * i[near]
        k = np.searchsorted(tables.us, u - np.floor(u), side="right")
        onb[near] = gap[near] <= tol * tables.secants[k]
    return h, onb


def _curve_window(zc: ZebraColoring, s, t, i0, tol: float, widest: float):
    band = np.full(s.shape, _NO_CURVE_BELOW)
    on_curve = np.zeros(s.shape, dtype=bool)
    curve_idx = np.zeros(s.shape)
    reach = 2 if widest >= HALF_SQRT3 else 1
    for di in range(-reach, reach + 1):
        i = i0 + di
        h, onb = _near_curve(zc, s, t, i, tol, widest)
        np.copyto(curve_idx, i, where=onb & ~on_curve)
        on_curve |= onb
        np.copyto(band, i, where=h <= t)
    below = np.flatnonzero(band == _NO_CURVE_BELOW)
    if reach == 1 and below.size:
        i = i0[below] - 2
        band[below] = np.where(_height(zc, s[below], i) <= t[below], i, band[below])
    return band, on_curve, curve_idx


def locate_resolve(zc: ZebraColoring, xs: np.ndarray, ys: np.ndarray, tol: float):
    """Black, on-boundary and unresolved masks from ``locate``."""
    band, on_curve, curve_idx, unresolved = locate(zc, xs, ys, tol)
    even = (np.where(on_curve, curve_idx, band) & 1) == 0
    odd_black = np.where(on_curve, zc.boundary_parity == "even-white",
                         zc.parity_rule == "even-white")
    return even != odd_black, on_curve, unresolved


def clear_disk_resolve(pc: PolygonalColoring, xs: np.ndarray, ys: np.ndarray, tol: float):
    """``resolve`` on one block as it was before the cell table: clear
    points first, the walk for the rest.

    ``seed_clear`` and ``clear_scale`` were ``PolygonTables`` fields; they are
    formed here from the tables, as they were there. The walk now takes the
    seed distances of its points itself.

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
    tb = pc.tables
    seed_clear = tb.seed_dist.min(axis=0, initial=np.inf)
    clear_scale = float(np.max(np.abs(tb.ax) + np.abs(tb.ay) + np.abs(tb.ex) + np.abs(tb.ey),
                               initial=0.0) + np.max(np.abs(tb.seed_x) + np.abs(tb.seed_y)))
    dist = np.hypot(tb.seed_x - xs[:, None], tb.seed_y - ys[:, None])
    t = float(tol)  # Python floats: a huge 1/t or B kappa is inf or NaN, without a warning
    kappa = 64.0 * 2.0 ** -53 * (1.0 + 1.0 / t) if t > 0.0 else math.nan
    base = 3.0 * t + 2.0 * clear_scale * kappa
    if not math.isfinite(base):
        return pc._walk(xs, ys, tol)
    nearest = dist.argmin(axis=1)
    reach = (seed_clear - base) / (1.0 + 1.5 * kappa)
    clear = dist.min(axis=1) < reach[nearest]
    if not clear.any():
        return pc._walk(xs, ys, tol)
    black = tb.seed_black[nearest]
    on = np.zeros(xs.shape, dtype=bool)
    unresolved = np.zeros(xs.shape, dtype=bool)
    rest = np.flatnonzero(~clear)
    if rest.size:
        black[rest], on[rest], unresolved[rest] = pc._walk(
            xs[rest], ys[rest], tol)
    return black, on, unresolved
