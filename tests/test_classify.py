"""The ``resolve`` query against reference implementations.

``five_curve_locate`` is the zebra kernel as it was before the three-curve
window: every point tries curves i0 - 2 .. i0 + 2 and reads heights through
``np.interp``. ``mod_strip_classify`` is the strip kernel as it was
before its fractional parts came from ``floor``: both from ``np.mod``.
``two_mask_avoidance`` is the avoidance scan as it was before
it classified each vertex once: one ``resolve`` call for the black mask
and another for the boundary mask per vertex, each vertex offset rotated by
``_rotated_offsets``.
``walk_color_at`` is the polygonal query as it was before the array kernel:
one point at a time, one seed at a time, one piece at a time.
``scalar_distance`` is the ``distance`` query as it was before the array
kernels, one point at a time; for a zebra coloring it walks the five curve
polylines of ``scalar_zebra_distance``. ``per_point_polyline`` is a zebra
curve's polyline as it was before its heights came from one array call, one
``curve_point`` per breakpoint at the parameters ``breakpoints_in`` lists,
and ``per_point_boundary_segments`` clips those polylines one segment at a
time with ``clip_segment_to_region``, the scalar Liang-Barsky clip, with
the window's corners taken to the frame once per curve: the boundary of a
window as it was before it came from one array pass.
``scalar_halfplane_segments`` is a half-plane's boundary clipped the same
way.
``brute_force_find`` is the find
scan one pose at a time, coloring each vertex with ``color_at`` and taking
the margin from ``scalar_distance``; ``walk_avoidance`` is the avoidance
scan one pose at a time over ``walk_color_at``. All are kept here as
oracles that the fast paths must match exactly, at every size of the scan
engine's blocks: slices of one angle's translations and runs of whole
angles.
"""

import math
import re
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotri import colorings, render, scan
from monotri.colorings import (
    BoundaryPiece,
    CellTable,
    Color,
    PieceTable,
    HalfPlaneColoring,
    MalformedProfile,
    PolygonalColoring,
    StripColoring,
    UnresolvedFace,
    ZebraColoring,
    ZebraProfile,
    all_black_coloring,
    l_shape_coloring,
)
from monotri.geom import (
    DEFAULT_TOL,
    DegenerateSegment,
    GeometryError,
    InvalidArgument,
    Point,
    Region,
    RigidMotion,
    Segment,
    TriangleSpec,
    UnitVector,
    distance,
    place_triangle,
)
from monotri.render import RenderSpec, render_svg
from monotri.scan import (
    AvoidanceReport,
    ScanGrid,
    ScanWitness,
    avoidance_scan,
    find_monochromatic_copy,
)
from scalar_oracles import (clear_disk_resolve, locate, locate_resolve, piece_distance,
                            point_segment_distance)

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
ZIGZAG = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))


def five_curve_locate(zc: ZebraColoring, xs, ys, tol):
    """Band index, on-curve mask and on-curve index, five curves per point."""
    us = np.array([u for u, _ in zc.profile.vertices])
    vs = np.array([v for _, v in zc.profile.vertices])
    slopes = np.array([(v1 - v0) / (u1 - u0) for (u0, v0), (u1, v1)
                       in zip(zc.profile.vertices, zc.profile.vertices[1:])])

    def values(u):
        return np.interp(np.mod(u, 1.0), us, vs)

    def slopes_at(u):
        idx = np.clip(np.searchsorted(us, np.mod(u, 1.0), side="right") - 1,
                      0, len(slopes) - 1)
        return slopes[idx]

    s, t = zc.to_frame(xs, ys)
    i0 = np.floor((t - zc.profile.v_min) / HALF_SQRT3).astype(np.int64)
    band = np.full(s.shape, np.iinfo(np.int64).min, dtype=np.int64)
    on_curve = np.zeros(s.shape, dtype=bool)
    curve_idx = np.zeros(s.shape, dtype=np.int64)
    for di in range(-2, 3):
        i = i0 + di
        u = s - 0.5 * i
        h = i * HALF_SQRT3 + values(u)
        m = slopes_at(u)
        vertical_tol = tol * np.sqrt(1.0 + m * m)
        onb = np.abs(t - h) <= vertical_tol
        newly = onb & ~on_curve
        curve_idx = np.where(newly, i, curve_idx)
        on_curve |= onb
        band = np.maximum(band, np.where(h <= t, i, np.iinfo(np.int64).min))
    return band, on_curve, curve_idx


def assert_kernel_matches(zc: ZebraColoring, xs, ys, tol):
    """``resolve``'s masks are those of ``five_curve_locate``'s band and
    index, and so are ``locate``'s band, index and on-curve arrays; no
    point is unresolved. Returns ``five_curve_locate``'s arrays."""
    want = five_curve_locate(zc, xs, ys, tol)
    *got, unresolved = locate(zc, xs, ys, tol)
    assert not unresolved.any()
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    band, on_curve, curve_idx = want
    even = (np.where(on_curve, curve_idx, band) & 1) == 0
    odd_black = np.where(on_curve, zc.boundary_parity == "even-white",
                         zc.parity_rule == "even-white")
    black, on, unresolved = zc.resolve(xs, ys, tol)
    assert np.array_equal(black, even != odd_black) and np.array_equal(on, on_curve)
    assert not unresolved.any()
    return want


def mod_strip_classify(sc: StripColoring, xs, ys, tol):
    """Black mask and boundary mask, fractional parts from ``np.mod``."""
    frac = np.mod(ys / sc.period, 1.0)
    if sc.boundary_rule == "upper-closed":
        black = (frac > 0.0) & (frac <= 0.5)
    else:
        black = (frac >= 0.0) & (frac < 0.5)
    half = sc.period / 2.0
    frac = np.mod(ys / half, 1.0)
    return black, np.minimum(frac, 1.0 - frac) * half <= tol


def breakpoints_in(profile: ZebraProfile, u_lo: float, u_hi: float) -> list[float]:
    """Parameters of all breakpoints (period images) in [u_lo, u_hi]."""
    out = []
    base = [u for u, _ in profile.vertices[:-1]]  # u = 1 is the next period's 0
    for m in range(math.floor(u_lo) - 1, math.ceil(u_hi) + 2):
        for u in base:
            uu = u + m
            if u_lo <= uu <= u_hi:
                out.append(uu)
    return sorted(out)


def per_point_polyline(zc: ZebraColoring, i: int, u_lo: float, u_hi: float) -> list[Point]:
    """Breakpoint polyline of L_i over u in [u_lo, u_hi], collinear joints merged."""
    params = [u_lo] + breakpoints_in(zc.profile, u_lo + 1e-12, u_hi - 1e-12) + [u_hi]
    xh = zc.x_hat
    pts = []
    for u in params:
        s, t = u + 0.5 * i, float(zc.profile.values(np.array([u]))[0]) + i * HALF_SQRT3
        pts.append(Point(s * xh.dx - t * xh.dy, s * xh.dy + t * xh.dx))
    merged = [pts[0]]
    for j in range(1, len(pts) - 1):
        ax, ay = pts[j] - merged[-1]
        bx, by = pts[j + 1] - pts[j]
        if abs(ax * by - ay * bx) > 1e-12 * (abs(ax) + abs(ay)) * (abs(bx) + abs(by) + 1):
            merged.append(pts[j])
    merged.append(pts[-1])
    return merged


def clip_segment_to_region(p: Point, q: Point, window: Region) -> Optional[Segment]:
    """Liang-Barsky clip; returns None for segments missing the window."""
    dx, dy = q.x - p.x, q.y - p.y
    t0, t1 = 0.0, 1.0
    for delta, lo, hi, start in ((dx, window.x0, window.x1, p.x),
                                 (dy, window.y0, window.y1, p.y)):
        if delta == 0.0:
            if start < lo or start > hi:
                return None
            continue
        ta, tb = (lo - start) / delta, (hi - start) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 >= t1:
            return None
    a = Point(p.x + t0 * dx, p.y + t0 * dy)
    b = Point(p.x + t1 * dx, p.y + t1 * dy)
    if distance(a, b) <= DEFAULT_TOL:
        return None
    return Segment(a, b)


def per_point_boundary_segments(zc: ZebraColoring, window: Region) -> PieceTable:
    """Clipped curves as oriented pieces, white face on the left. Two pieces
    clipped from consecutive segments of one polyline meet at their joint
    when it lies in the closed window.

    Coordinates are Python floats, which divide to inf without the warning
    that numpy scalars give when a clipping quotient overflows.
    """
    ts = [float(zc.to_frame(np.array([x]), np.array([y]))[1][0])
          for x in (window.x0, window.x1) for y in (window.y0, window.y1)]
    i_lo = math.floor((min(ts) - zc.profile.v_max) / HALF_SQRT3) - 1
    i_hi = math.ceil((max(ts) - zc.profile.v_min) / HALF_SQRT3) + 1
    pieces, joints = [], []
    for i in range(i_lo, i_hi + 1):
        corners_s = [float(zc.to_frame(np.array([x]), np.array([y]))[0][0])
                     for x in (window.x0, window.x1) for y in (window.y0, window.y1)]
        u_lo, u_hi = min(corners_s) - 0.5 * i - 1.0, max(corners_s) - 0.5 * i + 1.0
        pts = per_point_polyline(zc, i, u_lo, u_hi)
        color = colorings._parity_color(i, zc.boundary_parity)
        flip = colorings._parity_color(i, zc.parity_rule) is not Color.WHITE
        joined = None  # the position of the last kept piece's clipped end q, if it meets the next
        for p, q in zip(pts, pts[1:]):
            seg = clip_segment_to_region(p, q, window)
            if seg is None:
                joined = None
                continue
            k = len(pieces)
            pieces.append(BoundaryPiece(Segment(seg.q, seg.p) if flip else seg, color))
            joints += [-1, -1]
            if joined is not None:
                joints[2 * k + flip] = joints[joined] = joined
            inside = window.x0 <= q.x <= window.x1 and window.y0 <= q.y <= window.y1
            joined = 2 * k + 1 - flip if inside else None
    return PieceTable(*(np.array([[getattr(pc.seg, end).x for pc in pieces],
                                  [getattr(pc.seg, end).y for pc in pieces]]).reshape(2, -1)
                        for end in "pq"),
                      np.array([pc.color is Color.BLACK for pc in pieces], dtype=bool),
                      joints=np.array(joints, dtype=int))


def scalar_halfplane_segments(hp: HalfPlaneColoring, window: Region) -> PieceTable:
    """The boundary line as one long segment through the window, clipped by
    ``clip_segment_to_region``, white face on the left."""
    n = hp.normal
    d = (n.dy, -n.dx) if hp.closed_side_color is Color.WHITE else (-n.dy, n.dx)
    anchor = Point(n.dx * hp.offset, n.dy * hp.offset)
    reach = abs(window.x0) + abs(window.x1) + abs(window.y0) + abs(window.y1) + 4.0
    seg = clip_segment_to_region(Point(anchor.x - reach * d[0], anchor.y - reach * d[1]),
                                 Point(anchor.x + reach * d[0], anchor.y + reach * d[1]), window)
    ends = [] if seg is None else [[seg.p.x, seg.p.y, seg.q.x, seg.q.y]]
    a, b = np.array(ends).reshape(-1, 4).T.reshape(2, 2, -1)
    return PieceTable(a, b, np.full(len(ends), hp.closed_side_color is Color.BLACK), True, True)


def scalar_zebra_distance(self: ZebraColoring, p: Point) -> float:
    """Exact distance to the nearest boundary curve."""
    s_arr, t_arr = self.to_frame(np.array([p.x]), np.array([p.y]))
    s, t = float(s_arr[0]), float(t_arr[0])
    i0 = math.floor((t - self.profile.v_min) / HALF_SQRT3)
    best = math.inf
    for i in range(i0 - 2, i0 + 3):
        u_lo, u_hi = s - 0.5 * i - 1.5, s - 0.5 * i + 1.5
        pts = per_point_polyline(self, i, u_lo, u_hi)
        for a, b in zip(pts, pts[1:]):
            best = min(best, point_segment_distance(p, Segment(a, b)))
    return best


def one_point_distance(coloring, p: Point) -> float:
    """``distance`` of the one point ``p``."""
    return float(coloring.distance(np.array([p.x]), np.array([p.y]))[0])


def scalar_distance(coloring, p: Point) -> float:
    """Distance from ``p`` to the boundary, one point at a time."""
    if isinstance(coloring, ZebraColoring):
        return scalar_zebra_distance(coloring, p)
    if isinstance(coloring, StripColoring):
        half = coloring.period / 2.0
        frac = math.fmod(p.y / half, 1.0)
        if frac < 0.0:
            frac += 1.0
        return min(frac, 1.0 - frac) * half
    if isinstance(coloring, HalfPlaneColoring):
        n = coloring.normal
        return abs(p.x * n.dx + p.y * n.dy - coloring.offset)
    return min((piece_distance(piece, p) for piece in coloring.pieces), default=math.inf)


def assert_distance_matches_scalar(coloring, xs, ys):
    got = coloring.distance(xs, ys)
    want = np.array([scalar_distance(coloring, Point(float(x), float(y)))
                     for x, y in zip(xs, ys)]).reshape(xs.shape)
    assert got.tolist() == want.tolist()
    assert got.tobytes() == want.tobytes()  # signed zeros too


def _rotated_offsets(spec: TriangleSpec, angle: float) -> tuple[tuple[float, float], ...]:
    """Vertex offsets of the canonical triangle under a pure rotation."""
    base = place_triangle(spec, RigidMotion(0.0))
    c, s = math.cos(angle), math.sin(angle)
    return tuple((c * p.x - s * p.y, s * p.x + c * p.y) for p in base)


def two_mask_avoidance(coloring, spec, grid, tol=1e-9, max_examples=8):
    """The avoidance scan with separate black and boundary passes per vertex."""
    xs, ys = grid.xs(), grid.ys()
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    ny = len(ys)
    mono_count = near_count = 0
    mono_ex, near_ex = [], []
    for k, angle in enumerate(grid.angles()):
        blacks, bounds = [], []
        for ox, oy in _rotated_offsets(spec, angle):
            blacks.append(coloring.resolve(X + ox, Y + oy, tol)[0])
            bounds.append(coloring.resolve(X + ox, Y + oy, tol)[1])
        b1, b2, b3 = blacks
        mono = (b1 == b2) & (b2 == b3)
        near = (~mono) & (((b1 == b2) & bounds[2]) | ((b1 == b3) & bounds[1])
                          | ((b2 == b3) & bounds[0]))
        mono_count += int(mono.sum())
        near_count += int(near.sum())
        for mask, acc in ((mono, mono_ex), (near, near_ex)):
            if mask.any() and len(acc) < max_examples:
                for flat in np.flatnonzero(mask)[:max_examples - len(acc)]:
                    i, j = divmod(int(flat), ny)
                    acc.append((k, float(xs[i]), float(ys[j])))
    return AvoidanceReport(grid.placements(), mono_count, near_count,
                           tuple(mono_ex), tuple(near_ex))


def walk_color_at(pc: PolygonalColoring, p: Point, tol: float):
    """Color of ``p`` by the per-point walk, None where no seed reaches it
    or a coordinate is NaN or infinite."""
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        return None
    for piece in pc.pieces:
        if piece_distance(piece, p) <= tol:
            return piece.color
    order = sorted(range(len(pc.seeds)), key=lambda k: distance(pc.seeds[k][0], p))
    for k in order:
        seed_pt, seed_color = pc.seeds[k]
        crossings = walk_crossings(pc, p, seed_pt, tol)
        if crossings is None:
            continue
        return seed_color if crossings % 2 == 0 else seed_color.opposite()
    return None


def walk_crossings(pc: PolygonalColoring, p: Point, q: Point, tol: float):
    """Proper crossings of segment p-q with the boundary, None if ambiguous."""
    dx, dy = q.x - p.x, q.y - p.y
    seg_len = math.hypot(dx, dy)
    if seg_len <= tol:
        return 0
    count = 0
    for piece in pc.pieces:
        a, b = piece.seg.p, piece.seg.q
        ex, ey = b.x - a.x, b.y - a.y
        piece_len = math.hypot(ex, ey)
        denom = dx * ey - dy * ex
        if abs(denom) <= tol * seg_len * piece_len:
            # Parallel; ambiguous only if collinear and overlapping.
            if point_segment_distance(p, piece.seg, piece.ray_start,
                                      piece.ray_end) <= tol or \
               point_segment_distance(q, piece.seg, piece.ray_start,
                                      piece.ray_end) <= tol:
                return None
            continue
        wx, wy = a.x - p.x, a.y - p.y
        t = (wx * ey - wy * ex) / denom
        u = (wx * dy - wy * dx) / denom
        t_tol = tol / seg_len
        u_tol = tol / piece_len
        u_lo = -math.inf if piece.ray_start else 0.0
        u_hi = math.inf if piece.ray_end else 1.0
        if t < -t_tol or t > 1.0 + t_tol or u < u_lo - u_tol or u > u_hi + u_tol:
            continue
        if abs(t) <= t_tol or abs(t - 1.0) <= t_tol:
            return None  # endpoint of the query segment grazes the boundary
        if (not piece.ray_start and abs(u) <= u_tol) or \
           (not piece.ray_end and abs(u - 1.0) <= u_tol):
            return None  # crossing at a boundary vertex
        count += 1
    return count


@st.composite
def zebra_colorings(draw):
    """Profiles of 2-6 breakpoints, amplitude up to just below sqrt(3)/2."""
    n = draw(st.integers(2, 6))
    inner = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=n - 2, max_size=n - 2,
                                 unique=True)))
    us = [0.0] + inner + [1.0]
    assume(all(b - a > 1e-3 for a, b in zip(us, us[1:])))
    amplitude = draw(st.sampled_from([0.1, 0.5, 0.8, HALF_SQRT3 - 2e-9]))
    heights = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    vs = [amplitude * h for h in heights] + [amplitude * heights[0]]
    offset = draw(st.floats(-2.0, 2.0))
    try:
        profile = ZebraProfile(tuple((u, v + offset) for u, v in zip(us, vs)))
        return ZebraColoring(
            profile, UnitVector.from_angle(draw(st.floats(0.0, 2 * math.pi))),
            draw(st.sampled_from(["even-black", "even-white"])),
            draw(st.sampled_from(["even-black", "even-white"])))
    except MalformedProfile:
        assume(False)


def curve_points(zc: ZebraColoring, rng, tol, n=60):
    """Points on curves and at +-0.5 tol and +-2 tol vertically from them.

    Half of the parameters are breakpoints, where the slope changes.
    """
    breaks = np.array([u for u, _ in zc.profile.vertices])
    i = rng.integers(-4, 5, n)
    u = np.where(rng.uniform(size=n) < 0.5, rng.choice(breaks, n), rng.uniform(0.0, 1.0, n))
    u = u + rng.integers(-3, 4, n)
    s = u + 0.5 * i
    h = i * HALF_SQRT3 + zc.profile.values(u)
    out_s, out_t = [], []
    for dv in (0.0, 0.5 * tol, -0.5 * tol, 2.0 * tol, -2.0 * tol):
        out_s.append(s)
        out_t.append(h + dv)
    s, t = np.concatenate(out_s), np.concatenate(out_t)
    xh = zc.x_hat
    return s * xh.dx - t * xh.dy, s * xh.dy + t * xh.dx


@st.composite
def kernel_cases(draw):
    """A zebra coloring and a tolerance. At tol 0.5 the profile has a piece
    of slope at least sqrt(2), so that w = tol * max secant >= sqrt(3)/2
    and the curve window spans five curves: where the drawn profile has
    none, a spike of its amplitude, 2 d wide, takes its place."""
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]))
    zc = draw(zebra_colorings())
    profile = zc.profile
    if tol == 0.5 and tol * profile.tables.secants.max() < HALF_SQRT3:
        amplitude = max(profile.amplitude, 0.1)
        d = draw(st.floats(2e-3, min(amplitude / 1.5, 0.45)))
        v = profile.v_min
        profile = ZebraProfile(((0.0, v), (d, v + amplitude), (2.0 * d, v), (1.0, v)))
        zc = ZebraColoring(profile, zc.x_hat, zc.parity_rule, zc.boundary_parity)
    assert (tol * profile.tables.secants.max() >= HALF_SQRT3) == (tol == 0.5)
    return zc, tol


def near_curve_points(zc: ZebraColoring, rng, tol, n=40):
    """Points on curves, and vertically off them by 1e-12 to 1e-8 and by
    +-0.5 tol and +-2 tol, near the origin and on curves with |i| ~ 10^7;
    and uniform points."""
    breaks = np.array([u for u, _ in zc.profile.vertices])
    i = np.concatenate((rng.integers(-4, 5, n), rng.integers(-4, 5, n) + 10 ** 7 * rng.choice(
        [-1, 1], n))).astype(float)
    u = np.where(rng.uniform(size=2 * n) < 0.5, rng.choice(breaks, 2 * n),
                 rng.uniform(0.0, 1.0, 2 * n)) + rng.integers(-3, 4, 2 * n)
    s = u + 0.5 * i
    h = i * HALF_SQRT3 + zc.profile.values(u)
    dv = np.array([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8,
                   0.5 * tol, -0.5 * tol, 2.0 * tol, -2.0 * tol])
    s = np.concatenate((np.repeat(s, dv.size), rng.uniform(-6.0, 6.0, 100)))
    t = np.concatenate(((h[:, None] + dv).ravel(), rng.uniform(-6.0, 6.0, 100)))
    xh = zc.x_hat
    return s * xh.dx - t * xh.dy, s * xh.dy + t * xh.dx


# a y whose quotient by the half strip width is not finite, or overflows
STRIP_UNRESOLVED = [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (0.0, 1.7e308),
                    (-1.0, -1.7e308)]


class TestStripKernel:
    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("rule", ["upper-closed", "lower-closed"])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_matches_np_mod_oracle(self, scale, rule, tol):
        sc = StripColoring(scale, rule)
        rng = np.random.default_rng(31)
        multiples = np.arange(-60.0, 61.0) * (sc.period / 2.0)
        ys = np.concatenate(
            [rng.uniform(-1.0, 1.0, 4000) * magnitude for magnitude in (1.0, 1e3, 1e9, 1e15)]
            + [multiples, np.nextafter(multiples, -np.inf), np.nextafter(multiples, np.inf),
               [0.0, -0.0, 5e-324, -5e-324, -1e-300]])
        xs = rng.uniform(-1.0, 1.0, ys.size)
        *got, unresolved = sc.resolve(xs, ys, tol)
        want = mod_strip_classify(sc, xs, ys, tol)
        assert not unresolved.any()
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           x2=st.floats(allow_nan=False, allow_infinity=False),
           y=st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False)),
           scale=st.sampled_from([1.0, 0.7, 1e-3]),
           rule=st.sampled_from(["upper-closed", "lower-closed"]),
           tol=st.sampled_from([1e-9, 1e-3]))
    def test_reads_y_alone(self, x, x2, y, scale, rule, tol):
        """The same bits at (x, y) and (x', y): the column path of the scans
        rests on this."""
        sc = StripColoring(scale, rule)
        at = [(np.array([x]), np.array([y])), (np.array([x2]), np.array([y]))]
        for a, b in zip(*(sc.resolve(*p, tol) for p in at), strict=True):
            assert a.tobytes() == b.tobytes()
        assert sc.distance(*at[0]).tobytes() == sc.distance(*at[1]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coloring, bad", [
        (StripColoring(), STRIP_UNRESOLVED),
        (StripColoring(0.7, "lower-closed"), STRIP_UNRESOLVED),
        # 0 * inf is NaN: a vertical normal does not read x, but x must be finite
        (HalfPlaneColoring(), [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0),
                               (0.0, math.nan), (0.0, math.inf)]),
        (HalfPlaneColoring(UnitVector.from_angle(0.9), -0.5),
         [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1.7e308, 1.7e308)]),
    ])
    def test_points_without_a_finite_test_value_are_unresolved(self, coloring, bad):
        """Where the kernel's own test value (the strip's y / half width, the
        half-plane's projection on the normal) is not finite: no numpy
        warning, NaN distance, and ``UnresolvedFace`` from the one-point
        view; the other points keep their masks."""
        good = [(0.3, 0.2), (-2.5, 1.75), (1e300, -3.0), (-1.7e308, 1.5)]
        xs, ys = np.array(bad + good).T
        black, on, unresolved = coloring.resolve(xs, ys)
        assert unresolved.tolist() == [True] * len(bad) + [False] * len(good)
        for k in range(len(bad), len(xs)):
            one = coloring.resolve(xs[k:k + 1], ys[k:k + 1])
            assert [m[0] for m in one] == [black[k], on[k], False]
        distances = coloring.distance(xs, ys)
        assert np.isnan(distances[:len(bad)]).all() and not np.isnan(distances[len(bad):]).any()
        for x, y in bad:
            with pytest.raises(UnresolvedFace, match=re.escape(coloring._UNRESOLVED.format(x, y))):
                scan._resolved_black(coloring, np.array([x]), np.array([y]), 1e-9)


class TestZebraKernel:
    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-9, 1e-7, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_five_curve_oracle(self, zc, seed, tol):
        rng = np.random.default_rng(seed)
        xs, ys = curve_points(zc, rng, tol)
        xs = np.concatenate((xs, rng.uniform(-6.0, 6.0, 200)))
        ys = np.concatenate((ys, rng.uniform(-6.0, 6.0, 200)))
        assert_kernel_matches(zc, xs, ys, tol)

    @pytest.mark.parametrize("tol", [0.5, 2.0])
    def test_wide_tolerance_widens_the_window(self, tol):
        # slopes of 40 make the vertical tolerance exceed sqrt(3)/2, so
        # curves i0 +- 2 can hold a point and the window must reach them
        steep = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.01, 0.4), (0.02, 0.0),
                                            (1.0, 0.0))), UnitVector.from_angle(0.3))
        rng = np.random.default_rng(5)
        xs, ys = curve_points(steep, rng, tol)
        xs = np.concatenate((xs, rng.uniform(-4.0, 4.0, 400)))
        ys = np.concatenate((ys, rng.uniform(-4.0, 4.0, 400)))
        assert_kernel_matches(steep, xs, ys, tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_on_curve_tolerance_is_the_pieces_own_secant(self, tol):
        # a steep piece (slope 40) next to a flat one: a point 2 tol above
        # the flat piece is within the steep piece's vertical tolerance but
        # off its own curve, and one 0.5 tol secant above the steep piece is on
        steep = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.01, 0.4), (0.02, 0.0),
                                            (1.0, 0.0))))
        secant = math.sqrt(1.0 + 40.0 ** 2)
        xs = np.array([0.5, 0.005])
        ys = np.array([2.0 * tol, 0.2 + 0.5 * tol * secant])
        assert steep.resolve(xs, ys, tol)[1].tolist() == [False, True]
        assert_kernel_matches(steep, xs, ys, tol)

    @pytest.mark.parametrize("scale", [3e7, 1e8])
    def test_matches_oracle_far_from_the_origin(self, scale):
        # The peak of L_k comes within 2e-9 of the lowest points of L_{k+1}.
        # Points just below those lowest points make floor((t - v_min) /
        # (sqrt(3)/2)) round up at large |t|, which moves the band curve k
        # out of the three-curve window.
        near_cap = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, HALF_SQRT3 - 2e-9),
                                               (1.0, 0.0))))
        rng = np.random.default_rng(17)
        k = np.round(rng.uniform(-scale, scale, 20000) / HALF_SQRT3)
        u = np.where(rng.uniform(size=k.size) < 0.5, 0.5, rng.uniform(0.0, 1.0, k.size))
        base = (k + 1) * HALF_SQRT3
        ts = base - rng.integers(0, 4, k.size) * rng.uniform(0.0, 4e-16, k.size) * np.abs(base)
        xs = u + 0.5 * k
        for tol in (1e-9, 1e-7):
            assert_kernel_matches(near_cap, xs, ts, tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    @pytest.mark.parametrize("name, peak", [("near-cap", 0.5), ("steep", 0.01)])
    def test_band_below_the_window_far_from_the_origin(self, name, peak, tol):
        # Points just below the lowest points of L_{k+1} at |t| ~ 1e8, as
        # above. At tol 1e-9 the near-cap ones find all three window curves
        # above them: their band keeps the "no curve below" sentinel until
        # curve i0 - 2 is looked up. At tol 0.5 both profiles' vertical
        # tolerance reaches sqrt(3)/2, so i0 - 2 is a window curve.
        profile = {"near-cap": ((0.0, 0.0), (0.5, HALF_SQRT3 - 2e-9), (1.0, 0.0)),
                   "steep": ((0.0, 0.0), (0.01, 0.4), (0.02, 0.0), (1.0, 0.0))}[name]
        zc = ZebraColoring(ZebraProfile(profile))
        rng = np.random.default_rng(29)
        k = np.round(rng.uniform(-1e8, 1e8, 20000) / HALF_SQRT3)
        u = np.where(rng.uniform(size=k.size) < 0.5, peak, rng.uniform(0.0, 1.0, k.size))
        base = (k + 1) * HALF_SQRT3
        ts = base - rng.integers(0, 4, k.size) * rng.uniform(0.0, 4e-16, k.size) * np.abs(base)
        xs = u + 0.5 * k
        want = assert_kernel_matches(zc, xs, ts, tol)
        if name == "near-cap":
            i0 = np.floor((ts - zc.profile.v_min) / HALF_SQRT3).astype(np.int64)
            assert (want[0] == i0 - 2).any()

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.5])
    @pytest.mark.parametrize("name", ["zigzag", "near-cap"])
    @pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e8])
    def test_points_at_the_hard_point_thresholds(self, magnitude, name, tol, monkeypatch):
        # Points just below the lowest points of L_k+1, and just above the
        # highest points of L_k-1, around the vertical tolerance w: there
        # the kernel's rounding bound decides whether a point takes the
        # curve window. Each set holds points on both sides of that bound,
        # unless w reaches sqrt(3)/2 and every point takes the window.
        profile = ZebraProfile({"zigzag": ((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)),
                                "near-cap": ((0.0, 0.0), (0.5, HALF_SQRT3 - 2e-9),
                                             (1.0, 0.0))}[name])
        zc = ZebraColoring(profile)  # x_hat = (1, 0): frame and world coordinates agree
        windowed = []
        window = ZebraColoring._curve_window

        def counted_window(self, s, *args):
            windowed.append(s.size)
            return window(self, s, *args)

        monkeypatch.setattr(ZebraColoring, "_curve_window", counted_window)
        w = tol * profile.tables.secants.max()
        k0 = round(magnitude / HALF_SQRT3)
        k = np.concatenate((np.arange(k0 - 20, k0 + 20), np.arange(-k0 - 20, -k0 + 20)))
        steps = np.arange(-64.0, 65.0)
        for below_next in (True, False):
            if below_next:  # under L_k+1 at its lowest point
                i, u, base = k + 1, 0.0, (k + 1) * HALF_SQRT3 + profile.v_min - w
            else:  # over L_k-1 at its highest point
                i, u, base = k - 1, 0.5, (k - 1) * HALF_SQRT3 + profile.v_max + w
            near = base[:, None] + steps * 2.0 ** -48 * (np.abs(base)[:, None] + 1.0)
            ulps = base[:, None] + steps[::8] * np.spacing(base)[:, None]
            ts = np.concatenate((near, ulps), axis=1).ravel()
            xs = np.repeat(u + 0.5 * i, ts.size // i.size)
            windowed.clear()
            assert_kernel_matches(zc, xs, ts, tol)
            hard = sum(windowed)
            if w >= HALF_SQRT3:
                assert hard == ts.size
            elif below_next or name == "near-cap":
                # the zigzag reaches its lower threshold only at w >= sqrt(3)/2 - 0.1
                assert 0 < hard < ts.size

    @pytest.mark.parametrize("split", ["chosen", "forced"])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3, 0.5])
    @pytest.mark.parametrize("name", ["zigzag", "flat", "near-cap"])
    @pytest.mark.parametrize("magnitude", [1.0, 1e4, 1e8])
    def test_points_at_the_band_threshold(self, magnitude, name, tol, split, monkeypatch):
        # Points just above the highest points of L_k, around the vertical
        # tolerance w: there the kernel's rounding bound decides whether a
        # point is clear, its color the parity of k read without the
        # profile. "chosen" leaves the split to the kernel, which makes it
        # for the zigzag and the flat profile at tol <= 1e-3 only;
        # "forced" makes it for every call. A split call runs the one-curve
        # pass on its points that are not clear, and its sets hold points on
        # both sides of the bound unless no point of the band is clear:
        # where amplitude + 2 w reaches sqrt(3)/2 (w >= sqrt(3)/2 among
        # them), or rounding leaves the near-cap profile's 2e-9 no room.
        profile = ZebraProfile({"zigzag": ((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)),
                                "flat": ((0.0, 0.0), (1.0, 0.0)),
                                "near-cap": ((0.0, 0.0), (0.5, HALF_SQRT3 - 2e-9),
                                             (1.0, 0.0))}[name])
        zc = ZebraColoring(profile)  # x_hat = (1, 0): frame and world coordinates agree
        if split == "forced":
            monkeypatch.setattr(colorings, "_CLEAR_POINTS", 0)
            monkeypatch.setattr(colorings, "_CLEAR_SHARE", -math.inf)
        passes = []
        near_curve = ZebraColoring._near_curve

        def counted_near_curve(self, s, *args):
            passes.append(s.size)
            return near_curve(self, s, *args)

        monkeypatch.setattr(ZebraColoring, "_near_curve", counted_near_curve)
        w = tol * profile.tables.secants.max()
        k0 = round(magnitude / HALF_SQRT3)
        k = np.concatenate((np.arange(k0 - 20, k0 + 20), np.arange(-k0 - 20, -k0 + 20)))
        base = k * HALF_SQRT3 + profile.v_max + w  # over L_k at its highest point
        steps = np.arange(-64.0, 65.0)
        near = base[:, None] + steps * 2.0 ** -48 * (np.abs(base)[:, None] + 1.0)
        ulps = base[:, None] + steps[::8] * np.spacing(base)[:, None]
        ts = np.concatenate((near, ulps), axis=1).ravel()
        xs = np.repeat(0.5 + 0.5 * k, ts.size // k.size)
        passes.clear()
        got, want = zc.resolve(xs, ts, tol), locate_resolve(zc, xs, ts, tol)
        for g, o in zip(got, want, strict=True):
            assert g.dtype == o.dtype and np.array_equal(g, o)
        one_curve = passes[0]  # then the window's passes, if any point is hard
        splits = split == "forced" or (name != "near-cap" and tol <= 1e-3)
        room = profile.amplitude + 2.0 * w + 2.0 ** -44 * (magnitude + 1.0) < HALF_SQRT3
        if splits and room:
            assert 0 < one_curve < ts.size
        else:
            assert one_curve == ts.size

    @given(case=kernel_cases(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_masks_match_the_locate_oracle(self, case, seed):
        """``resolve``'s three masks are those of ``locate_resolve``, the kernel
        of int64 band and curve-index arrays, array for array: on curves and
        near them, and again in a second call that adds the point (2^47, 0),
        points at |s| + |t| >= 2^48 and coordinates that are not finite, a
        call in which every point is hard. The suite turns numpy warnings
        into errors."""
        zc, tol = case
        rng = np.random.default_rng(seed)
        xs, ys = near_curve_points(zc, rng, tol)
        extra = np.array([(2.0 ** 47, 0.0), (-3e14, 2e14), (0.0, -2.0 ** 50), (1e300, -1e300),
                          (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
                          (math.inf, -math.inf)]).T
        for px, py in ((xs, ys), (np.concatenate((xs, extra[0])),
                                  np.concatenate((ys, extra[1])))):
            got, want = zc.resolve(px, py, tol), locate_resolve(zc, px, py, tol)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        assert not got[2][:xs.size].any() and got[2][xs.size:].tolist() == [
            False, True, True, True, True, True, True, True]

    def test_profile_tables_are_built_once_and_read_only(self):
        profile = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
        assert profile.tables is profile.tables
        with pytest.raises(ValueError):
            profile.tables.vs[0] = 1.0


def convex_face(rng) -> PolygonalColoring:
    """A black convex face of 3-8 pieces of random colors, white outside.

    The vertices lie on a random ellipse about the origin, at angles
    jittered from an even spread. One black seed sits near the origin, at
    a point drawn from [-0.1, 0.1]^2, or at the vertices' centroid where
    that point lies outside the face; three white seeds lie outside, on a
    circle of radius 3.
    """
    n = int(rng.integers(3, 9))
    theta = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) * (2.0 * math.pi / n)
    a, b = rng.uniform(1.0, 2.0, 2)
    c, s = math.cos(rng.uniform(0.0, math.pi)), math.sin(rng.uniform(0.0, math.pi))
    ccw = [Point(float(c * a * math.cos(t) - s * b * math.sin(t)),
                 float(s * a * math.cos(t) + c * b * math.sin(t))) for t in theta]
    cw = ccw[::-1]  # clockwise, so the white outside lies on the left
    pieces = tuple(BoundaryPiece(Segment(cw[k], cw[(k + 1) % n]),
                                 Color.BLACK if rng.uniform() < 0.5 else Color.WHITE)
                   for k in range(n))
    inside = Point(*(float(v) for v in rng.uniform(-0.1, 0.1, 2)))
    if not all((q.x - p.x) * (inside.y - p.y) - (q.y - p.y) * (inside.x - p.x) > 0.0
               for p, q in zip(ccw, ccw[1:] + ccw[:1])):
        inside = Point(sum(p.x for p in ccw) / n, sum(p.y for p in ccw) / n)
    outer = tuple((Point(float(3.0 * math.cos(t)), float(3.0 * math.sin(t))), Color.WHITE)
                  for t in rng.uniform(0.0, 2.0 * math.pi, 3))
    return PolygonalColoring(pieces, ((inside, Color.BLACK),) + outer,
                             Region(-4.0, -4.0, 4.0, 4.0))


def test_convex_faces_of_600_seeds_construct():
    """The faces of rng seeds 0-599 all construct: for 12 of them the drawn
    black seed lies outside the face, and the centroid takes its place."""
    for seed in range(600):
        convex_face(np.random.default_rng(seed))


FAMILIES = {
    "strip": StripColoring(1.0, "lower-closed"),
    "zebra": ZebraColoring(ZIGZAG, UnitVector.from_angle(0.7), "even-black", "even-white"),
    "halfplane": HalfPlaneColoring(UnitVector.from_angle(2.0), 0.3, Color.WHITE),
    "polygonal": l_shape_coloring(),
    "convex": convex_face(np.random.default_rng(8)),
}

_CORNERS = [Point(1.5 * math.cos(k * math.pi / 3), 1.5 * math.sin(k * math.pi / 3))
            for k in range(6)]
# A black hexagon face: sight lines along the x axis pass through its corners (+-1.5, 0).
HEXAGON = PolygonalColoring(
    tuple(BoundaryPiece(Segment(_CORNERS[k], _CORNERS[(k + 1) % 6]), Color.BLACK)
          for k in range(6)),
    ((Point(0.0, 0.0), Color.BLACK), (Point(3.0, 0.0), Color.WHITE)),
    Region(-4.0, -4.0, 4.0, 4.0))


def boundary_points(coloring, rng, n=40):
    """Points on the coloring's boundary pieces, endpoints included."""
    pieces = coloring.boundary_segments(Region(-3.0, -3.0, 3.0, 3.0))
    xs, ys = [], []
    for ax, ay, bx, by in zip(pieces.ax.tolist(), pieces.ay.tolist(), pieces.bx.tolist(),
                              pieces.by.tolist()):
        for f in np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, n // len(pieces)))):
            xs.append(ax + f * (bx - ax))
            ys.append(ay + f * (by - ay))
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_classify_is_the_pair_of_masks(family, tol):
    """``resolve`` flags boundary points on the boundary and no point
    unresolved, and ``color_at`` is the one-point view of its black mask."""
    coloring = FAMILIES[family]
    rng = np.random.default_rng(3)
    bx, by = boundary_points(coloring, rng)
    xs = np.concatenate((bx, rng.uniform(-3.0, 3.0, 300)))
    ys = np.concatenate((by, rng.uniform(-3.0, 3.0, 300)))
    black, on, unresolved = coloring.resolve(xs, ys, tol)
    assert on[:len(bx)].all() and not unresolved.any()
    colors = [coloring.color_at(Point(float(x), float(y)), tol) for x, y in zip(xs, ys)]
    assert colors == [Color.BLACK if b else Color.WHITE for b in black]


AVOID_CASES = [
    (StripColoring(1.0), Region(0.0, 0.0, 3.0, 3.0), 1.0, 1e-9),
    (ZebraColoring(ZIGZAG, UnitVector.from_angle(0.4)), Region(-1.0, 0.5, 2.0, 3.5), 0.9, 1e-3),
    (HalfPlaneColoring(UnitVector.from_angle(1.0), 0.2), Region(-1.5, -1.5, 1.5, 1.5), 1.0, 1e-9),
    (l_shape_coloring(), Region(-1.0, -1.0, 1.0, 1.0), 1.0, 1e-9),
    # strips scanned over one column, with rows on the boundaries y = 0 and
    # y = -4 sqrt(3)/2: examples span three columns and several angles
    (StripColoring(1.0, "lower-closed"), Region(-0.1, 0.0, 0.1, 0.15), 0.5, 1e-9),
    (StripColoring(), Region(-0.1, -4.0 * HALF_SQRT3, 0.1, -3.4), 1.0, 1e-9),
]


@pytest.mark.parametrize("coloring, region, side, tol", AVOID_CASES)
def test_avoidance_scan_matches_two_mask_loop(coloring, region, side, tol):
    grid = ScanGrid(region, 0.1, 12)
    spec = TriangleSpec(side, side, side)
    report = avoidance_scan(coloring, spec, grid, tol)
    assert report == two_mask_avoidance(coloring, spec, grid, tol)
    assert report.monochromatic_count + report.near_misses > 0


class FullLatticeStrip(StripColoring):
    """The strip, scanned over every lattice column as every other family is."""

    _YS_ONLY = False


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(["upper-closed", "lower-closed"]),
       side=st.sampled_from([0.3, 0.5, 1.0]),
       x0=st.floats(-2.0, 2.0),
       # rows on the boundaries, or anywhere
       y0=st.one_of(st.integers(-4, 4).map(lambda k: k * HALF_SQRT3), st.floats(-2.0, 2.0)),
       width=st.floats(0.0, 1.0), height=st.floats(0.0, 1.0),
       step=st.sampled_from([0.1, 0.25, HALF_SQRT3 / 2.0]),
       angles=st.integers(1, 12), min_margin=st.sampled_from([0.0, 0.05, 0.2]),
       block=st.sampled_from([1, 7, scan._SCAN_BLOCK]))
def test_strip_scans_of_one_column_are_the_full_lattice_scans(
        rule, side, x0, y0, width, height, step, angles, min_margin, block):
    """The column path's witness and report, repr for repr, are the full
    lattice path's; examples cut an angle short and span columns."""
    grid = ScanGrid(Region(x0, y0, x0 + width + 1e-3, y0 + height + 1e-3), step, angles)
    spec = TriangleSpec(side, side, side)
    strip, full = StripColoring(1.0, rule), FullLatticeStrip(1.0, rule)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scan, "_SCAN_BLOCK", block)
        assert repr(avoidance_scan(strip, spec, grid)) == repr(avoidance_scan(full, spec, grid))
        assert repr(find_monochromatic_copy(strip, spec, grid, min_margin)) == repr(
            find_monochromatic_copy(full, spec, grid, min_margin))


def brute_force_find(coloring, spec, grid, min_margin, tol=1e-9):
    """The find scan one pose and one point at a time, in (angle, x, y) order.

    Poses with a vertex that no seed reaches are skipped. Returns the
    witness, or None, and the number of monochromatic poses rejected for
    margin before it.
    """
    rejected = 0
    for angle in grid.angles():
        for x in grid.xs():
            for y in grid.ys():
                motion = RigidMotion(float(angle), (float(x), float(y)))
                verts = place_triangle(spec, motion)
                try:
                    colors = {coloring.color_at(v, tol) for v in verts}
                except UnresolvedFace:
                    continue
                if len(colors) > 1:
                    continue
                margin = min(scalar_distance(coloring, v) for v in verts)
                if margin >= min_margin:
                    return ScanWitness(motion, verts, colors.pop(), margin), rejected
                rejected += 1
    return None, rejected


FIND_CASES = [
    # exhausted: the strip and the zigzag twin avoid the unit triangle
    (StripColoring(), (1.0, 1.0, 1.0), Region(0.0, 0.0, 2.0, 2.0), 0.4, 6, 0.0, False),
    (ZebraColoring(ZIGZAG), (1.0, 1.0, 1.0), Region(0.0, 0.0, 1.5, 1.5), 0.3, 6, 0.0, False),
    (StripColoring(), (0.8, 0.8, 0.8), Region(0.0, 0.0, 1.0, 1.0), 0.1, 6, 0.02, False),
    (ZebraColoring(ZIGZAG), (0.6, 0.7, 0.8), Region(0.0, 0.0, 1.0, 1.0), 0.1, 12, 0.05, True),
    (HalfPlaneColoring(), (1.0, 1.0, 1.0), Region(0.0, 0.0, 1.0, 1.0), 0.1, 4, 0.0, False),
    (HalfPlaneColoring(), (1.0, 1.0, 1.0), Region(0.0, 0.0, 1.0, 1.0), 0.1, 4, 0.1, True),
    # every monochromatic pose is rejected for margin
    (HalfPlaneColoring(UnitVector.from_angle(2.0), 0.3, Color.WHITE), (1.0, 1.0, 1.0),
     Region(0.0, 0.0, 1.0, 1.0), 0.25, 4, 5.0, True),
    (l_shape_coloring(), (0.5, 0.6, 0.7), Region(-0.3, -0.3, 0.3, 0.3), 0.1, 8, 0.0, False),
    # the witness turns by pi/2, after the black poses near the corner are rejected
    (l_shape_coloring(), (0.5, 0.6, 0.7), Region(-0.3, -0.3, 0.15, 0.15), 0.05, 12, 0.16,
     True),
    (FAMILIES["convex"], (1.2, 1.2, 1.2), Region(-1.5, -1.5, 1.5, 1.5), 0.5, 6, 0.0, False),
    (FAMILIES["convex"], (1.5, 1.5, 1.5), Region(-1.0, -1.0, 1.0, 1.0), 0.25, 6, 0.3, True),
    # the scan passes angle pi/2, where no seed reaches the vertex (-1.866..., 0)
    (HEXAGON, (1.0, 1.0, 1.0), Region(-1.0, -1.0, 1.0, 1.0), 0.5, 12, 0.7, True),
    (HEXAGON, (1.0, 1.0, 1.0), Region(-1.0, -1.0, 1.0, 1.0), 0.5, 12, 0.8, True),
    # the first pose's vertices 1 and 2, then its vertex 3, lie on the x axis left of (-1.5, 0)
    (HEXAGON, (0.3, 0.3, 0.3), Region(-2.0, 0.0, -1.8, 0.2), 0.1, 1, 0.0, False),
    (HEXAGON, (0.3, 0.3, 0.3), Region(-1.85, -0.15 * SQRT3, -1.65, 0.2), 0.1, 1, 0.0, False),
    # black for x >= 0: 68 black poses rejected for margin, then the witness
    # at x = 0.25, past four margin batches of its block
    (HalfPlaneColoring(UnitVector(1.0, 0.0)), (1.0, 1.0, 1.0), Region(-0.25, 0.0, 0.5, 1.0),
     0.0625, 4, 0.25, True),
    # angles of more translations than a block: 6561 with a witness of margin
    # exactly min_margin after 82 rejections, and 21605 after 5
    (l_shape_coloring(), (1.0, 1.0, 1.0), Region(0.0, 0.0, 4.0, 4.0), 0.05, 16, 0.05, True),
    (ZebraColoring(ZIGZAG), (0.5, 0.5, 0.5), Region(0.03, 0.11, 3.0, 3.0), 0.02, 12, 0.1, True),
    # strips that do not avoid the triangle, scanned over one column, with
    # rows on the boundaries: a zero-margin witness, one past a rejection
    # at the boundary row, and an exhausted scan past 190 rejections
    (StripColoring(1.0, "lower-closed"), (0.5, 0.5, 0.5), Region(-0.1, 0.0, 0.1, 0.15), 0.1, 12,
     0.0, False),
    (StripColoring(1.0, "lower-closed"), (0.5, 0.5, 0.5), Region(-0.1, 0.0, 0.1, 0.15), 0.1, 12,
     0.05, True),
    (StripColoring(1.0, "lower-closed"), (0.5, 0.6, 0.7), Region(-0.2, -HALF_SQRT3, 0.2, 0.0),
     0.1, 12, 0.3, True),
    # the upper-closed strip's zero-margin "witness" (ROADMAP item 4)
    (StripColoring(), (1.0, 1.0, 1.0), Region(-1.0, -4.0 * HALF_SQRT3, 1.0, -0.2),
     HALF_SQRT3 / 2.0, 12, 0.0, False),
]


@pytest.mark.parametrize("coloring, sides, region, step, angles, min_margin, rejects", FIND_CASES)
def test_find_matches_brute_force(coloring, sides, region, step, angles, min_margin, rejects):
    spec, grid = TriangleSpec(*sides), ScanGrid(region, step, angles)
    want, rejected = brute_force_find(coloring, spec, grid, min_margin)
    assert find_monochromatic_copy(coloring, spec, grid, min_margin) == want
    assert (rejected > 0) == rejects


def whole_angle_block(grid, ramp, coloring):
    """A block size of c >= 2 whole angles of the translations a scan of
    ``coloring`` over ``grid`` classifies: its first column's alone for a
    coloring that reads ys alone, else all of them.

    c is the least for which the scan's last run of angles is shorter than
    the engine's cap on runs: with ``ramp`` (a find scan) runs of 1, 2, 4,
    ... angles up to 2c, else runs of c. An angle count that runs of 2 and
    of 3 both divide, such as 12 without ``ramp``, needs c > 3.
    """
    n = len(grid.ys()) * (1 if coloring._YS_ONLY else len(grid.xs()))
    for c in range(2, grid.angle_count + 2):
        cap = 2 * c if ramp else c
        run, left = (1 if ramp else c), grid.angle_count
        while left > run:
            left -= run
            run = min(2 * run, cap)
        if left < cap:
            return c * n


# "runs" stands for a block of a few whole angles of each case's grid, with a
# short last run. The plain tests above run at the default block size.
@pytest.mark.parametrize("block", [1, 7, "runs"])
class TestScanBlocks:
    """Scan results do not depend on the size of the engine's blocks: slices
    of one angle's translations (sizes 1 and 7) or runs of whole angles.

    A lattice of n translations is sliced when n exceeds the block, and
    then its vertex 0 is classified per slice; otherwise vertex 0 is
    classified once, on all n translations. Every case is sliced at sizes 1
    and 7 but the strip's one-column lattices of at most 7 translations,
    and none is at "runs"."""

    @staticmethod
    def assert_path(counting, grid, block, label, ramp):
        n = len(grid.ys()) * (1 if counting._YS_ONLY else len(grid.xs()))
        sliced = n > block
        assert sliced == (label != "runs" and not (counting._YS_ONLY and n <= label))
        first = (math.isqrt(block) if ramp else block) if sliced else n
        assert counting.points[0][0].size == first

    @pytest.mark.parametrize("coloring, sides, region, step, angles, min_margin, rejects",
                             FIND_CASES)
    def test_find(self, block, coloring, sides, region, step, angles, min_margin, rejects,
                  monkeypatch):
        spec, grid = TriangleSpec(*sides), ScanGrid(region, step, angles)
        label = block
        if block == "runs":
            block = whole_angle_block(grid, ramp=True, coloring=coloring)
        monkeypatch.setattr(scan, "_SCAN_BLOCK", block)
        want, _ = brute_force_find(coloring, spec, grid, min_margin)
        counting = CountingColoring(coloring)
        assert find_monochromatic_copy(counting, spec, grid, min_margin) == want
        self.assert_path(counting, grid, block, label, ramp=True)

    @pytest.mark.parametrize("coloring, region, side, tol", AVOID_CASES)
    def test_avoid(self, block, coloring, region, side, tol, monkeypatch):
        grid = ScanGrid(region, 0.1, 12)
        label = block
        if block == "runs":
            block = whole_angle_block(grid, ramp=False, coloring=coloring)
        monkeypatch.setattr(scan, "_SCAN_BLOCK", block)
        spec = TriangleSpec(side, side, side)
        counting = CountingColoring(coloring)
        assert avoidance_scan(counting, spec, grid, tol) == two_mask_avoidance(
            coloring, spec, grid, tol)
        self.assert_path(counting, grid, block, label, ramp=False)


def walk_avoidance(coloring, spec, grid, tol=1e-9, max_examples=8):
    """The avoidance scan one pose and one point at a time, with ``walk_color_at``."""
    mono_count = near_count = unresolved = 0
    mono_ex, near_ex = [], []
    for k, angle in enumerate(grid.angles()):
        for x in grid.xs():
            for y in grid.ys():
                verts = place_triangle(spec, RigidMotion(float(angle), (float(x), float(y))))
                colors = [walk_color_at(coloring, v, tol) for v in verts]
                if None in colors:
                    unresolved += 1
                    continue
                on = [any(piece_distance(pc, v) <= tol for pc in coloring.pieces) for v in verts]
                mono = colors[0] == colors[1] == colors[2]
                near = not mono and any(colors[i] == colors[j] and on[3 - i - j]
                                        for i, j in ((0, 1), (0, 2), (1, 2)))
                mono_count += mono
                near_count += near
                for hit, acc in ((mono, mono_ex), (near, near_ex)):
                    if hit and len(acc) < max_examples:
                        acc.append((k, float(x), float(y)))
    return AvoidanceReport(grid.placements(), mono_count, near_count,
                           tuple(mono_ex), tuple(near_ex), unresolved)


@pytest.mark.parametrize("block", [1, 7, "runs", scan._SCAN_BLOCK])
@pytest.mark.parametrize("side, grid", [
    (1.0, ScanGrid(Region(-1.0, -1.0, 1.0, 1.0), 0.5, 12)),
    # white placements with vertices on the x axis left of (-1.5, 0)
    (0.3, ScanGrid(Region(-2.2, -0.4, -1.6, 0.2), 0.05, 6)),
])
def test_avoidance_scan_counts_unresolved_placements(block, side, grid, monkeypatch):
    if block == "runs":
        block = whole_angle_block(grid, ramp=False, coloring=HEXAGON)
    monkeypatch.setattr(scan, "_SCAN_BLOCK", block)
    spec = TriangleSpec(side, side, side)
    report = avoidance_scan(HEXAGON, spec, grid)
    assert report == walk_avoidance(HEXAGON, spec, grid)
    assert report.unresolved > 0
    assert report.to_dict()["unresolved"] == report.unresolved
    assert "unresolved" not in avoidance_scan(l_shape_coloring(), spec, grid).to_dict()


class CountingColoring:
    """A coloring that records the black mask of every query the scan engine
    makes, the points of every ``resolve`` call and those of every
    ``distance`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.points = []
        self.distances = []

    def distance(self, xs, ys):
        self.distances.append((xs.copy(), ys.copy()))
        return self.inner.distance(xs, ys)

    def resolve(self, xs, ys, tol):
        black, on, unresolved = self.inner.resolve(xs, ys, tol)
        self.calls.append(black)
        self.points.append((xs.copy(), ys.copy()))
        return black, on, unresolved

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_find_gates_vertex_3_and_stops_in_the_witness_block():
    """Black for x >= 0; only translations with x >= 0.005 leave a margin of 0.005.

    Angle 0 holds more translations than a block, so its slices ramp from
    ``isqrt(_SCAN_BLOCK)`` poses, doubling up to ``_SCAN_BLOCK``."""
    block = scan._SCAN_BLOCK
    coloring = CountingColoring(HalfPlaneColoring(UnitVector(1.0, 0.0)))
    spec, grid = TriangleSpec(1.0, 1.0, 1.0), ScanGrid(Region(-1.0, 0.0, 1.0, 1.0), 0.01, 6)
    ny = len(grid.ys())
    assert len(grid.xs()) * ny > 3 * block
    witness = find_monochromatic_copy(coloring, spec, grid, 0.005)
    assert witness == brute_force_find(coloring.inner, spec, grid, 0.005)[0]
    assert witness.motion.angle == 0.0
    tx, ty = witness.motion.translation
    flat = int(np.argmin(np.abs(grid.xs() - tx))) * ny + int(np.argmin(np.abs(grid.ys() - ty)))
    sizes = [64, 128, 256, 512, 1024, 2048, block, block]
    assert (block, flat) == (4096, 10201)
    assert sum(sizes[:-1]) <= flat < sum(sizes)
    # vertices 1, 2 and 3 of the slices of angle 0 up to the witness's, and nothing after
    assert len(coloring.calls) == 3 * len(sizes)
    for s, size in enumerate(sizes):
        b1, b2, b3 = coloring.calls[3 * s:3 * s + 3]
        pairs = np.flatnonzero(b1 == b2)
        assert b1.size == b2.size == size and b3.size == pairs.size
        for v, at in enumerate((range(size), range(size), pairs)):
            assert_placed(spec, grid, sum(sizes[:s]), coloring.points[3 * s + v], v, at)


def test_find_takes_margins_in_doubling_batches():
    """Black for x >= 0. At angle 0 the 18 black poses at x = 0 and x = 0.125
    fall short of margin 0.25, and the witness is the 19th black pose: three
    ``distance`` calls, over 4, 8 and 16 candidates, not one per candidate."""
    coloring = CountingColoring(HalfPlaneColoring(UnitVector(1.0, 0.0)))
    spec, grid = TriangleSpec(1.0, 1.0, 1.0), ScanGrid(Region(-0.25, 0.0, 0.5, 1.0), 0.125, 4)
    witness = find_monochromatic_copy(coloring, spec, grid, 0.25)
    want, rejected = brute_force_find(coloring.inner, spec, grid, 0.25)
    assert witness == want and rejected == 18
    assert witness.motion.translation == (0.25, 0.0) and witness.margin == 0.25
    # the black poses are 18, 19, ... (x index 2 on, 9 translations per x)
    assert len(coloring.distances) == 3
    lo = 18
    for (xs, ys), size in zip(coloring.distances, (4, 8, 16)):
        assert xs.size == 3 * size
        for v in range(3):
            part = slice(v * size, (v + 1) * size)
            assert_placed(spec, grid, 0, (xs[part], ys[part]), v, range(lo, lo + size))
        lo += size


def assert_placed(spec, grid, first, points, v, at):
    """``points`` are vertex ``v`` of poses ``at`` of the block whose pose 0
    is pose ``first`` of the grid, bit for bit as :func:`place_triangle`
    gives them."""
    X, Y = (a.ravel() for a in np.meshgrid(grid.xs(), grid.ys(), indexing="ij"))
    n, angles = X.size, grid.angles()
    poses = [first + i for i in at]
    placed = [place_triangle(spec, RigidMotion(float(angles[g // n]),
                                               (float(X[g % n]), float(Y[g % n]))))[v]
              for g in poses]
    assert points[0].tobytes() == np.array([p.x for p in placed]).tobytes()
    assert points[1].tobytes() == np.array([p.y for p in placed]).tobytes()


def test_blocks_are_runs_of_whole_angles():
    """Black for y >= 0. Vertex 0 is classified once, on the lattice's n
    translations, and is the same point at every angle. Avoidance then runs
    ``_SCAN_BLOCK // n`` angles per block, with one call for vertices 1 and
    2; a find scan runs 1, 2, 4, ... angles per block, with one call for
    vertex 1 and one for vertex 2 where vertices 0 and 1 agree, and stops
    in its witness's."""
    assert_block_layout(0.0)


def test_find_runs_reach_twice_the_avoidance_runs():
    """The zigzag twin avoids the unit triangle over a 51 x 51 lattice, so
    both scans exhaust it. The find scan's runs of whole angles double up
    to ``2 * _SCAN_BLOCK // n`` = 3 angles, one vertex a call; avoidance
    runs ``_SCAN_BLOCK // n`` = 1 angle, two vertices a call. No ``resolve``
    call sees more than ``2 * _SCAN_BLOCK`` points."""
    twin = ZebraColoring(ZIGZAG, UnitVector.from_angle(0.3), "even-black", "even-black")
    spec, grid = TriangleSpec(1.0, 1.0, 1.0), ScanGrid(Region(0.0, 0.0, 3.0, 3.0), 0.06, 12)
    n = len(grid.xs()) * len(grid.ys())
    assert (n, scan._SCAN_BLOCK // n, 2 * scan._SCAN_BLOCK // n) == (2601, 1, 3)
    counting = CountingColoring(twin)
    assert find_monochromatic_copy(counting, spec, grid) is None
    sizes = [xs.size for xs, _ in counting.points]
    # vertex 0 once, then per block vertex 1 over the run and vertex 2 where 0 and 1 agree
    assert sizes[0] == n and sizes[1::2] == [a * n for a in (1, 2, 3, 3, 3)]
    counting = CountingColoring(twin)
    assert avoidance_scan(counting, spec, grid).monochromatic_count == 0
    assert [xs.size for xs, _ in counting.points] == [n] + [2 * n] * 12


def test_block_layout_at_a_negative_zero_corner():
    """The same layout where the region's corner is -0.0: vertex 0 is still
    its translation, bit for bit, at every angle."""
    assert_block_layout(-0.0)


def assert_block_layout(corner):
    spec = TriangleSpec(1.0, 1.0, 1.0)
    coloring = CountingColoring(HalfPlaneColoring(UnitVector(0.0, 1.0)))
    grid = ScanGrid(Region(corner, corner, 1.0, 1.0), 0.1, 70)
    n = len(grid.xs()) * len(grid.ys())
    assert (n, scan._SCAN_BLOCK // n) == (121, 33)
    # a lattice value x0 + i * step is never -0.0, so +-0.0 offsets keep it
    assert math.copysign(1.0, grid.xs()[0]) == math.copysign(1.0, grid.ys()[0]) == 1.0
    avoidance_scan(coloring, spec, grid)
    runs = [(0, 33), (33, 33), (66, 4)]
    assert [xs.size for xs, _ in coloring.points] == [n] + [2 * a * n for _, a in runs]
    for k in range(grid.angle_count):
        assert_placed(spec, grid, k * n, coloring.points[0], 0, range(n))
    for (k0, a), (xs, ys) in zip(runs, coloring.points[1:]):
        for v in (1, 2):
            part = slice((v - 1) * a * n, v * a * n)
            assert_placed(spec, grid, k0 * n, (xs[part], ys[part]), v, range(a * n))

    # the first pose all white with margin turns by 5 pi/6, in the block of angles 3 to 6
    coloring = CountingColoring(coloring.inner)
    grid = ScanGrid(Region(corner, -0.625, 0.25, -0.375), 0.125, 12)
    n = len(grid.xs()) * len(grid.ys())
    witness = find_monochromatic_copy(coloring, spec, grid, 0.05)
    assert witness == brute_force_find(coloring.inner, spec, grid, 0.05)[0]
    assert witness.motion.angle == grid.angles()[5]
    runs = [(0, 1), (1, 2), (3, 4)]
    assert len(coloring.points) == 1 + 2 * len(runs)
    b1 = coloring.calls[0]
    assert b1.size == n
    for k in range(grid.angle_count):
        assert_placed(spec, grid, k * n, coloring.points[0], 0, range(n))
    for block, (k0, a) in enumerate(runs):
        b2, b3 = coloring.calls[1 + 2 * block:3 + 2 * block]
        pairs = np.flatnonzero(np.tile(b1, a) == b2)
        assert b2.size == a * n and b3.size == pairs.size
        for v, at in ((1, range(a * n)), (2, pairs)):
            assert_placed(spec, grid, k0 * n, coloring.points[2 * block + v], v, at)


def square_island(*seeds) -> PolygonalColoring:
    """The black unit square [0, 1]^2 with black boundary, and the given seeds."""
    corners = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
    pieces = tuple(BoundaryPiece(Segment(corners[k], corners[(k + 1) % 4]), Color.BLACK)
                   for k in range(4))
    return PolygonalColoring(pieces, seeds, Region(-4.0, -4.0, 4.0, 4.0))


def refused_seeds(pieces, seeds, window) -> PolygonalColoring:
    """A coloring whose seeds disagree: the constructor refuses it, naming
    ``seeds``, and the kernel tests below still check ``resolve`` against
    the walk on it, built without that check."""
    with pytest.raises(InvalidArgument, match="^seeds "):
        PolygonalColoring(pieces, seeds, window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PolygonalColoring, "_check_seeds", lambda self: None)
        return PolygonalColoring(pieces, seeds, window)


POLYGONAL = {
    "convex": [convex_face(np.random.default_rng(100 + k)) for k in range(16)],
    # every seed's sight line from the diagonal y = x passes through a corner
    "square-1-seed": [square_island((Point(0.5, 0.5), Color.BLACK))],
    "square-2-seed": [square_island((Point(0.5, 0.5), Color.BLACK),
                                    (Point(2.5, 2.5), Color.WHITE))],
    "halfplane": [PolygonalColoring(
        (BoundaryPiece(Segment(Point(8.0, 0.0), Point(-8.0, 0.0)), Color.BLACK,
                       ray_start=True, ray_end=True),),
        ((Point(0.0, 1.0), Color.BLACK), (Point(0.0, -1.0), Color.WHITE)),
        Region(-8.0, -8.0, 8.0, 8.0))],
    "l-shape": [l_shape_coloring()],
    "all-black": [all_black_coloring()],
    # at tol = 1e-3 the seed lies within tol of the top piece: sight lines
    # crossing that piece graze, those along it are parallel and touching,
    # and points next to the seed need the short-segment rule
    "square-near-seed": [square_island((Point(0.5, 1.0 - 8e-4), Color.BLACK))],
    # past the ends of a lone piece, sight lines along it touch it only
    # through a seed within tol of it
    "slit-near-seed": [PolygonalColoring(
        (BoundaryPiece(Segment(Point(0.0, 0.0), Point(1.0, 0.0)), Color.WHITE),),
        ((Point(0.5, 8e-4), Color.BLACK),), Region(-4.0, -4.0, 4.0, 4.0))],
    # seeds that disagree make the color depend on the seed order, ties included
    "inconsistent-seeds": [refused_seeds(
        (BoundaryPiece(Segment(Point(8.0, 0.0), Point(-8.0, 0.0)), Color.BLACK,
                       ray_start=True, ray_end=True),),
        ((Point(-1.0, 1.0), Color.BLACK), (Point(1.0, 1.0), Color.WHITE)),
        Region(-8.0, -8.0, 8.0, 8.0))],
    # seeds of opposite colors whose clear disks overlap: a point in both
    # disks takes its nearest seed's color, not that of any seed whose disk holds it
    "overlapping-disks": [refused_seeds(
        (BoundaryPiece(Segment(Point(8.0, 0.0), Point(-8.0, 0.0)), Color.BLACK,
                       ray_start=True, ray_end=True),),
        ((Point(-0.5, 2.0), Color.BLACK), (Point(0.5, 2.0), Color.WHITE)),
        Region(-8.0, -8.0, 8.0, 8.0))],
}

class TestSeedDistances:
    """``PolygonTables.seed_dist`` is the scalar distance matrix bit for bit."""

    @pytest.mark.parametrize("name", sorted(POLYGONAL))
    def test_table_is_the_scalar_matrix(self, name):
        colorings_ = POLYGONAL[name]
        if name == "convex":
            colorings_ = colorings_ + [convex_face(np.random.default_rng(300 + k))
                                       for k in range(48)]
        for pc in colorings_:
            want = [[float.hex(piece_distance(piece, p)) for p, _ in pc.seeds]
                    for piece in pc.pieces]
            got = pc.tables.seed_dist
            assert got.shape == (len(pc.pieces), len(pc.seeds))
            assert [[float.hex(d) for d in row] for row in got.tolist()] == want

    def test_first_seed_on_the_boundary_is_named(self):
        # seed 1 lies 5e-10 from the unbounded part of the L-shape's x ray,
        # seed 2 on its y ray; seed 0 lies 2e-9 below the x ray
        pieces, window = l_shape_coloring().pieces, Region(-4.0, -4.0, 4.0, 4.0)
        seeds = ((Point(2.5, -2e-9), Color.WHITE), (Point(40.0, 5e-10), Color.BLACK),
                 (Point(0.0, 3.0), Color.BLACK))
        with pytest.raises(GeometryError, match="^seed 1 lies on the boundary$"):
            PolygonalColoring(pieces, seeds, window)
        with pytest.raises(GeometryError, match="^seed 0 lies on the boundary$"):
            PolygonalColoring(pieces, seeds[2:] + seeds[:1], window)
        nearest = PolygonalColoring(pieces, seeds[:1], window).tables.seed_dist.min()
        assert nearest == pytest.approx(2e-9)


NON_FINITE = (np.array([math.nan, math.inf, -math.inf, 0.5, math.nan, math.inf, 0.5, -math.inf]),
              np.array([0.5, 0.5, 0.5, math.nan, math.nan, math.inf, -math.inf, math.inf]))


def polygonal_points(pc: PolygonalColoring, rng, tol):
    """Points that exercise every branch of the walk.

    Random points; points on each piece (endpoints included, and past the
    ends of rays) and at +-0.5 tol and +-2 tol from it along its normal;
    points on the sight lines from each seed through each piece endpoint,
    before and past the endpoint, and on the lines through each seed along
    each piece; points at and next to each seed; points equidistant
    from two seeds; points at 1e-12 to 1e-2 from each vertex; and points
    of the cell table's grid (``CellTable``): on cell edges and corners, as
    the floats x0 + i hx give them, and a few ulps either side.
    """
    xs, ys = [rng.uniform(-4.0, 4.0, 150)], [rng.uniform(-4.0, 4.0, 150)]
    ends = []
    for piece in pc.pieces:
        a, b = piece.seg.p, piece.seg.q
        ex, ey = b.x - a.x, b.y - a.y
        nx, ny = -ey / math.hypot(ex, ey), ex / math.hypot(ex, ey)
        u = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 6),
                            [-0.5] if piece.ray_start else [], [1.5] if piece.ray_end else []))
        for off in (0.0, 0.5 * tol, -0.5 * tol, 2.0 * tol, -2.0 * tol):
            xs.append(a.x + u * ex + off * nx)
            ys.append(a.y + u * ey + off * ny)
        ends += [a, b]
    for seed, _ in pc.seeds:
        for e in ends:
            f = np.concatenate((rng.uniform(0.1, 0.9, 2), rng.uniform(1.1, 3.0, 3)))
            xs.append(seed.x + f * (e.x - seed.x))
            ys.append(seed.y + f * (e.y - seed.y))
        for piece in pc.pieces:
            f = rng.uniform(-2.0, 2.0, 3)
            xs.append(seed.x + f * (piece.seg.q.x - piece.seg.p.x))
            ys.append(seed.y + f * (piece.seg.q.y - piece.seg.p.y))
        xs.append(seed.x + np.array([0.0, 0.5, -0.5, 0.0, 0.0, -2.0, 0.0]) * tol)
        ys.append(seed.y + np.array([0.0, 0.0, 0.0, 0.5, -0.5, 0.5, 2.0]) * tol)
    for (s1, _), (s2, _) in zip(pc.seeds, pc.seeds[1:]):
        f = rng.uniform(-2.0, 2.0, 4)
        xs.append(0.5 * (s1.x + s2.x) - f * (s2.y - s1.y))
        ys.append(0.5 * (s1.y + s2.y) + f * (s2.x - s1.x))
    for vx, vy in zip(pc.tables.pieces.vx.tolist(), pc.tables.pieces.vy.tolist()):
        r = 10.0 ** rng.uniform(-12.0, -2.0, 8)
        theta = rng.uniform(0.0, 2.0 * math.pi, 8)
        xs.append(vx + r * np.cos(theta))
        ys.append(vy + r * np.sin(theta))
    cells = pc.cells
    if cells is not None:
        ex = cells.x0 + rng.integers(0, cells.n + 1, 12) * cells.hx
        ey = cells.y0 + rng.integers(0, cells.n + 1, 12) * cells.hy
        for nudge in (0.0, 3.0, -3.0):
            xs += [ex + nudge * np.spacing(ex), ex, rng.uniform(-4.0, 4.0, 12)]
            ys += [ey, ey + nudge * np.spacing(ey), ey]
    return np.concatenate(xs), np.concatenate(ys)


class RawPoint(NamedTuple):
    """A point for the walk that, unlike ``Point``, may be NaN or infinite."""
    x: float
    y: float


def assert_resolve_matches_walk(pc, xs, ys, tol):
    black, on, unresolved = pc.resolve(xs, ys, tol)
    points = [RawPoint(float(x), float(y)) for x, y in zip(xs, ys)]
    want = [walk_color_at(pc, p, tol) for p in points]
    assert unresolved.tolist() == [w is None for w in want]
    assert black.tolist() == [w is Color.BLACK for w in want]
    near = [any(piece_distance(pc_, p) <= tol for pc_ in pc.pieces) for p in points]
    assert on.tolist() == near
    return unresolved


class TestPolygonalKernel:
    @pytest.mark.parametrize("name", sorted(POLYGONAL))
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
    def test_resolve_matches_walk(self, name, tol):
        rng = np.random.default_rng(21)
        unresolved = 0
        for pc in POLYGONAL[name]:
            xs, ys = polygonal_points(pc, rng, tol)
            unresolved += int(assert_resolve_matches_walk(pc, xs, ys, tol).sum())
            # non-finite points among finite ones are unresolved, without a warning
            mixed = assert_resolve_matches_walk(pc, np.concatenate((NON_FINITE[0], xs[:40])),
                                                np.concatenate((NON_FINITE[1], ys[:40])), tol)
            assert mixed[:NON_FINITE[0].size].all()
        if name == "square-1-seed":
            assert unresolved > 0

    def test_clear_points_skip_the_walk(self, monkeypatch):
        """Points inside a convex face, in cells of the cell table that no
        piece comes near, never reach ``_crossing_parity``; nor do points in
        cells with pieces, off the boundary. A point outside the window takes
        the walk."""
        calls = []
        crossing_parity = PolygonalColoring._crossing_parity

        def counted(self, px, *args):
            calls.append(px.size)
            return crossing_parity(self, px, *args)

        monkeypatch.setattr(PolygonalColoring, "_crossing_parity", counted)
        rng = np.random.default_rng(23)
        for pc in POLYGONAL["convex"]:
            (seed, _), clear = pc.seeds[0], float(pc.tables.seed_dist[:, 0].min())
            r = 0.5 * clear * np.sqrt(rng.uniform(0.0, 1.0, 64))
            theta = rng.uniform(0.0, 2.0 * math.pi, 64)
            xs, ys = seed.x + r * np.cos(theta), seed.y + r * np.sin(theta)
            assert (pc.cells.codes(xs, ys) < 0).all()  # cells without pieces
            # and points 1e-3 to 1e-1 from the boundary, inside and out
            piece = pc.tables.pieces
            u, off = rng.uniform(0.1, 0.9, 64), 10.0 ** rng.uniform(-3.0, -1.0, 64)
            k = rng.integers(0, len(piece), 64)
            length = np.hypot(piece.ex[k], piece.ey[k])
            side = np.where(rng.uniform(size=64) < 0.5, 1.0, -1.0) * off / length
            near_x = piece.ax[k] + u * piece.ex[k] - side * piece.ey[k]
            near_y = piece.ay[k] + u * piece.ey[k] + side * piece.ex[k]
            assert (pc.cells.codes(near_x, near_y) >= 0).any()
            assert_resolve_matches_walk(pc, np.concatenate((xs, near_x)),
                                        np.concatenate((ys, near_y)), 1e-9)
            assert calls == []
            pc.resolve(np.array([pc.window.x1 + 1.0]), np.array([seed.y]), 1e-9)
            assert calls == [1]
            calls.clear()

    def test_resolve_across_blocks(self):
        block = colorings._RESOLVE_BLOCK
        pc = POLYGONAL["square-1-seed"][0]
        rng = np.random.default_rng(22)
        xs, ys = rng.uniform(-2.0, 3.0, (2, 2 * block + 37))
        ends = [block - 1, block, 2 * block + 36]
        xs[ends] = ys[ends] = -rng.uniform(0.1, 1.0, len(ends))
        unresolved = assert_resolve_matches_walk(pc, xs, ys, 1e-9)
        assert unresolved[ends].all()

    def test_unresolved_points_raise_with_the_walk_message(self, monkeypatch):
        """``color_at``, ``_common_color`` and the almost-unit search's circle
        pass all raise at the first point that no seed reaches."""
        pc = POLYGONAL["square-1-seed"][0]
        points = (Point(2.0, 0.3), Point(-0.5, -0.5), Point(-0.25, -0.25))
        assert walk_color_at(pc, points[1], 1e-9) is None
        message = re.escape("no seed reaches (-0.5, -0.5) unambiguously")
        with pytest.raises(UnresolvedFace, match=message):
            pc.color_at(points[1])
        with pytest.raises(UnresolvedFace, match=message):
            scan._common_color(pc, points, 1e-9)
        # at tol = 1e-3 the first unit circle of this search, about the white
        # point below the bottom piece's midpoint, crosses the wedge of
        # ambiguous sight lines behind a corner from the seed (0.3, 0.3)
        pc = square_island((Point(0.3, 0.3), Color.BLACK))
        queries, resolved_black = [], scan._resolved_black

        def spy(coloring, xs, ys, tol):
            queries.append((xs, ys))
            return resolved_black(coloring, xs, ys, tol)

        monkeypatch.setattr(scan, "_resolved_black", spy)
        with pytest.raises(UnresolvedFace) as raised:
            scan.find_almost_unit(pc, 0.1, 10 ** 4, seed=2, tol=1e-3)
        xs, ys = queries[-1]
        assert len(xs) == 252  # the circle's ceil(2 pi / (0.1 / 4)) samples
        j = int(pc.resolve(xs, ys, 1e-3)[2].argmax())
        first = Point(float(xs[j]), float(ys[j]))
        assert walk_color_at(pc, first, 1e-3) is None
        assert str(raised.value) == f"no seed reaches ({first.x}, {first.y}) unambiguously"

    def test_almost_unit_pair_on_a_face_black_on_the_inner_square(self, monkeypatch):
        """The 8th ``convex_face`` of rng 3 is black on all of [-1, 1]^2; the
        pair comes from its boundary, and no phase-3 try is needed."""
        rng = np.random.default_rng(3)
        face = [convex_face(rng) for _ in range(8)][-1]
        xs, ys = np.meshgrid(np.linspace(-1.0, 1.0, 41), np.linspace(-1.0, 1.0, 41))
        assert colorings._resolved_black(face, xs.ravel(), ys.ravel(), 1e-9).all()
        monkeypatch.setattr(scan, "_common_color", None)  # phase 3 would call it
        pair = scan.find_almost_unit(face, 0.1, 10 ** 5, seed=0)
        for tri, black in ((pair.black_triangle, True), (pair.white_triangle, False)):
            assert all(0.9 <= distance(tri[k], tri[k - 1]) <= 1.1 for k in range(3))
            assert (colorings._resolved_black(face, np.array([v.x for v in tri]),
                                              np.array([v.y for v in tri]), 1e-9) == black).all()
            assert all(abs(v.x) <= 3.0 and abs(v.y) <= 3.0 for v in tri)

    def test_tables_are_built_once_and_read_only(self):
        pc = l_shape_coloring()
        assert pc.tables is pc.tables
        with pytest.raises(ValueError):
            pc.tables.ax[0] = 1.0


ZEBRA_MERGES = {
    # every interior joint of a flat profile is collinear
    "flat": ZebraProfile(((0.0, 0.0), (1.0, 0.0))),
    # the last piece continues the first across u = 0
    "collinear-wrap": ZebraProfile(((0.0, 0.0), (0.4, 0.2), (0.8, -0.1), (1.0, 0.0))),
    "zigzag": ZIGZAG,
    "near-cap": ZebraProfile(((0.0, 0.0), (0.5, HALF_SQRT3 - 2e-9), (1.0, 0.0))),
}
# a last piece 1.1e-9 wide, near the least step in u that a profile accepts,
# up to u = 1.0 exactly: ends off 0 and 1 made each curve jump at every integer u
WIDE_PROFILE = ZebraProfile(((0.0, 0.0), (0.5, 0.2), (1.0 - 1.1e-9, 1e-10), (1.0, 0.0)))


def piece_bits(table: PieceTable) -> list[tuple]:
    """Each piece's end coordinates as exact hex strings, color, ray flags and
    vertex ids, then each vertex's coordinates."""
    columns = (table.ax, table.ay, table.bx, table.by, table.black, table.ray_start,
               table.ray_end, table.v0, table.v1)
    return ([(tuple(map(float.hex, row[:4])), *row[4:])
             for row in zip(*(c.tolist() for c in columns))]
            + [tuple(map(float.hex, v)) for v in zip(table.vx.tolist(), table.vy.tolist())])


def random_window(rng, scale: float) -> Region:
    x0, y0 = rng.uniform(-scale, scale, 2)
    w, h = rng.uniform(0.05, 6.0, 2)
    return Region(float(x0), float(y0), float(x0 + w), float(y0 + h))


def distance_rows(zc: ZebraColoring, rng, scale: float, n=24):
    """Curve indices i and centres c of rows c - 1.5 .. c + 1.5 with an edge,
    c - 1.5 + 1e-12 or c + 1.5 - 1e-12, within 1e-12 of an integer or of a
    breakpoint, at parameters up to ``scale``."""
    targets = np.array([0.0] + [u for u, _ in zc.profile.vertices[:-1]])
    edge = (rng.choice(targets, n) + rng.integers(-3, 4, n)
            + np.round(rng.uniform(-scale, scale, n)))
    edge = edge + rng.choice([0.0, 1.0], n) * rng.uniform(-1e-12, 1e-12, n)
    c = np.where(rng.uniform(size=n) < 0.5, edge - 1e-12 + 1.5, edge + 1e-12 - 1.5)
    return rng.integers(-4, 5, n).astype(float), c


def assert_rows_match(zc: ZebraColoring, i, lo, hi, P, kept):
    """Each row's kept points are ``per_point_polyline`` of its curve and range."""
    for r in range(len(i)):
        want = per_point_polyline(zc, int(i[r]), float(lo[r]), float(hi[r]))
        assert P[0, r, kept[r]].tolist() == [p.x for p in want]
        assert P[1, r, kept[r]].tolist() == [p.y for p in want]


class TestBoundarySegments:
    """``ZebraColoring.boundary_segments`` equals the per-point oracle bit for bit."""

    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 5.0, 1e4]))
    @settings(max_examples=60, deadline=None)
    def test_random_profiles_and_windows(self, zc, seed, scale):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            window = random_window(rng, scale)
            assert piece_bits(zc.boundary_segments(window)) == \
                piece_bits(per_point_boundary_segments(zc, window))

    @pytest.mark.parametrize("name", sorted(ZEBRA_MERGES))
    def test_merged_joints(self, name):
        rng = np.random.default_rng(35)
        for _ in range(8):
            zc = ZebraColoring(ZEBRA_MERGES[name], UnitVector.from_angle(rng.uniform(0.0, 6.3)))
            for scale in (0.0, 8.0):
                window = random_window(rng, scale)
                got = zc.boundary_segments(window)
                assert got and piece_bits(got) == piece_bits(per_point_boundary_segments(zc, window))

    @pytest.mark.parametrize("name", sorted(ZEBRA_MERGES) + ["wide"])
    def test_kept_points_are_the_merged_polyline(self, name):
        # render fills its bands from the kept points of the window rows, and
        # distance measures the rows c - 1.5 .. c + 1.5
        profile = WIDE_PROFILE if name == "wide" else ZEBRA_MERGES[name]
        rng = np.random.default_rng(38)
        for _ in range(8):
            zc = ZebraColoring(profile, UnitVector.from_angle(rng.uniform(0.0, 6.3)))
            window = random_window(rng, 8.0)
            curves, P, kept, _ = zc._window_polylines(window)
            s, _ = zc.to_frame(np.array([window.x0, window.x0, window.x1, window.x1]),
                               np.array([window.y0, window.y1, window.y0, window.y1]))
            i = np.array(curves, dtype=float)
            assert_rows_match(zc, i, float(s.min()) - 0.5 * i - 1.0,
                              float(s.max()) - 0.5 * i + 1.0, P, kept)
            for scale in (0.0, 1e4, 1e7):
                i, c = distance_rows(zc, rng, scale)
                for r in range(len(i)):  # alone, as a one-point distance call may build it
                    lo, hi = c[r:r + 1] - 1.5, c[r:r + 1] + 1.5
                    P, kept, _ = zc._polylines(i[r:r + 1, None], lo[:, None], hi[:, None])
                    assert_rows_match(zc, i[r:r + 1], lo, hi, P, kept)

    def test_axis_aligned_flat_profile_merges_every_joint(self):
        zc = ZebraColoring(ZEBRA_MERGES["flat"])
        window = Region(-1.5, -1.0, 2.5, 2.0)
        got = zc.boundary_segments(window)
        # curves 0, 1, 2 and -1 cross the window, each as one full-width piece
        assert np.abs(got.ex).tolist() == [4.0] * 4
        assert piece_bits(got) == piece_bits(per_point_boundary_segments(zc, window))

    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_far_windows(self, zc, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            window = random_window(rng, 1e8)
            assert piece_bits(zc.boundary_segments(window)) == \
                piece_bits(per_point_boundary_segments(zc, window))

    @pytest.mark.parametrize("name", sorted(ZEBRA_MERGES))
    def test_edge_through_a_breakpoint(self, name):
        rng = np.random.default_rng(36)
        for angle in (0.0, math.pi / 2, 1.1):
            zc = ZebraColoring(ZEBRA_MERGES[name], UnitVector.from_angle(angle))
            for u, _ in zc.profile.vertices:
                p = zc.curve_point(int(rng.integers(-3, 4)), u + int(rng.integers(-2, 3)))
                w, h = rng.uniform(0.3, 3.0, 2)
                for window in (Region(p.x, p.y - h, p.x + w, p.y + h),
                               Region(p.x - w, p.y - h, p.x, p.y + h),
                               Region(p.x - w, p.y, p.x + w, p.y + h),
                               Region(p.x - w, p.y - h, p.x + w, p.y)):
                    got = zc.boundary_segments(window)
                    assert got and piece_bits(got) == \
                        piece_bits(per_point_boundary_segments(zc, window))

    def test_window_between_curves(self):
        for name in ("flat", "zigzag"):
            zc = ZebraColoring(ZEBRA_MERGES[name])
            window = Region(-3.0, 0.2, 4.0, 0.7)  # above L_0, below L_1
            assert len(zc.boundary_segments(window)) == 0
            assert len(per_point_boundary_segments(zc, window)) == 0


class TestHalfPlaneSegments:
    """``HalfPlaneColoring.boundary_segments`` equals the scalar clip bit for bit."""

    @staticmethod
    def assert_matches(hp: HalfPlaneColoring, window: Region) -> PieceTable:
        got = hp.boundary_segments(window)
        assert piece_bits(got) == piece_bits(scalar_halfplane_segments(hp, window))
        return got

    def test_random_lines_and_windows(self):
        rng = np.random.default_rng(41)
        kept = 0
        for k in range(400):
            hp = HalfPlaneColoring(UnitVector.from_angle(rng.uniform(0.0, 2.0 * math.pi)),
                                   float(rng.uniform(-6.0, 6.0)),
                                   Color.BLACK if k % 2 else Color.WHITE)
            kept += len(self.assert_matches(hp, random_window(rng, 4.0)))
        # the line misses some windows and crosses others
        assert 50 < kept < 350

    def test_lines_through_a_window_corner(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            window = random_window(rng, 4.0)
            for x, y in ((window.x0, window.y0), (window.x1, window.y0),
                         (window.x0, window.y1), (window.x1, window.y1)):
                for angle in (rng.uniform(0.0, 2.0 * math.pi), math.pi / 4, 3 * math.pi / 4):
                    n = UnitVector.from_angle(angle)
                    self.assert_matches(HalfPlaneColoring(n, x * n.dx + y * n.dy), window)
                # axis-aligned lines along the window's edges and through its corner
                for n, offset in ((UnitVector(1.0, 0.0), x), (UnitVector(-1.0, 0.0), -x),
                                  (UnitVector(0.0, 1.0), y), (UnitVector(0.0, -1.0), -y)):
                    for color in Color:
                        assert self.assert_matches(HalfPlaneColoring(n, offset, color), window)

    def test_far_windows(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            hp = HalfPlaneColoring(UnitVector.from_angle(rng.uniform(0.0, 2.0 * math.pi)),
                                   float(rng.uniform(-1e8, 1e8)))
            self.assert_matches(hp, random_window(rng, 1e8))


class TestWindowSize:
    """Windows whose boundary would hold more than ``_MAX_WINDOW_POINTS``
    polyline points raise ``WindowTooLarge`` before anything is built; the
    counts are checked against small windows only."""

    @staticmethod
    def zebra_points(zc: ZebraColoring, window: Region) -> int:
        """The points ``render`` and ``boundary_segments`` build for ``window``."""
        return zc._window_polylines(window)[2].size

    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zebra_bound_covers_the_points_built(self, zc, seed):
        rng = np.random.default_rng(seed)
        window = random_window(rng, float(rng.choice([0.0, 1e4, 1e8])))
        built = self.zebra_points(zc, window)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(colorings, "_MAX_WINDOW_POINTS", built - 1)
            with pytest.raises(colorings.WindowTooLarge):
                zc.boundary_segments(window)
            with pytest.raises(colorings.WindowTooLarge):
                render_svg(RenderSpec(zc, window))

    def test_default_probe_windows_hold_a_few_hundred_points(self, monkeypatch):
        monkeypatch.setattr(colorings, "_MAX_WINDOW_POINTS", 600)
        rng = np.random.default_rng(37)
        for angle in rng.uniform(0.0, 2 * math.pi, 20):
            zc = ZebraColoring(ZIGZAG, UnitVector.from_angle(float(angle)))
            window = scan.default_probe_window(zc.curve_point(int(rng.integers(-3, 4)), 0.3))
            assert 150 <= self.zebra_points(zc, window) <= 600
            assert zc.boundary_segments(window)
        strip = StripColoring()
        assert len(strip.boundary_segments(scan.default_probe_window(Point(0.0, 0.0)))) == 7
        monkeypatch.setattr(colorings, "_MAX_WINDOW_POINTS", 2 * 7 - 1)
        with pytest.raises(colorings.WindowTooLarge):
            strip.boundary_segments(scan.default_probe_window(Point(0.0, 0.0)))

    @pytest.mark.parametrize("coloring", [StripColoring(), ZebraColoring(ZIGZAG),
                                          ZebraColoring(ZIGZAG, UnitVector.from_angle(0.7))],
                             ids=["strip", "zigzag", "zigzag-turned"])
    @pytest.mark.parametrize("window", [Region(-1e300, -1e300, 1e300, 1e300),
                                        Region(-1.7e308, -1.7e308, 1.7e308, 1.7e308),
                                        Region(0.0, 0.0, 1e3, 1e6)],
                             ids=["1e300", "1.7e308", "1e6"])
    def test_huge_windows_raise(self, coloring, window):
        with pytest.raises(colorings.WindowTooLarge, match="more than 1048576"):
            coloring.boundary_segments(window)
        with pytest.raises(colorings.WindowTooLarge):
            render_svg(RenderSpec(coloring, window))


class TestProbesEndToEnd:
    """Hexagon probes and angle audits are unchanged when the boundary comes
    from the per-point oracle."""

    def test_random_zebras(self, monkeypatch):
        rng = np.random.default_rng(38)
        probes, audits = [], []
        for _ in range(40):
            n = int(rng.integers(2, 6))
            us = [0.0] + sorted(rng.uniform(0.05, 0.95, n - 2).tolist()) + [1.0]
            hs = rng.uniform(0.0, float(rng.choice([0.1, 0.4, 0.8])), n - 1).tolist()
            try:
                zc = ZebraColoring(ZebraProfile(tuple(zip(us, hs + hs[:1]))),
                                   UnitVector.from_angle(float(rng.uniform(0.0, 2 * math.pi))),
                                   boundary_parity=str(rng.choice(["even-black", "even-white"])))
            except MalformedProfile:
                continue
            A = zc.curve_point(int(rng.integers(-3, 4)), float(rng.uniform(0.0, 1.0)))
            probes.append((zc, A))
            audits.append(zc)

        def results():
            return ([scan.hexagon_probe(zc, A).to_dict() for zc, A in probes],
                    [[e.to_dict() for e in scan.boundary_angle_audit(zc)] for zc in audits])

        fast = results()
        monkeypatch.setattr(ZebraColoring, "boundary_segments", per_point_boundary_segments)
        assert len(probes) >= 30
        assert results() == fast
        assert any(doc["regular"] for doc in fast[0]) and any(fast[1])


def window_end_points(zc: ZebraColoring, rng, scale: float, n=40):
    """Points whose curve window ends lie 1e-12 to 1e-11 from a breakpoint,
    at frame heights up to ``scale``."""
    breaks = np.array([u for u, _ in zc.profile.vertices[:-1]])
    i = rng.integers(-3, 4, n) + np.round(rng.uniform(-scale, scale, n) / HALF_SQRT3)
    u = rng.choice(breaks, n) + rng.integers(-3, 4, n)
    off = rng.choice([-1.0, 1.0], n) * rng.uniform(1e-12, 1e-11, n)
    s = u + off + 0.5 * i + rng.choice([-1.5, 1.5], n)
    t = i * HALF_SQRT3 + rng.uniform(0.0, HALF_SQRT3, n)
    xh = zc.x_hat
    return s * xh.dx - t * xh.dy, s * xh.dy + t * xh.dx


def wedge_coloring(rng) -> PolygonalColoring:
    """An L-shape turned and opened: two rays from a corner in [-2, 2]^2, at
    an opening of 0.4 to pi - 0.4 between them, black inside, with one seed
    on each side along the bisector."""
    corner = rng.uniform(-2.0, 2.0, 2)
    turn, opening = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.4, math.pi - 0.4)
    d1, d2, mid = (np.array([math.cos(a), math.sin(a)])
                   for a in (turn, turn + opening, turn + opening / 2))
    p = [Point(*(float(v) for v in c)) for c in (corner + 4.0 * d1, corner, corner + 4.0 * d2)]
    color = [Color.BLACK if rng.uniform() < 0.5 else Color.WHITE for _ in range(2)]
    pieces = (BoundaryPiece(Segment(p[0], p[1]), color[0], ray_start=True),
              BoundaryPiece(Segment(p[1], p[2]), color[1], ray_end=True))
    seeds = ((Point(*(float(v) for v in corner + 1.5 * mid)), Color.BLACK),
             (Point(*(float(v) for v in corner - 1.5 * mid)), Color.WHITE))
    return PolygonalColoring(pieces, seeds, Region(-8.0, -8.0, 8.0, 8.0))


def drawn_island(rng) -> PolygonalColoring:
    """``square_island`` with a black seed inside and, half the time, a white
    seed outside, at least 0.5 from the square."""
    seeds = [(Point(*(float(v) for v in rng.uniform(0.2, 0.8, 2))), Color.BLACK)]
    if rng.uniform() < 0.5:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(1.3, 3.0)
        seeds.append((Point(0.5 + r * math.cos(angle), 0.5 + r * math.sin(angle)), Color.WHITE))
    return square_island(*seeds)


def spike(rng, reach: float) -> PolygonalColoring:
    """A black triangle on the base (0, 0)-(1, 0) whose apex lies far out,
    its largest coordinate drawn from [reach / 2, reach]; a black seed on
    the median 2 above the base, and a white seed below it. The window is
    [-8, 8]^2, so the apex's coordinate reaches ``reach / 8`` times the
    window's largest corner."""
    turn = rng.uniform(math.pi / 4.0, 3.0 * math.pi / 4.0)
    size = rng.uniform(0.5, 1.0) * reach
    r = size / max(abs(math.cos(turn)), math.sin(turn))
    corners = [Point(0.0, 0.0), Point(1.0, 0.0),
               Point(0.5 + r * math.cos(turn), r * math.sin(turn))]
    pieces = tuple(BoundaryPiece(Segment(corners[k], corners[(k + 1) % 3]), Color.BLACK)
                   for k in range(3))
    seeds = ((Point(0.5 + 2.0 * math.cos(turn), 2.0 * math.sin(turn)), Color.BLACK),
             (Point(0.5, -3.0), Color.WHITE))
    return PolygonalColoring(pieces, seeds, Region(-8.0, -8.0, 8.0, 8.0))


def cell_table_points(pc: PolygonalColoring, rng):
    """Points 1e-12 to 1e-2 from the pieces (past ray ends too) and from the
    vertices, on either side; points exactly on cell edges and corners, as
    x0 + i hx gives them (of a 16 x 16 grid where the document has no
    table); and points outside the window."""
    pieces, cells, window = pc.tables.pieces, pc.cells, pc.window
    if cells is None:
        cells = CellTable(window, 16, 0.0)
    k = rng.integers(0, len(pieces), 60)
    u = np.where(pieces.ray_start[k] | pieces.ray_end[k], rng.uniform(-1.0, 2.0, 60),
                 rng.uniform(0.0, 1.0, 60))
    u = np.clip(u, np.maximum(pieces.u_lo[k], -1.0), np.minimum(pieces.u_hi[k], 2.0))
    length = np.hypot(pieces.ex[k], pieces.ey[k])
    off = 10.0 ** rng.uniform(-12.0, -2.0, 60) * np.where(rng.uniform(size=60) < 0.5, 1.0, -1.0)
    xs = [pieces.ax[k] + u * pieces.ex[k] - off * pieces.ey[k] / length]
    ys = [pieces.ay[k] + u * pieces.ey[k] + off * pieces.ex[k] / length]
    v = rng.integers(0, pieces.vx.size, 30) if pieces.vx.size else np.zeros(0, dtype=int)
    r, theta = 10.0 ** rng.uniform(-12.0, -2.0, v.size), rng.uniform(0.0, 2.0 * math.pi, v.size)
    xs.append(pieces.vx[v] + r * np.cos(theta))
    ys.append(pieces.vy[v] + r * np.sin(theta))
    ex = cells.x0 + rng.integers(0, cells.n + 1, 30) * cells.hx
    ey = cells.y0 + rng.integers(0, cells.n + 1, 30) * cells.hy
    xs += [ex, ex, rng.uniform(window.x0, window.x1, 30)]
    ys += [ey, rng.uniform(window.y0, window.y1, 30), ey]
    xs.append(rng.uniform(window.x1, window.x1 + 4.0, 10))
    ys.append(rng.uniform(window.y0 - 4.0, window.y0, 10))
    return np.concatenate(xs), np.concatenate(ys)


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["convex", "wedge", "island", "spike", "far spike"]),
       seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 2e-3]))
def test_cell_table_matches_the_clear_disk_kernel(family, seed, tol):
    """``resolve`` through the cell table gives the masks of the kernel it
    replaced (``scalar_oracles.clear_disk_resolve``): the unresolved mask on
    every point, and the black and on-boundary masks wherever that kernel
    resolves the point. A spike's apex lies within the 2^10 S of piece
    coordinates that the table takes (S the window's largest corner); a
    far spike's, near 2^20 S, lies beyond it, and that document walks."""
    rng = np.random.default_rng(seed)
    pc = {"convex": convex_face, "wedge": wedge_coloring, "island": drawn_island,
          "spike": lambda rng: spike(rng, 2.0 ** 10 * 8.0),
          "far spike": lambda rng: spike(rng, 2.0 ** 20 * 8.0)}[family](rng)
    assert (pc.cells is None) == (family == "far spike")
    xs, ys = cell_table_points(pc, rng)
    black, on, unresolved = pc.resolve(xs, ys, tol)
    want_black, want_on, want_unresolved = clear_disk_resolve(pc, xs, ys, tol)
    assert unresolved.tolist() == want_unresolved.tolist()
    resolved = ~want_unresolved
    assert black[resolved].tolist() == want_black[resolved].tolist()
    assert on[resolved].tolist() == want_on[resolved].tolist()


class TestDistance:
    """``distance`` equals the scalar oracle bit for bit."""

    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-9, 1e-7, 1e-3]))
    @settings(max_examples=60, deadline=None)
    def test_zebra(self, zc, seed, tol):
        rng = np.random.default_rng(seed)
        xs, ys = curve_points(zc, rng, tol, n=8)
        xs = np.concatenate((xs, rng.uniform(-6.0, 6.0, 20)))
        ys = np.concatenate((ys, rng.uniform(-6.0, 6.0, 20)))
        assert_distance_matches_scalar(zc, xs, ys)

    @pytest.mark.parametrize("name", sorted(ZEBRA_MERGES))
    def test_zebra_merged_joints(self, name):
        rng = np.random.default_rng(31)
        zc = ZebraColoring(ZEBRA_MERGES[name], UnitVector.from_angle(rng.uniform(0.0, 6.3)))
        xs, ys = curve_points(zc, rng, 1e-9, n=20)
        assert_distance_matches_scalar(zc, np.concatenate((xs, rng.uniform(-6.0, 6.0, 40))),
                                       np.concatenate((ys, rng.uniform(-6.0, 6.0, 40))))

    @pytest.mark.parametrize("name", sorted(ZEBRA_MERGES))
    def test_zebra_window_ends_next_to_breakpoints(self, name, monkeypatch):
        """Far from the origin a breakpoint 1e-12 from a window end rounds
        onto it and the joint rule merges it; near the origin the oracle's
        polyline keeps a segment shorter than ``Segment`` accepts, and
        raises, so those points take the oracle with the length check
        lifted."""
        rng = np.random.default_rng(32)
        zc = ZebraColoring(ZEBRA_MERGES[name], UnitVector.from_angle(rng.uniform(0.0, 6.3)))
        xs, ys = np.concatenate([np.concatenate(window_end_points(zc, rng, scale))
                                 .reshape(2, -1) for scale in (0.0, 1e4, 1e7)], axis=1)
        got = zc.distance(xs, ys)
        raised = []
        for k, (x, y) in enumerate(zip(xs, ys)):
            try:
                assert got[k] == scalar_zebra_distance(zc, Point(float(x), float(y)))
            except DegenerateSegment:
                raised.append(k)
        assert 0 < len(raised) < len(xs)
        monkeypatch.setattr(Segment, "__post_init__", lambda self: None)
        for k in raised:
            assert got[k] == scalar_zebra_distance(zc, Point(float(xs[k]), float(ys[k])))

    def test_zebra_overlapping_periods(self, monkeypatch):
        """``WIDE_PROFILE``'s last piece, 1.1e-9 wide, meets the next period's
        first at an integer u; the oracle runs with the length check lifted."""
        monkeypatch.setattr(Segment, "__post_init__", lambda self: None)
        rng = np.random.default_rng(34)
        zc = ZebraColoring(WIDE_PROFILE, UnitVector.from_angle(rng.uniform(0.0, 6.3)))
        xs, ys = curve_points(zc, rng, 1e-9, n=20)
        assert_distance_matches_scalar(zc, np.concatenate((xs, rng.uniform(-6.0, 6.0, 40))),
                                       np.concatenate((ys, rng.uniform(-6.0, 6.0, 40))))

    def test_zebra_corner_ties(self):
        """Points nearest to a corner of the zigzag: the two segments at the
        corner give distances an ulp apart, which squared lengths rank
        unlike ``math.hypot``."""
        zc = ZebraColoring(ZIGZAG, UnitVector.from_angle(0.7))
        xs = np.array([-0.12404258377572219, -0.16368089197992358, -2.131282407846485,
                       -0.2540627541183671])
        ys = np.array([0.14726854442361553, 0.1943288020783736, -3.6787336771573944,
                       -4.355177051196671])
        assert_distance_matches_scalar(zc, xs, ys)

    def test_zebra_across_blocks(self):
        zc = ZebraColoring(ZIGZAG, UnitVector.from_angle(1.1))
        rng = np.random.default_rng(33)
        xs, ys = rng.uniform(-1e3, 1e3, (2, colorings._RESOLVE_BLOCK + 5))
        got = zc.distance(xs, ys)
        for k in (0, colorings._RESOLVE_BLOCK - 1, colorings._RESOLVE_BLOCK, len(xs) - 1):
            assert got[k] == scalar_zebra_distance(zc, Point(float(xs[k]), float(ys[k])))

    @pytest.mark.parametrize("coloring", [FAMILIES["strip"], StripColoring(0.7),
                                          FAMILIES["halfplane"]])
    def test_closed_forms(self, coloring):
        rng = np.random.default_rng(34)
        bx, by = boundary_points(coloring, rng)
        xs = np.concatenate((bx, rng.uniform(-1e3, 1e3, 300), [0.0, -0.0]))
        ys = np.concatenate((by, rng.uniform(-1e3, 1e3, 300), [0.0, -0.0]))
        assert_distance_matches_scalar(coloring, xs, ys)

    @pytest.mark.parametrize("name", sorted(POLYGONAL))
    def test_polygonal(self, name):
        rng = np.random.default_rng(35)
        for pc in POLYGONAL[name]:
            assert_distance_matches_scalar(pc, *polygonal_points(pc, rng, 1e-9))
        if name == "all-black":
            # no boundary: inf even where a coordinate is not finite
            assert np.isinf(pc.distance(np.array([0.0, np.nan, np.inf]),
                                        np.array([1.0, 0.0, 0.0]))).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unmeasurable_points_are_nan(self, family):
        """A coordinate that is not finite, and on the zebra |s| + |t| >= 2^48,
        gives NaN with no numpy warning; the other points keep their distance."""
        coloring = FAMILIES[family]
        bad = [(0.0, math.inf), (math.inf, 0.0), (-math.inf, math.inf), (math.nan, 0.0),
               (0.0, math.nan)]
        if isinstance(coloring, ZebraColoring):
            bad += [(0.0, 1e300), (1.7e308, 1.7e308), (2.0 ** 48, 0.0)]
        good = [(0.3, 0.2), (-2.5, 1.75), (2.0 ** 45, -3.0)]
        xs, ys = np.array(bad + good).T
        got = coloring.distance(xs, ys)
        assert np.isnan(got[:len(bad)]).all()
        assert got[len(bad):].tolist() == [one_point_distance(coloring, Point(x, y))
                                           for x, y in good]
        for x, y in bad:
            assert math.isnan(coloring.distance(np.array([x]), np.array([y]))[0])
        if isinstance(coloring, ZebraColoring):
            # NaN exactly where resolve leaves the point unresolved
            assert coloring.resolve(xs, ys)[2].tolist() == np.isnan(got).tolist()

    @pytest.mark.filterwarnings("error")
    def test_polygonal_far_points(self):
        """The L-shape far out, with no numpy warning: offsets whose squares
        overflow keep their exact ``math.hypot``, the scalar distance; an
        offset that overflows itself gives NaN (the scalar gives 1.41e308 at
        (-1e308, 1e308), where the distance is 1e308)."""
        pc = FAMILIES["polygonal"]
        xs, ys = np.array([(0.0, 1e300), (1e200, 1e200), (-1e308, -1e308), (1e300, -1e300),
                           (3.0, -4.0)]).T
        assert_distance_matches_scalar(pc, xs, ys)
        assert pc.distance(xs, ys).tolist() == [0.0, 1e200, math.hypot(1e308, 1e308), 1e300,
                                                4.0]
        bad = [(-1e308, 1e308), (1e308, 1e308), (1e308, -1e308)]
        got = pc.distance(*np.array(bad + [(3.0, -4.0)]).T)
        assert np.isnan(got[:3]).all() and got[3] == 4.0
        for x, y in bad:
            assert math.isnan(one_point_distance(pc, Point(x, y)))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_boundary_distance_is_the_one_point_view(self, family):
        coloring = FAMILIES[family]
        rng = np.random.default_rng(36)
        for x, y in rng.uniform(-3.0, 3.0, (5, 2)):
            p = Point(float(x), float(y))
            assert one_point_distance(coloring, p) == scalar_distance(coloring, p)
        assert coloring.distance(np.empty(0), np.empty(0)).shape == (0,)
        # find scans pass vertex 3 an empty array where no pair agrees
        masks = coloring.resolve(np.empty(0), np.empty(0))
        assert len(masks) == 3
        for mask in masks:
            assert mask.dtype == bool and mask.shape == (0,)


def walk_fill(canvas, coloring, cells=160):
    """The polygonal raster with one walk per cell centre, unresolved cells left white."""
    region = canvas.region
    nx = cells
    ny = max(int(round(cells * (region.y1 - region.y0) / (region.x1 - region.x0))), 1)
    dx = (region.x1 - region.x0) / nx
    dy = (region.y1 - region.y0) / ny
    for i in range(nx):
        for j in range(ny):
            cx = region.x0 + (i + 0.5) * dx
            cy = region.y0 + (j + 0.5) * dy
            if walk_color_at(coloring, Point(cx, cy), 1e-9) is Color.BLACK:
                x, y = canvas.to_svg(Point(region.x0 + i * dx, region.y0 + (j + 1) * dy))
                canvas.rect(x, y, dx * canvas.ppu, dy * canvas.ppu, render.BLACK_FILL)


@pytest.mark.parametrize("name, region", [
    ("l-shape", Region(-2.0, -0.5, 3.0, 1.0)),
    ("convex", Region(-2.5, -0.75, 2.5, 0.75)),
    # equal steps from equal corners put cell centres on the diagonal
    # y = x, whose sight line to the seed passes through the (0, 0) corner
    ("square-1-seed", Region(-2.0, -2.0, 3.0, -1.0)),
])
def test_polygonal_render_matches_walk_raster(name, region, monkeypatch):
    spec = RenderSpec(POLYGONAL[name][0], region)
    got = render_svg(spec)
    monkeypatch.setattr(render, "_fill_polygonal", walk_fill)
    assert render_svg(spec) == got
    if name == "square-1-seed":
        assert walk_color_at(spec.coloring, Point(-1.984375, -1.984375), 1e-9) is None


def test_polygonal_rays_cross_the_render_region():
    """The L-shape's rays, stored from the corner to 16, are stroked across
    all of [-30, 30]^2; its bounded ends stay where they are."""
    svg = render_svg(RenderSpec(l_shape_coloring(), Region(-30.0, -30.0, 30.0, 30.0), 10.0))
    lines = [tuple(map(float, m)) for m in re.findall(
        r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"', svg)]
    assert len(lines) == 2
    (x_from, y_from, x_to, y_to), (y_ray_from_x, y_ray_from_y, y_ray_x, y_ray_y) = lines
    # the x ray runs from past x = 30 (600 px) to the corner (300, 300)
    assert x_from >= 600.0 and (y_from, x_to, y_to) == (300.0, 300.0, 300.0)
    # the y ray runs from the corner to past y = 30 (0 px)
    assert (y_ray_from_x, y_ray_from_y, y_ray_x) == (300.0, 300.0, 300.0) and y_ray_y <= 0.0
