"""The ``classify`` query against reference implementations.

``five_curve_locate`` is the zebra kernel as it was before the three-curve
window: every point tries curves i0 - 2 .. i0 + 2 and reads heights through
``np.interp``. ``two_mask_avoidance`` is the avoidance scan as it was before
it classified each vertex once: one ``black_mask`` and one ``boundary_mask``
call per vertex. Both are kept here as oracles that the fast paths must
match exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotri.colorings import (
    Color,
    HalfPlaneColoring,
    MalformedProfile,
    StripColoring,
    ZebraColoring,
    ZebraProfile,
    l_shape_coloring,
)
from monotri.geom import Point, Region, TriangleSpec, UnitVector
from monotri.scan import AvoidanceReport, ScanGrid, _rotated_offsets, avoidance_scan

HALF_SQRT3 = math.sqrt(3.0) / 2.0
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
            blacks.append(coloring.black_mask(X + ox, Y + oy, tol))
            bounds.append(coloring.boundary_mask(X + ox, Y + oy, tol))
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


class TestZebraKernel:
    @given(zc=zebra_colorings(), seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-9, 1e-7, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_five_curve_oracle(self, zc, seed, tol):
        rng = np.random.default_rng(seed)
        xs, ys = curve_points(zc, rng, tol)
        xs = np.concatenate((xs, rng.uniform(-6.0, 6.0, 200)))
        ys = np.concatenate((ys, rng.uniform(-6.0, 6.0, 200)))
        got = zc._locate(xs, ys, tol)
        want = five_curve_locate(zc, xs, ys, tol)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        tables = zc.profile.tables
        assert np.array_equal(tables.height(*tables.locate(xs)), zc.profile.values(xs))

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
        for g, w in zip(steep._locate(xs, ys, tol), five_curve_locate(steep, xs, ys, tol)):
            assert np.array_equal(g, w)

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
            got = near_cap._locate(xs, ts, tol)
            want = five_curve_locate(near_cap, xs, ts, tol)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_profile_tables_are_built_once_and_read_only(self):
        profile = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
        assert profile.tables is profile.tables
        with pytest.raises(ValueError):
            profile.tables.vs[0] = 1.0


FAMILIES = {
    "strip": StripColoring(1.0, "lower-closed"),
    "zebra": ZebraColoring(ZIGZAG, UnitVector.from_angle(0.7), "even-black", "even-white"),
    "halfplane": HalfPlaneColoring(UnitVector.from_angle(2.0), 0.3, Color.WHITE),
    "polygonal": l_shape_coloring(),
}


def boundary_points(coloring, rng, n=40):
    """Points on the coloring's boundary pieces, endpoints included."""
    pieces = coloring.boundary_segments(Region(-3.0, -3.0, 3.0, 3.0))
    xs, ys = [], []
    for piece in pieces:
        a, b = piece.seg.p, piece.seg.q
        for f in np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, n // len(pieces)))):
            xs.append(a.x + f * (b.x - a.x))
            ys.append(a.y + f * (b.y - a.y))
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_classify_is_the_pair_of_masks(family, tol):
    coloring = FAMILIES[family]
    rng = np.random.default_rng(3)
    bx, by = boundary_points(coloring, rng)
    xs = np.concatenate((bx, rng.uniform(-3.0, 3.0, 300)))
    ys = np.concatenate((by, rng.uniform(-3.0, 3.0, 300)))
    black, on = coloring.classify(xs, ys, tol)
    assert on[:len(bx)].all()
    assert np.array_equal(black, coloring.black_mask(xs, ys, tol))
    assert np.array_equal(on, coloring.boundary_mask(xs, ys, tol))
    colors = [coloring.color_at(Point(float(x), float(y)), tol) for x, y in zip(xs, ys)]
    assert colors == [Color.BLACK if b else Color.WHITE for b in black]


@pytest.mark.parametrize("coloring, region, side, tol", [
    (StripColoring(1.0), Region(0.0, 0.0, 3.0, 3.0), 1.0, 1e-9),
    (ZebraColoring(ZIGZAG, UnitVector.from_angle(0.4)), Region(-1.0, 0.5, 2.0, 3.5), 0.9, 1e-3),
    (HalfPlaneColoring(UnitVector.from_angle(1.0), 0.2), Region(-1.5, -1.5, 1.5, 1.5), 1.0, 1e-9),
    (l_shape_coloring(), Region(-1.0, -1.0, 1.0, 1.0), 1.0, 1e-9),
])
def test_avoidance_scan_matches_two_mask_loop(coloring, region, side, tol):
    grid = ScanGrid(region, 0.1, 12)
    spec = TriangleSpec(side, side, side)
    report = avoidance_scan(coloring, spec, grid, tol)
    assert report == two_mask_avoidance(coloring, spec, grid, tol)
    assert report.monochromatic_count + report.near_misses > 0

