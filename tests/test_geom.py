import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri.colorings import PieceTable, _offsets, circle_polyline_intersections
from monotri.geom import (
    Circle,
    DegenerateSegment,
    DistanceMismatch,
    Infeasible,
    Point,
    Region,
    RigidMotion,
    Segment,
    TriangleSpec,
    UnitVector,
    distance,
    place_triangle,
    rotate_about,
    third_vertex,
)
from scalar_oracles import point_segment_distance, scalar_circle_hits, table_of

SQRT3 = math.sqrt(3.0)

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9)


class TestRotateAbout:
    def test_quarter_turn(self):
        p = rotate_about(Point(1, 0), Point(0, 0), math.pi / 2)
        assert abs(p.x) < 1e-12 and abs(p.y - 1) < 1e-12

    def test_fixed_point(self):
        p = rotate_about(Point(3, 4), Point(3, 4), 1.234)
        assert p == Point(3, 4)

    def test_half_turn_off_center(self):
        p = rotate_about(Point(2, 0), Point(1, 0), math.pi)
        assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12

    @given(px=finite_floats, py=finite_floats, cx=finite_floats,
           cy=finite_floats, angle=angles)
    @settings(max_examples=300)
    def test_preserves_center_distance(self, px, py, cx, cy, angle):
        p, c = Point(px, py), Point(cx, cy)
        before = distance(p, c)
        after = distance(rotate_about(p, c, angle), c)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestThirdVertex:
    def test_equilateral_ccw(self):
        c = third_vertex(Point(0, 0), Point(1, 0), 1, 1, 1, "ccw")
        assert c.x == pytest.approx(0.5) and c.y == pytest.approx(SQRT3 / 2)

    def test_equilateral_cw(self):
        c = third_vertex(Point(0, 0), Point(1, 0), 1, 1, 1, "cw")
        assert c.x == pytest.approx(0.5) and c.y == pytest.approx(-SQRT3 / 2)

    def test_degenerate_collinear(self):
        c = third_vertex(Point(0, 0), Point(2, 0), 2, 1, 1, "ccw")
        assert c.x == pytest.approx(1.0) and c.y == pytest.approx(0.0, abs=1e-12)

    def test_distance_mismatch(self):
        with pytest.raises(DistanceMismatch):
            third_vertex(Point(0, 0), Point(1, 0), 2, 1, 1)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            third_vertex(Point(0, 0), Point(1, 0), 1, 0.2, 0.2)

    def test_coincident_base_endpoints(self):
        P = Point(0.3, -0.2)
        with pytest.raises(DegenerateSegment):
            third_vertex(P, P, 0.0, 1.0, 1.0)


class TestPlaceTriangle:
    def test_canonical_unit(self):
        tri = place_triangle(TriangleSpec(1, 1, 1), RigidMotion(0.0))
        assert tri[0] == Point(0, 0)
        assert tri[1] == Point(1, 0)
        assert tri[2].x == pytest.approx(0.5)
        assert tri[2].y == pytest.approx(SQRT3 / 2)

    def test_rotation_composition(self):
        base = place_triangle(TriangleSpec(1, 1, 1), RigidMotion(0.0))
        rotated = place_triangle(TriangleSpec(1, 1, 1), RigidMotion(math.pi / 3))
        for b, r in zip(base, rotated):
            expect = rotate_about(b, Point(0, 0), math.pi / 3)
            assert distance(expect, r) < 1e-12

    def test_345_pairwise_distances(self):
        # oracle: independent pairwise distance computation
        tri = place_triangle(TriangleSpec(3, 4, 5), RigidMotion(0.0))
        got = sorted(math.hypot(p.x - q.x, p.y - q.y)
                     for p, q in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])))
        assert got == pytest.approx([3.0, 4.0, 5.0], abs=1e-12)

    def test_anticlockwise_edge_order(self):
        tri = place_triangle(TriangleSpec(2, 3, 4), RigidMotion(1.0, (5.0, -2.0)))
        assert distance(tri[0], tri[1]) == pytest.approx(2.0, abs=1e-12)
        assert distance(tri[1], tri[2]) == pytest.approx(3.0, abs=1e-12)
        assert distance(tri[2], tri[0]) == pytest.approx(4.0, abs=1e-12)

    def test_1000_random_specs_and_motions(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            a, b = rng.uniform(0.1, 5.0, 2)
            c = rng.uniform(abs(a - b) + 1e-6, a + b - 1e-6)
            spec = TriangleSpec(a, b, c)
            motion = RigidMotion(rng.uniform(0, 2 * math.pi),
                                 (rng.uniform(-10, 10), rng.uniform(-10, 10)))
            tri = place_triangle(spec, motion)
            assert distance(tri[0], tri[1]) == pytest.approx(a, rel=1e-9)
            assert distance(tri[1], tri[2]) == pytest.approx(b, rel=1e-9)
            assert distance(tri[2], tri[0]) == pytest.approx(c, rel=1e-9)

    def test_infeasible_spec(self):
        with pytest.raises(Infeasible):
            TriangleSpec(1, 1, 3)


def _sampling_intersections(circle, chain, step=1e-4):
    """Oracle: walk each segment, track sign changes of distance - radius."""
    found = []
    for seg in chain:
        L = distance(seg.p, seg.q)
        n = max(int(L / step), 2)
        ts = np.linspace(0.0, 1.0, n)
        xs = seg.p.x + ts * (seg.q.x - seg.p.x)
        ys = seg.p.y + ts * (seg.q.y - seg.p.y)
        d = np.hypot(xs - circle.center.x, ys - circle.center.y) - circle.radius
        sign_changes = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
        for idx in sign_changes:
            t = ts[idx] - d[idx] * (ts[idx + 1] - ts[idx]) / (d[idx + 1] - d[idx])
            found.append(Point(seg.p.x + t * (seg.q.x - seg.p.x),
                               seg.p.y + t * (seg.q.y - seg.p.y)))
        for idx in np.flatnonzero(d == 0.0):
            found.append(Point(float(xs[idx]), float(ys[idx])))
    dedup = []
    for p in found:
        if all(distance(p, q) > 1e-3 for q in dedup):
            dedup.append(p)
    return dedup


def unfiltered_intersections(circle, chain, tol=1e-9, ray_start=False, ray_end=False):
    """``circle_polyline_intersections`` as it was before it became one array
    pass: every segment of ``chain`` goes through the scalar quadratic."""
    return scalar_circle_hits(circle, table_of(chain, ray_start, ray_end), tol)


def hits_of(circle, chain, tol=1e-9):
    return circle_polyline_intersections(circle, table_of(chain), tol)


def probing_chain(rng, circle, tol):
    """Segments on lines at distance r +- tol, r +- 100 tol, r (tangent) and
    far from the center, each around, before or past the foot of the
    center's perpendicular, and long segments whose line crosses the circle
    but whose ends lie on one side of it."""
    c, r = circle.center, circle.radius
    chain = []
    for gap in (tol, -tol, 100 * tol, -100 * tol, 0.0, 0.0, 1.0, 5.0, -0.5):
        theta = float(rng.uniform(0.0, 2 * math.pi))
        nx, ny = math.cos(theta), math.sin(theta)
        fx, fy = c.x + (r + gap) * nx, c.y + (r + gap) * ny
        for lo, hi in ((-0.3, 0.4), (-2.0, -0.1), (0.05, 3.0), (-1e-6, 1e-6)):
            if hi - lo > 1e-3:
                lo, hi = sorted(rng.uniform(lo, hi, 2).tolist())
            chain.append(Segment(Point(fx - lo * ny, fy + lo * nx),
                                 Point(fx - hi * ny, fy + hi * nx)))
    for start, length in ((1.5 * r, 1e6), (r + 200 * tol, 3.0)):
        theta = float(rng.uniform(0.0, 2 * math.pi))
        nx, ny = math.cos(theta), math.sin(theta)
        chain.append(Segment(Point(c.x + start * nx, c.y + start * ny),
                             Point(c.x + (start + length) * nx, c.y + (start + length) * ny)))
    return [chain[k] for k in rng.permutation(len(chain))]


class TestCirclePolyline:
    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_matches_unfiltered_loop(self, scale, tol):
        rng = np.random.default_rng(78)
        tangents = crossings = 0
        for _ in range(60):
            circle = Circle(Point(*rng.uniform(-scale, scale, 2).tolist()),
                            float(rng.uniform(0.3, 2.0)))
            chain = probing_chain(rng, circle, tol)
            got = hits_of(circle, chain, tol)
            assert got == unfiltered_intersections(circle, chain, tol)
            tangents += sum(h.tangent for h in got)
            crossings += sum(not h.tangent for h in got)
        assert tangents and crossings

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_matches_scalar_loop_with_rays_and_shared_ends(self, tol):
        """Random tables: the probing pieces and polylines whose pieces share
        their ends, each side a ray at random; the array pass gives the
        scalar loop's hits, widened to each piece's [u_lo, u_hi], bit for bit."""
        rng = np.random.default_rng(79)
        rays = tangents = merged = 0
        for _ in range(60):
            circle = Circle(Point(*rng.uniform(-3.0, 3.0, 2).tolist()),
                            float(rng.uniform(0.3, 2.0)))
            # a polyline whose every other joint lies on the circle
            pts = []
            for theta in rng.uniform(0.0, 2 * math.pi, 4).tolist():
                c, r = circle.center, circle.radius
                pts += [Point(c.x + r * math.cos(theta), c.y + r * math.sin(theta)),
                        Point(*rng.uniform(-4.0, 4.0, 2).tolist())]
            chain = probing_chain(rng, circle, max(tol, 1e-9)) + [
                Segment(p, q) for p, q in zip(pts, pts[1:])]
            ray_start, ray_end = rng.uniform(size=(2, len(chain))) < 0.3
            got = circle_polyline_intersections(circle, table_of(chain, ray_start, ray_end), tol)
            assert got == unfiltered_intersections(circle, chain, tol, ray_start, ray_end)
            rays += sum(bool(ray_start[h.seg_index] or ray_end[h.seg_index]) for h in got)
            tangents += sum(h.tangent for h in got)
            merged += len(scalar_circle_hits(circle, table_of(chain), tol)) < sum(
                len(scalar_circle_hits(circle, table_of([seg]), tol)) for seg in chain)
        assert rays and tangents and merged

    def test_rays_reach_past_the_stored_ends(self):
        # the L-shape's y ray, stored as (0, 0) -> (0, 16)
        chain = [Segment(Point(0.0, 0.0), Point(0.0, 16.0))]
        for y, want in ((15.5, [(0.0, 14.5), (0.0, 16.5)]), (20.0, [(0.0, 19.0), (0.0, 21.0)])):
            circle = Circle(Point(0.0, y), 1.0)
            assert [(h.point.x, h.point.y) for h in circle_polyline_intersections(
                circle, table_of(chain, ray_end=True))] == want
            assert len(hits_of(circle, chain)) == (1 if y < 16.0 else 0)

    def test_axis_crossings(self):
        chain = [Segment(Point(-2, 0), Point(2, 0))]
        hits = hits_of(Circle(Point(0, 0), 1), chain)
        assert sorted((round(h.point.x, 9), round(h.point.y, 9)) for h in hits) == \
            [(-1.0, 0.0), (1.0, 0.0)]
        assert not any(h.tangent for h in hits)

    def test_tangency_flagged(self):
        chain = [Segment(Point(-2, 1), Point(2, 1))]
        hits = hits_of(Circle(Point(0, 0), 1), chain)
        assert len(hits) == 1 and hits[0].tangent
        assert hits[0].point.x == pytest.approx(0.0, abs=1e-9)
        assert hits[0].point.y == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        chain = [Segment(Point(-2, 2), Point(2, 2))]
        assert hits_of(Circle(Point(0, 0), 1), chain) == []

    def test_shared_endpoint_merged(self):
        chain = [Segment(Point(-2, 0), Point(1, 0)), Segment(Point(1, 0), Point(2, 0.5))]
        hits = hits_of(Circle(Point(0, 0), 1), chain)
        on_joint = [h for h in hits if distance(h.point, Point(1, 0)) < 1e-6]
        assert len(on_joint) == 1

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            circle = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                            rng.uniform(0.3, 2.0))
            pts = [Point(rng.uniform(-4, 4), rng.uniform(-4, 4))]
            for _ in range(rng.integers(1, 5)):
                last = pts[-1]
                pts.append(Point(last.x + rng.uniform(-3, 3), last.y + rng.uniform(-3, 3)))
            chain = [Segment(p, q) for p, q in zip(pts, pts[1:])
                     if distance(p, q) > 1e-6]
            got = [h for h in hits_of(circle, chain)
                   if not h.tangent]
            want = _sampling_intersections(circle, chain)
            assert len(got) == len(want)
            for h in got:
                assert min(distance(h.point, w) for w in want) < 1e-3


class TestPointSegmentDistance:
    def test_interior_projection(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert point_segment_distance(Point(1, 3), seg) == pytest.approx(3.0)

    def test_endpoint_clamp(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert point_segment_distance(Point(-3, 4), seg) == pytest.approx(5.0)

    def test_ray_extension(self):
        seg = Segment(Point(0, 0), Point(2, 0))
        assert point_segment_distance(Point(-3, 4), seg, ray_start=True) == \
            pytest.approx(4.0)
        assert point_segment_distance(Point(5, 1), seg, ray_end=True) == \
            pytest.approx(1.0)

    def test_offsets_are_the_scalar_distance(self):
        """``math.hypot`` of an ``_offsets`` offset, the hexagon probe's host
        distance, is the scalar distance bit for bit wherever the projection
        is finite: pieces and rays at scales up to 1e150, points on them,
        beside them and far out."""
        rng = np.random.default_rng(80)
        checked = 0
        for scale in (1.0, 1e6, 1e150):
            ends = rng.uniform(-scale, scale, (200, 4))
            flags = rng.uniform(size=(200, 2)) < 0.3
            a, b = ends[:, :2].T, ends[:, 2:].T
            table = PieceTable(a, b, np.ones(200, dtype=bool), flags[:, 0], flags[:, 1])
            u = rng.uniform(-2.0, 3.0, 200)
            px = np.concatenate((a[0] + u * table.ex, rng.uniform(-1e3, 1e3, 50) * scale))
            py = np.concatenate((a[1] + u * table.ey + rng.normal(0.0, 1e-9 * scale, 200),
                                 rng.uniform(-1e3, 1e3, 50) * scale))
            for x, y in zip(px.tolist(), py.tolist()):
                gx, gy = _offsets(x, y, table.ax, table.ay, table.ex, table.ey, table.len2,
                                  table.u_lo, table.u_hi)
                got = list(map(math.hypot, gx.tolist(), gy.tolist()))
                for k in range(200):
                    seg = Segment(Point(*a[:, k].tolist()), Point(*b[:, k].tolist()))
                    assert got[k].hex() == point_segment_distance(
                        Point(x, y), seg, *flags[k].tolist()).hex()
                    checked += 1
        assert checked == 3 * 250 * 200


class TestRegionAndTypes:
    def test_region_validation(self):
        with pytest.raises(Exception):
            Region(1, 0, 0, 1)

    def test_unit_vector_validation(self):
        with pytest.raises(Exception):
            UnitVector(1.0, 1.0)
        v = UnitVector.normalized(3.0, 4.0)
        assert v.dx == pytest.approx(0.6) and v.dy == pytest.approx(0.8)

    def test_segment_degenerate(self):
        with pytest.raises(DegenerateSegment):
            Segment(Point(0, 0), Point(0, 0))

    def test_circle_radius(self):
        with pytest.raises(Exception):
            Circle(Point(0, 0), 0.0)
