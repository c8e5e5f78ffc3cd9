import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    circle_polyline_intersections,
    distance,
    place_triangle,
    point_segment_distance,
    rotate_about,
    third_vertex,
)

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
        L = seg.length()
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


class TestCirclePolyline:
    def test_axis_crossings(self):
        chain = [Segment(Point(-2, 0), Point(2, 0))]
        hits = circle_polyline_intersections(Circle(Point(0, 0), 1), chain)
        assert sorted((round(h.point.x, 9), round(h.point.y, 9)) for h in hits) == \
            [(-1.0, 0.0), (1.0, 0.0)]
        assert not any(h.tangent for h in hits)

    def test_tangency_flagged(self):
        chain = [Segment(Point(-2, 1), Point(2, 1))]
        hits = circle_polyline_intersections(Circle(Point(0, 0), 1), chain)
        assert len(hits) == 1 and hits[0].tangent
        assert hits[0].point.x == pytest.approx(0.0, abs=1e-9)
        assert hits[0].point.y == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        chain = [Segment(Point(-2, 2), Point(2, 2))]
        assert circle_polyline_intersections(Circle(Point(0, 0), 1), chain) == []

    def test_shared_endpoint_merged(self):
        chain = [Segment(Point(-2, 0), Point(1, 0)), Segment(Point(1, 0), Point(2, 0.5))]
        hits = circle_polyline_intersections(Circle(Point(0, 0), 1), chain)
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
            got = [h for h in circle_polyline_intersections(circle, chain)
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
