import json
import math
import tracemalloc

import numpy as np
import pytest

from monotri.geom import GeometryError, Point, Region, Segment, TriangleSpec, UnitVector, distance
from monotri.colorings import (
    BoundaryPiece,
    Color,
    HalfPlaneColoring,
    PolygonalColoring,
    StripColoring,
    UnresolvedFace,
    ZebraColoring,
    ZebraProfile,
    all_black_coloring,
    l_shape_coloring,
)
from monotri.scan import (
    NotOnBoundary,
    _boundary_vertices,
    _common_color,
    ScanGrid,
    avoidance_scan,
    boundary_angle_audit,
    find_almost_unit,
    find_monochromatic_copy,
    hexagon_probe,
    margin_of,
    verify_witness,
)

SQRT3 = math.sqrt(3.0)
ZIGZAG = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))))
UNIT = TriangleSpec(1, 1, 1)


class TestFindMonochromatic:
    def test_half_plane_witness(self):
        hp = HalfPlaneColoring()
        grid = ScanGrid(Region(0, 0, 4, 4), 0.1, 8)
        w = find_monochromatic_copy(hp, UNIT, grid, min_margin=0.1)
        assert w is not None
        assert w.color is Color.BLACK
        assert w.margin >= 0.1
        assert all(v.y >= 0.1 for v in w.vertices)
        assert verify_witness(hp, UNIT, w)

    def test_strip_avoids_unit(self):
        sc = StripColoring()
        grid = ScanGrid(Region(0, 0, 10, 10), 0.5, 24)
        assert find_monochromatic_copy(sc, UNIT, grid) is None

    def test_strip_contains_smaller_equilateral(self):
        sc = StripColoring()
        spec = TriangleSpec(0.8, 0.8, 0.8)
        grid = ScanGrid(Region(0, 0, 3, 3), 0.05, 60)
        w = find_monochromatic_copy(sc, spec, grid, min_margin=0.01)
        assert w is not None and verify_witness(sc, spec, w)
        # the whole witness fits inside one strip
        band = [math.floor(v.y / (SQRT3 / 2)) for v in w.vertices]
        assert len(set(band)) == 1

    def test_determinism_least_witness(self):
        hp = HalfPlaneColoring()
        grid = ScanGrid(Region(0, 0, 4, 4), 0.1, 8)
        a = find_monochromatic_copy(hp, UNIT, grid, 0.1)
        b = find_monochromatic_copy(hp, UNIT, grid, 0.1)
        assert a == b
        assert json.dumps(a.to_dict(UNIT), sort_keys=True) == \
            json.dumps(b.to_dict(UNIT), sort_keys=True)
        # lexicographic least: first angle with a hit, then least x, then y
        assert a.motion.angle == 0.0
        assert a.motion.translation == (0.0, 0.1)

    def test_scale_covariance(self):
        rng = np.random.default_rng(31)
        found = 0
        for s in (0.5, 2.0):
            sc1 = StripColoring(1.0)
            sc2 = StripColoring(s)
            for _ in range(50):
                a = float(rng.uniform(0.4, 0.85))
                x0 = float(rng.uniform(0, 2))
                y0 = float(rng.uniform(0, 2))
                grid = ScanGrid(Region(x0, y0, x0 + 1.5, y0 + 1.5), 0.05, 24)
                w = find_monochromatic_copy(sc1, TriangleSpec(a, a, a), grid, 0.005)
                if w is None:
                    continue
                found += 1
                scaled = TriangleSpec(a * s, a * s, a * s)
                verts = tuple(Point(v.x * s, v.y * s) for v in w.vertices)
                sides = (distance(verts[0], verts[1]), distance(verts[1], verts[2]),
                         distance(verts[2], verts[0]))
                assert all(abs(d - a * s) < 1e-9 for d in sides)
                assert all(sc2.color_at(v) is w.color for v in verts)
                assert margin_of(sc2, verts) == pytest.approx(w.margin * s, rel=1e-9)
        assert found >= 100

    def test_mirror_property(self):
        spec = TriangleSpec(0.5, 0.6, 0.7)
        mirror = TriangleSpec(0.6, 0.5, 0.7)
        grid = ScanGrid(Region(0, 0, 3, 3), 0.05, 48)
        for coloring in (HalfPlaneColoring(), StripColoring(), ZIGZAG):
            a = find_monochromatic_copy(coloring, spec, grid, 0.005)
            b = find_monochromatic_copy(coloring, mirror, grid, 0.005)
            assert (a is None) == (b is None)
            if a is not None:
                assert verify_witness(coloring, spec, a)
                assert verify_witness(coloring, mirror, b)

    def test_grid_iteration_counts(self):
        grid = ScanGrid(Region(0, 0, 1, 1), 0.5, 4)
        assert len(grid.xs()) == 3 and len(grid.ys()) == 3
        assert grid.placements() == 36

    @pytest.mark.parametrize("region, step", [(Region(0, 0, 1, 1), 1e-320),
                                              (Region(-1e308, 0, 1e308, 1), 1.0)])
    def test_grid_with_an_overflowing_axis_count_is_rejected(self, region, step):
        with pytest.raises(GeometryError, match="must be finite"):
            ScanGrid(region, step, 1)


class TestAvoidanceScan:
    def test_half_plane_contains(self):
        rep = avoidance_scan(HalfPlaneColoring(), UNIT,
                             ScanGrid(Region(0, 0, 3, 3), 0.1, 10))
        assert rep.monochromatic_count > 0
        assert rep.monochromatic_examples

    def test_strip_avoids(self):
        rep = avoidance_scan(StripColoring(), UNIT,
                             ScanGrid(Region(0, 0, 10, 10), 0.25, 24))
        assert rep.monochromatic_count == 0
        assert rep.placements_tested == 24 * 41 * 41

    def test_zigzag_twin_avoids(self):
        rep = avoidance_scan(ZIGZAG, UNIT, ScanGrid(Region(0, 0, 5, 5), 0.2, 24))
        assert rep.monochromatic_count == 0

    def test_rotated_zigzag_twin_avoids(self):
        from monotri.geom import UnitVector
        rotated = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))),
                                x_hat=UnitVector.from_angle(0.7))
        rep = avoidance_scan(rotated, UNIT, ScanGrid(Region(0, 0, 6, 6), 0.15, 24))
        assert rep.monochromatic_count == 0
        spec = TriangleSpec(0.9, 0.9, 0.9)
        w = find_monochromatic_copy(rotated, spec,
                                    ScanGrid(Region(0, 0, 3, 3), 0.02, 360),
                                    min_margin=0.01)
        assert w is not None and verify_witness(rotated, spec, w)

    def test_memory_does_not_grow_with_the_lattice(self):
        """A scan builds its translations a block at a time, from flat lattice
        indices: 4,004,001 translations peak within 2 MB of 10,201."""
        def peak(side):
            grid = ScanGrid(Region(0, 0, side, side), 0.01, 1)
            tracemalloc.start()
            try:
                report = avoidance_scan(HalfPlaneColoring(), UNIT, grid)
                return tracemalloc.get_traced_memory()[1], report
            finally:
                tracemalloc.stop()

        small, _ = peak(1)
        large, report = peak(20)
        assert report.placements_tested == 4004001
        assert large - small < 2 * 2 ** 20

    def test_all_boundary_black_twin_contains(self):
        # the coloring that paints every curve black admits boundary triangles
        zc = ZebraColoring(ZebraProfile(((0.0, 0.0), (1.0, 0.0))))
        x, y = 0.25, 0.0
        tri = (Point(x, y), Point(x + 1, y), Point(x + 0.5, y + SQRT3 / 2))
        colors = {zc.color_at(v) for v in tri}
        assert len(colors) == 2  # avoiding twin: L0 black, L1 white
        flipped = zc.twin("even-white")
        assert {flipped.color_at(v) for v in tri} == {Color.WHITE, Color.BLACK}


class TestWitnessSoundness:
    def test_tampered_witness_fails(self):
        hp = HalfPlaneColoring()
        grid = ScanGrid(Region(0, 0, 4, 4), 0.1, 8)
        w = find_monochromatic_copy(hp, UNIT, grid, 0.1)
        import dataclasses
        bad = dataclasses.replace(w, margin=w.margin + 0.5)
        assert not verify_witness(hp, UNIT, bad)
        bad2 = dataclasses.replace(w, color=w.color.opposite())
        assert not verify_witness(hp, UNIT, bad2)
        bad3 = dataclasses.replace(
            w, vertices=(w.vertices[0], w.vertices[1],
                         Point(w.vertices[2].x + 0.01, w.vertices[2].y)))
        assert not verify_witness(hp, UNIT, bad3)

    def test_vertices_take_one_color_query(self):
        hp = HalfPlaneColoring()
        w = find_monochromatic_copy(hp, UNIT, ScanGrid(Region(0, 0, 4, 4), 0.1, 8), 0.1)
        calls = []

        class Counting:
            def resolve(self, xs, ys, tol):
                calls.append(len(xs))
                return hp.resolve(xs, ys, tol)

            def distance(self, xs, ys):
                return hp.distance(xs, ys)

        assert verify_witness(Counting(), UNIT, w)
        assert calls == [3]

    def test_infinite_margin_verifies(self):
        """Without a boundary every margin is infinite, and inf - inf is NaN."""
        coloring = all_black_coloring()
        w = find_monochromatic_copy(coloring, UNIT, ScanGrid(Region(0, 0, 1, 1), 0.5, 4), 1.0)
        assert w.margin == math.inf and w.color is Color.BLACK
        assert w.to_dict(UNIT)["margin"] is None
        assert verify_witness(coloring, UNIT, w)
        import dataclasses
        assert not verify_witness(coloring, UNIT, dataclasses.replace(w, margin=5.0))

    def test_first_unresolved_vertex_is_named(self):
        corners = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        island = PolygonalColoring(
            tuple(BoundaryPiece(Segment(corners[k], corners[(k + 1) % 4]), Color.BLACK)
                  for k in range(4)),
            ((Point(0.5, 0.5), Color.BLACK),), Region(-4, -4, 4, 4))
        # the sight lines of the last two points pass through the corners (0, 0), (1, 1)
        tri = (Point(5.0, 0.5), Point(-0.5, -0.5), Point(1.5, 1.5))
        with pytest.raises(UnresolvedFace, match=r"\(-0\.5, -0\.5\)"):
            _common_color(island, tri, 1e-9)


class TestAlmostUnit:
    def test_strip_guided_search(self):
        for eps in (0.2, 0.1, 0.05):
            pair = find_almost_unit(StripColoring(), eps, tries=10 ** 5, seed=42)
            assert pair is not None
            for tri, color in ((pair.black_triangle, Color.BLACK),
                               (pair.white_triangle, Color.WHITE)):
                sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]),
                         distance(tri[2], tri[0]))
                assert all(1 - eps <= s <= 1 + eps for s in sides)
                assert all(StripColoring().color_at(v) is color for v in tri)
                assert all(abs(v.x) <= 3 and abs(v.y) <= 3 for v in tri)

    def test_half_plane(self):
        pair = find_almost_unit(HalfPlaneColoring(), 0.1, tries=10 ** 4, seed=1)
        assert pair is not None

    def test_all_black_fails_white_class(self):
        pair = find_almost_unit(all_black_coloring(), 0.1, tries=3000, seed=2)
        assert pair is None

    def test_epsilon_domain(self):
        with pytest.raises(Exception):
            find_almost_unit(StripColoring(), 1.5, tries=10, seed=0)


class TestHexagonProbe:
    def test_strip_boundary_point(self):
        probe = hexagon_probe(StripColoring(), Point(0, 0))
        assert probe.feasible and probe.regular
        assert probe.alpha == pytest.approx(0.0, abs=1e-9)
        got = sorted((round(p.x, 6), round(p.y, 6)) for p in probe.points)
        want = sorted([(1.0, 0.0), (-1.0, 0.0),
                       (0.5, round(SQRT3 / 2, 6)), (-0.5, round(SQRT3 / 2, 6)),
                       (0.5, round(-SQRT3 / 2, 6)), (-0.5, round(-SQRT3 / 2, 6))])
        assert got == want

    def test_half_plane_two_hits(self):
        probe = hexagon_probe(HalfPlaneColoring(), Point(0, 0))
        assert not probe.regular
        assert len(probe.points) == 2

    def test_zigzag_feasible_points_regular(self):
        rng = np.random.default_rng(51)
        checked = 0
        while checked < 50:
            u = float(rng.uniform(0, 1))
            i = int(rng.integers(-2, 3))
            A = ZIGZAG.curve_point(i, u)
            probe = hexagon_probe(ZIGZAG, A)
            if not probe.feasible:
                continue
            checked += 1
            assert probe.regular
            assert probe.max_deviation < 1e-6
            assert -math.pi / 6 < probe.alpha <= math.pi / 6

    def test_not_on_boundary(self):
        with pytest.raises(NotOnBoundary):
            hexagon_probe(StripColoring(), Point(0.0, 0.3))

    def test_vertex_point_infeasible(self):
        peak = ZIGZAG.curve_point(0, 0.5)
        probe = hexagon_probe(ZIGZAG, peak)
        assert not probe.feasible


class TestBoundaryAngleAudit:
    def test_strip_no_vertices(self):
        assert boundary_angle_audit(StripColoring()) == []

    def test_l_shape_right_angle(self):
        entries = boundary_angle_audit(l_shape_coloring())
        assert len(entries) == 1
        assert entries[0].convex_angle == pytest.approx(math.pi / 2)
        assert distance(entries[0].vertex, Point(0, 0)) < 1e-9

    def test_zigzag_obtuse_corners_not_reported(self):
        # corner angle pi - 2*atan(0.2) ~ 2.747 exceeds 2*pi/3
        entries = boundary_angle_audit(ZIGZAG)
        assert entries == []
        corner = math.pi - 2 * math.atan(0.2)
        assert corner > 2 * math.pi / 3

    def test_sharp_zigzag_reported(self):
        sharp = ZebraColoring(ZebraProfile(((0, 0), (0.1, 0.4), (0.2, 0.0),
                                            (0.6, 0.41), (1.0, 0.0))))
        entries = boundary_angle_audit(sharp)
        assert entries
        assert all(e.convex_angle <= 2 * math.pi / 3 + 1e-9 for e in entries)


def linear_boundary_vertices(pieces, tol):
    """``_boundary_vertices`` as it was before its clusters were bucketed by
    grid cell: each endpoint tries every earlier cluster in turn."""
    ends = []
    for idx, pc in enumerate(pieces):
        if not pc.ray_start:
            ends.append((pc.seg.p, idx))
        if not pc.ray_end:
            ends.append((pc.seg.q, idx))
    clusters = []
    for p, idx in ends:
        for q, members in clusters:
            if distance(p, q) <= 10.0 * tol:
                members.append(idx)
                break
        else:
            clusters.append((p, [idx]))
    return [(p, members) for p, members in clusters if len(members) >= 2]


def _at_reach(p: Point, reach: float, dy: float) -> tuple[Point, Point]:
    """The points at height about ``p.y + dy`` right of ``p`` that lie
    furthest within ``reach`` of it and one ulp in x beyond."""
    y = p.y + dy
    if abs(y - p.y) > reach:  # rounded beyond reach
        y = p.y
    x = p.x + math.sqrt(max(reach * reach - (y - p.y) ** 2, 0.0))
    while distance(p, Point(x, y)) > reach:
        x = math.nextafter(x, -math.inf)
    while distance(p, Point(math.nextafter(x, math.inf), y)) <= reach:
        x = math.nextafter(x, math.inf)
    return Point(x, y), Point(math.nextafter(x, math.inf), y)


def clustered_pieces(rng, tol: float, scale: float) -> list[BoundaryPiece]:
    """Pieces joining endpoint clusters around well separated centers.

    A cluster holds its center, the points within 10 tol of it and one ulp
    beyond, random points within 10 tol, and a chain whose links are 0.6 of
    that reach. Half of the centers sit on a multiple of the bucket cell, so
    that their clusters straddle cell edges. A fifth of the pieces are rays
    at either end.
    """
    reach = 10.0 * tol
    cell = max(20.0 * tol, 1e-16)
    ends = []
    for k in range(24):
        cx, cy = rng.uniform(-scale, scale, 2) + 4.0 * k
        if k % 2:
            cx, cy = math.floor(cx / cell) * cell, math.floor(cy / cell) * cell
        center = Point(float(cx), float(cy))
        cluster = [center]
        for dy in (0.0, 0.6 * reach, -reach):
            cluster.extend(_at_reach(center, reach, dy))
        for dx, dy in rng.uniform(-0.7, 0.7, (3, 2)) * reach:
            cluster.append(Point(center.x + dx, center.y + dy))
        cluster += [Point(center.x - j * 0.6 * reach, center.y) for j in (1, 2, 3)]
        ends.extend(cluster)
    order = rng.permutation(len(ends))
    pieces = []
    for a, b in zip(order, np.roll(order, 7)):
        p, q = ends[a], ends[b]
        if distance(p, q) > 1.0:  # from two clusters
            pieces.append(BoundaryPiece(Segment(p, q), Color.BLACK,
                                        bool(rng.uniform() < 0.2), bool(rng.uniform() < 0.2)))
    return pieces


class TestBoundaryVertices:
    """The bucketed corner clustering equals the linear scan exactly."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-3])
    @pytest.mark.parametrize("scale", [3.0, 1e6])
    def test_matches_linear_scan(self, tol, scale):
        rng = np.random.default_rng(71)
        for _ in range(4):
            pieces = clustered_pieces(rng, tol, scale)
            got = _boundary_vertices(pieces, tol)
            assert got == linear_boundary_vertices(pieces, tol)
            assert any(len(members) > 2 for _, members in got)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_coloring_boundaries(self, tol):
        for coloring, window in ((ZIGZAG, Region(-3, -3, 3, 3)),
                                 (l_shape_coloring(), Region(-4, -4, 4, 4)),
                                 (ZebraColoring(ZebraProfile(((0, 0), (0.1, 0.4), (0.2, 0.0),
                                                              (0.6, 0.41), (1.0, 0.0))),
                                                UnitVector.from_angle(0.9)),
                                  Region(-2, -2, 3, 3))):
            pieces = coloring.boundary_segments(window)
            assert _boundary_vertices(pieces, tol) == linear_boundary_vertices(pieces, tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_shared_signed_zero_and_ulp_joints(self, tol):
        # chains whose joints are shared exactly, shared as +0.0 and -0.0, or
        # one ulp apart, so that the lookup of exact coordinates and the
        # bucket scan both decide clusters
        rng = np.random.default_rng(72)
        for _ in range(20):
            pts = [Point(0.0, -0.0), Point(-0.0, 0.0)]
            for x, y in rng.uniform(-3.0, 3.0, (10, 2)).tolist():
                pts.append(Point(x, y))
                if rng.uniform() < 0.4:
                    pts.append(Point(math.nextafter(x, math.inf), y))
            pieces = []
            for _ in range(30):
                a, b = rng.choice(len(pts), 2, replace=False)
                if distance(pts[a], pts[b]) > 1e-6:
                    pieces.append(BoundaryPiece(Segment(pts[a], pts[b]), Color.BLACK))
            got = _boundary_vertices(pieces, tol)
            # hex strings tell +0.0 from -0.0, which compare equal
            assert [(p.x.hex(), p.y.hex(), members) for p, members in got] == \
                [(p.x.hex(), p.y.hex(), members)
                 for p, members in linear_boundary_vertices(pieces, tol)]
            assert any(len(members) > 2 for _, members in got)
