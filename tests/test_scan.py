import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from monotri.geom import (GeometryError, InvalidArgument, Point, Region, Segment, TriangleSpec,
                          UnitVector, distance)
from monotri.colorings import (
    BoundaryPiece,
    Color,
    PieceTable,
    HalfPlaneColoring,
    PolygonalColoring,
    StripColoring,
    UnresolvedFace,
    ZebraColoring,
    ZebraProfile,
    all_black_coloring,
    l_shape_coloring,
)
import monotri.scan as scan_module
from monotri.scan import (
    NotOnBoundary,
    _common_color,
    ScanGrid,
    avoidance_scan,
    boundary_angle_audit,
    default_probe_window,
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


def assert_almost_pair(coloring, pair, eps):
    """Each triangle lies in [-3, 3]^2, has sides in [1 - eps, 1 + eps] and
    takes its class's color at every vertex."""
    assert pair is not None
    for tri, color in ((pair.black_triangle, Color.BLACK), (pair.white_triangle, Color.WHITE)):
        sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]), distance(tri[2], tri[0]))
        assert all(1 - eps <= s <= 1 + eps for s in sides)
        assert all(coloring.color_at(v) is color for v in tri)
        assert all(abs(v.x) <= 3 and abs(v.y) <= 3 for v in tri)


@pytest.fixture
def phase_three_tries(monkeypatch):
    """The colors that ``_common_color`` returns, one per call: phase 3 of
    the almost-unit search is its only caller there."""
    colors, common_color = [], scan_module._common_color

    def spy(coloring, points, tol):
        colors.append(common_color(coloring, points, tol))
        return colors[-1]

    monkeypatch.setattr(scan_module, "_common_color", spy)
    return colors


class TestAlmostUnit:
    def test_strip_guided_search(self):
        for eps in (0.2, 0.1, 0.05):
            pair = find_almost_unit(StripColoring(), eps, tries=10 ** 5, seed=42)
            assert_almost_pair(StripColoring(), pair, eps)

    def test_half_plane(self):
        pair = find_almost_unit(HalfPlaneColoring(), 0.1, tries=10 ** 4, seed=1)
        assert pair is not None

    def test_pair_from_the_boundary_outside_the_inner_square(self, phase_three_tries):
        """Black on all of [-1, 1]^2: the pair straddles the line y = -2,
        and the circles about it give both classes without phase 3."""
        hp = HalfPlaneColoring(UnitVector(0.0, 1.0), -2.0)
        pair = find_almost_unit(hp, 0.1, tries=10 ** 5, seed=0)
        assert_almost_pair(hp, pair, 0.1)
        assert pair.black_triangle[0].y > -2.0 > pair.white_triangle[0].y
        assert phase_three_tries == []

    def test_the_pair_spends_no_tries(self):
        # one try: the first circle's samples alone overdraw the budget
        assert_almost_pair(StripColoring(), find_almost_unit(StripColoring(), 0.1, tries=1), 0.1)

    def test_phase_three_supplies_the_missing_class(self, phase_three_tries):
        """The pair straddles a black strip 0.1 wide, whose unit circles meet it
        only in two short arcs a diameter apart, so the walk closes no black
        triangle; random unit triangles then find one in the half-plane x >= 1."""
        ray = {"ray_start": True, "ray_end": True}
        pieces = (BoundaryPiece(Segment(Point(-1.9, -4.0), Point(-1.9, 4.0)), Color.BLACK, **ray),
                  BoundaryPiece(Segment(Point(-1.8, 4.0), Point(-1.8, -4.0)), Color.BLACK, **ray),
                  BoundaryPiece(Segment(Point(1.0, -4.0), Point(1.0, 4.0)), Color.BLACK, **ray))
        seeds = ((Point(-3.0, 0.0), Color.WHITE), (Point(-1.85, 0.0), Color.BLACK),
                 (Point(0.0, 0.0), Color.WHITE), (Point(2.0, 0.0), Color.BLACK))
        pc = PolygonalColoring(pieces, seeds, Region(-4.0, -4.0, 4.0, 4.0))
        pair = find_almost_unit(pc, 0.1, tries=10 ** 4, seed=0)
        assert_almost_pair(pc, pair, 0.1)
        assert pair.white_triangle[0] == Point(-1.90625, 0.0)  # the pair's white point
        assert phase_three_tries[-1] is Color.BLACK
        assert phase_three_tries.count(Color.BLACK) == 1
        assert all(v.x > 1.0 for v in pair.black_triangle)
        tri = pair.black_triangle
        assert [distance(tri[k], tri[k - 1]) for k in range(3)] == pytest.approx([1.0] * 3,
                                                                                 abs=1e-12)

    def test_a_square_too_full_of_boundary_leaves_both_classes_to_phase_3(
            self, phase_three_tries):
        # [-2, 2]^2 holds about 9e6 lines of this strip, more than a window may
        strips = StripColoring(1e-6)
        assert_almost_pair(strips, find_almost_unit(strips, 0.1, tries=10 ** 4, seed=0), 0.1)
        assert {Color.BLACK, Color.WHITE} <= set(phase_three_tries)

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

    def test_polygonal_rays_are_unbounded(self):
        # the L-shape's y ray is stored as (0, 0) -> (0, 16)
        for y, want in ((15.5, [[0.0, 14.5], [0.0, 16.5]]), (20.0, [[0.0, 19.0], [0.0, 21.0]])):
            probe = hexagon_probe(l_shape_coloring(), Point(0.0, y))
            assert probe.to_dict()["points"] == want and probe.feasible
        probe = hexagon_probe(HalfPlaneColoring(UnitVector(1.0, 0.0), 0.0), Point(0.0, 20.0))
        assert probe.to_dict()["points"] == [[0.0, 19.0], [0.0, 21.0]]

    def test_far_out_probes_are_refused(self):
        """Where rounding moves a point of the unit circle by more than the
        tolerance, the centre is refused, naming ``point``, before any piece
        is measured and without a warning. At (0, 1e308), (0, 1e308 +- 1)
        round to the centre: the probe used to report a feasible hexagon
        with no points. The rule is ``_check_scan``'s: R = 4e6 passes and
        R = 1e7 does not, at the default tolerance."""
        pc = PolygonalColoring(
            (BoundaryPiece(Segment(Point(5.0, 0.0), Point(5.0, 16.0)), Color.BLACK, ray_end=True),
             BoundaryPiece(Segment(Point(0.0, 0.0), Point(0.0, 1.0)), Color.BLACK, ray_end=True)),
            ((Point(2.0, 0.0), Color.BLACK),), Region(-16.0, -16.0, 16.0, 16.0))
        window = Region(-2.0, 1e308 - 1e300, 2.0, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coloring in (pc, l_shape_coloring()):
                with pytest.raises(InvalidArgument, match="^point lies too far from the origin"):
                    hexagon_probe(coloring, Point(0.0, 1e308), window)
            for y, refused in ((4e6, False), (1e7, True)):
                probe = lambda: hexagon_probe(pc, Point(0.0, y))  # noqa: E731
                if refused:
                    with pytest.raises(InvalidArgument, match="^point "):
                        probe()
                else:
                    assert probe().to_dict()["points"] == [[0.0, y - 1.0], [0.0, y + 1.0]]
        with pytest.raises(InvalidArgument, match="^tol "):
            hexagon_probe(pc, Point(0.0, 0.5), None, 0.0)


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

    def test_corners_do_not_depend_on_tol(self):
        """The ``sharp-zebra`` document's 33 corners at tol 0, 1e-12 and 1e-9;
        clustering ends within 10 tol found 29 at tol 0, where a clipped end
        misses the next piece's start by an ulp."""
        sharp = ZebraColoring(SHARP, UnitVector(0.6, 0.8))
        audits = [[e.to_dict() for e in boundary_angle_audit(sharp, None, tol)]
                  for tol in (0.0, 1e-12, 1e-9)]
        assert len(audits[0]) == 33 and audits[1] == audits[0] == audits[2]


def linear_boundary_vertices(table: PieceTable, tol: float):
    """Corners as endpoint clusters: each bounded end, in piece order, a
    before b, joins the first earlier cluster whose first point lies within
    10 tol of it, else starts one; the clusters of two or more ends, as
    (point, pieces)."""
    ends = []
    for k in range(len(table)):
        if not table.ray_start[k]:
            ends.append((Point(float(table.ax[k]), float(table.ay[k])), k))
        if not table.ray_end[k]:
            ends.append((Point(float(table.bx[k]), float(table.by[k])), k))
    clusters = []
    for p, idx in ends:
        for q, members in clusters:
            if distance(p, q) <= 10.0 * tol:
                members.append(idx)
                break
        else:
            clusters.append((p, [idx]))
    return [(p, members) for p, members in clusters if len(members) >= 2]


def table_vertices(table: PieceTable):
    """The table's vertices as (point, pieces), each piece once per end that
    references the vertex, in piece order, a before b."""
    refs = [(int(v), k) for k in range(len(table)) for v in (table.v0[k], table.v1[k]) if v >= 0]
    return [(Point(float(x), float(y)), [k for v, k in refs if v == m])
            for m, (x, y) in enumerate(zip(table.vx, table.vy))]


def hex_vertices(vertices):
    # hex strings tell +0.0 from -0.0, which compare equal
    return [(p.x.hex(), p.y.hex(), members) for p, members in vertices]


SHARP = ZebraProfile(((0, 0), (0.1, 0.4), (0.2, 0.0), (0.6, 0.41), (1.0, 0.0)))


def star_pieces(rng, scale: float) -> list[BoundaryPiece]:
    """Pieces joining centers spread 4 apart along the diagonal, several at
    each: their ends are equal, as +0.0 and -0.0 where a center's x is zero,
    or, at the seeds used, far apart. A fifth of the sides are rays."""
    centers = []
    for k in range(24):
        cx, cy = (rng.uniform(-scale, scale, 2) + 4.0 * k).tolist()
        centers.append([(cx, cy)] if k % 3 else [(0.0, cy), (-0.0, cy)])
    pieces = []
    for _ in range(60):
        i, j = rng.choice(len(centers), 2, replace=False)
        p, q = (centers[c][int(rng.integers(len(centers[c])))] for c in (i, j))
        pieces.append(BoundaryPiece(Segment(Point(*p), Point(*q)), Color.BLACK,
                                    bool(rng.uniform() < 0.2), bool(rng.uniform() < 0.2)))
    return pieces


class TestBoundaryVertices:
    """The vertex ids are the linear clustering of ends where that is
    well defined: on polygonal documents, whose ends are equal or apart,
    and on zebra windows at tol 1e-12 to 1e-6."""

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 1e-3])
    @pytest.mark.parametrize("scale", [3.0, 1e6])
    def test_matches_linear_scan(self, tol, scale):
        rng = np.random.default_rng(71)
        for _ in range(4):
            table = PieceTable.of(tuple(star_pieces(rng, scale)))
            got = table_vertices(table)
            assert hex_vertices(got) == hex_vertices(linear_boundary_vertices(table, tol))
            assert any(len(members) > 2 for _, members in got)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_coloring_boundaries(self, tol):
        """The ids are the clusters at 1e-9 whatever tol the audit takes;
        on the rotated sharp profile the clusters at tol 0 lose joints where
        a clipped end lies an ulp from the next piece's start."""
        for coloring, window in ((ZIGZAG, Region(-3, -3, 3, 3)),
                                 (l_shape_coloring(), Region(-4, -4, 4, 4)),
                                 (ZebraColoring(SHARP, UnitVector.from_angle(0.9)),
                                  Region(-2, -2, 3, 3))):
            table = coloring.boundary_segments(window)
            got = table_vertices(table)
            assert hex_vertices(got) == hex_vertices(linear_boundary_vertices(table, 1e-9))
            corners = [e.vertex for e in boundary_angle_audit(coloring, window, tol)]
            assert set(corners) <= {p for p, members in got if len(members) == 2}
        assert hex_vertices(got) != hex_vertices(linear_boundary_vertices(table, 0.0))

    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
    def test_shared_signed_zero_and_ulp_joints(self, tol):
        # chains whose joints are shared exactly or as +0.0 and -0.0 make
        # vertices at their first end; a joint one ulp off is refused
        rng = np.random.default_rng(72)
        for _ in range(20):
            pts = [Point(0.0, -0.0), Point(-0.0, 0.0)]
            for x, y in rng.uniform(-3.0, 3.0, (10, 2)).tolist():
                pts.append(Point(x, y))
            pieces = []
            for _ in range(30):
                a, b = rng.choice(len(pts), 2, replace=False)
                if distance(pts[a], pts[b]) > 1e-6:
                    pieces.append(BoundaryPiece(Segment(pts[a], pts[b]), Color.BLACK))
            table = PieceTable.of(tuple(pieces))
            got = table_vertices(table)
            assert hex_vertices(got) == hex_vertices(linear_boundary_vertices(table, tol))
            assert any(len(members) > 2 for _, members in got)
            p = pieces[0].seg.p
            off = Point(math.nextafter(p.x, math.inf), p.y)
            with pytest.raises(InvalidArgument, match="^segments must meet at equal ends"):
                PieceTable.of(tuple(pieces) + (BoundaryPiece(Segment(off, Point(9.0, 9.0)),
                                                             Color.BLACK),))

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_zebra_probe_windows(self, tol):
        rng = np.random.default_rng(73)
        for k in range(24):
            zc = ZebraColoring(SHARP if k % 2 else ZIGZAG.profile,
                               UnitVector.from_angle(float(rng.uniform(0.0, 2 * math.pi))))
            A = zc.curve_point(int(rng.integers(-3, 4)), float(rng.uniform(0.0, 1.0)))
            table = zc.boundary_segments(default_probe_window(A))
            got = table_vertices(table)
            assert got and hex_vertices(got) == hex_vertices(linear_boundary_vertices(table, tol))
