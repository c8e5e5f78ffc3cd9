import hashlib
import json
import math
import re

import numpy as np
import pytest

from monotri.geom import InvalidArgument, Point, distance, rotate_about
from monotri.lines import (
    AllParallel,
    Line,
    dedup_triangles,
    solve_unit_triangles,
    sweep_oracle,
)

SQRT3 = math.sqrt(3.0)
INV_SQRT3 = 1.0 / SQRT3


def random_lines(rng, n=3):
    lines = []
    for _ in range(n):
        if rng.uniform() < 0.15:
            lines.append(Line.vertical(float(rng.uniform(-2, 2))))
        else:
            lines.append(Line.slope_intercept(float(rng.uniform(-3, 3)),
                                              float(rng.uniform(-2, 2))))
    return lines


def triangle_set_keys(tris, decimals=5):
    return sorted(tuple(sorted((round(v.x, decimals), round(v.y, decimals))
                               for v in tri)) for tri in tris)


class TestParsing:
    def test_slope_intercept(self):
        ln = Line.parse("0.5,-2")
        assert ln.slope == 0.5 and ln.intercept == -2.0

    def test_vertical(self):
        ln = Line.parse("vertical:3.5")
        assert ln.is_vertical and ln.x0 == 3.5

    def test_round_trip(self):
        for text in ("0.25,1.5", "vertical:-0.7"):
            assert Line.parse(Line.parse(text).to_text()).to_text() == \
                Line.parse(text).to_text()

    def test_nan_slope_is_refused_before_the_solver(self):
        # the solver used to return a finite solution with no triangles
        with pytest.raises(InvalidArgument, match=re.escape("line must have finite "
                                                            "coefficients, got 'nan,0.0'")) as exc:
            solve_unit_triangles(Line.slope_intercept(math.nan, 0.0),
                                 Line.slope_intercept(1.0, 0.0), Line.vertical(0.0))
        assert exc.value.param == "line"

    @pytest.mark.parametrize("make, text", [
        (lambda: Line.vertical(math.inf), "vertical:inf"),
        (lambda: Line.slope_intercept(1.0, -math.inf), "1.0,-inf"),
        (lambda: Line.parse("vertical:nan"), "vertical:nan"),
    ])
    def test_non_finite_coefficients_name_the_line(self, make, text):
        # an infinite x0 used to fail later, on a point that named no parameter
        with pytest.raises(InvalidArgument, match=re.escape(f"got {text!r}")) as exc:
            make()
        assert exc.value.param == "line"


class TestSolveUnitTriangles:
    def test_degenerate_pencil(self):
        sol = solve_unit_triangles(Line.slope_intercept(-INV_SQRT3, 0.0),
                                   Line.slope_intercept(INV_SQRT3, 0.0),
                                   Line.vertical(0.0))
        assert sol.kind == "degenerate-concurrent"
        assert sol.triangles == ()

    def test_degenerate_pencil_nonzero_intercept(self):
        sol = solve_unit_triangles(Line.slope_intercept(-INV_SQRT3, 2.0),
                                   Line.slope_intercept(INV_SQRT3, 2.0),
                                   Line.vertical(0.0))
        assert sol.kind == "degenerate-concurrent"

    def test_coincident_horizontals_and_axis(self):
        sol = solve_unit_triangles(Line.slope_intercept(0, 0),
                                   Line.slope_intercept(0, 0),
                                   Line.vertical(0))
        assert sol.kind == "finite"
        assert len(sol.triangles) == 2
        keys = triangle_set_keys(sol.triangles)
        apex = round(SQRT3 / 2, 5)
        assert keys == sorted([
            ((-0.5, 0.0), (0.0, -apex), (0.5, 0.0)),
            ((-0.5, 0.0), (0.0, apex), (0.5, 0.0)),
        ])
        for tri in sol.triangles:
            assert abs(tri[0].y) < 1e-9      # A on q1: y = 0
            assert abs(tri[1].y) < 1e-9      # B on q2: y = 0
            assert abs(tri[2].x) < 1e-9      # C on q3: x = 0

    def test_distant_lines_empty(self):
        sol = solve_unit_triangles(Line.slope_intercept(0, 0),
                                   Line.slope_intercept(0, 10),
                                   Line.vertical(0))
        assert sol.kind == "finite" and sol.triangles == ()

    def test_offset_pencil_is_finite(self):
        # pi/3 slopes but different intercepts: the degenerate branch is
        # empty, the other orientation still solves
        sol = solve_unit_triangles(Line.slope_intercept(-INV_SQRT3, 0.0),
                                   Line.slope_intercept(INV_SQRT3, 1.0),
                                   Line.vertical(0.0))
        assert sol.kind == "finite"
        oracle = sweep_oracle(Line.slope_intercept(-INV_SQRT3, 0.0),
                              Line.slope_intercept(INV_SQRT3, 1.0),
                              Line.vertical(0.0), angle_step=1e-3)
        assert len(sol.triangles) == len(oracle)

    def test_all_parallel_raises(self):
        with pytest.raises(AllParallel):
            solve_unit_triangles(Line.slope_intercept(1, 0),
                                 Line.slope_intercept(1, 2),
                                 Line.slope_intercept(1, 5))

    def test_unit_sides_and_line_membership(self):
        rng = np.random.default_rng(41)
        total = 0
        for _ in range(200):
            lines = random_lines(rng)
            try:
                sol = solve_unit_triangles(*lines)
            except AllParallel:
                continue
            assert sol.kind == "finite"
            assert len(sol.triangles) <= 8
            for tri in sol.triangles:
                total += 1
                sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]),
                         distance(tri[2], tri[0]))
                assert all(abs(s - 1.0) < 1e-9 for s in sides)
                for vertex, line in zip(tri, lines):
                    assert line.distance_to(vertex) < 1e-9
        assert total > 100

    def test_frame_independence(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            lines = random_lines(rng)
            try:
                sol = solve_unit_triangles(*lines)
            except AllParallel:
                continue
            angle = float(rng.uniform(0, 2 * math.pi))
            tx, ty = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            center = Point(0.0, 0.0)

            def move_point(p):
                r = rotate_about(p, center, angle)
                return Point(r.x + tx, r.y + ty)

            moved_lines = []
            for line in lines:
                p0 = move_point(line.anchor())
                dx, dy = line.direction()
                q = move_point(Point(line.anchor().x + dx, line.anchor().y + dy))
                ex, ey = q.x - p0.x, q.y - p0.y
                if abs(ex) < 1e-12:
                    moved_lines.append(Line.vertical(p0.x))
                else:
                    slope = ey / ex
                    moved_lines.append(Line.slope_intercept(slope, p0.y - slope * p0.x))
            sol2 = solve_unit_triangles(*moved_lines)
            assert len(sol2.triangles) == len(sol.triangles)
            moved = [tuple(move_point(v) for v in tri) for tri in sol.triangles]
            for tri in moved:
                key = sorted(tri, key=lambda p: (p.x, p.y))
                best = min(max(distance(a, b) for a, b in
                               zip(key, sorted(ot, key=lambda p: (p.x, p.y))))
                           for ot in sol2.triangles)
                assert best < 1e-8


class TestSweepOracle:
    def test_flags_infinite_family(self):
        tris = sweep_oracle(Line.slope_intercept(-INV_SQRT3, 0),
                            Line.slope_intercept(INV_SQRT3, 0),
                            Line.vertical(0), angle_step=1e-3)
        assert len(tris) >= 100

    def test_matches_solver_on_simple_instance(self):
        lines = (Line.slope_intercept(0, 0), Line.slope_intercept(0, 0),
                 Line.vertical(0))
        sol = solve_unit_triangles(*lines)
        oracle = sweep_oracle(*lines, angle_step=1e-3)
        assert triangle_set_keys(sol.triangles) == triangle_set_keys(oracle)

    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(47)
        compared = 0
        for _ in range(60):
            lines = random_lines(rng)
            try:
                sol = solve_unit_triangles(*lines)
            except AllParallel:
                continue
            oracle = sweep_oracle(*lines, angle_step=1e-3)
            assert len(oracle) == len(sol.triangles)
            skeys = triangle_set_keys(sol.triangles)
            okeys = triangle_set_keys(oracle)
            assert skeys == okeys
            compared += 1
        assert compared >= 50

    def test_step_cap(self):
        with pytest.raises(Exception):
            sweep_oracle(Line.slope_intercept(0, 0), Line.slope_intercept(1, 0),
                         Line.vertical(0), angle_step=0.01)

    @pytest.mark.parametrize("lines, digest", [
        ((Line.slope_intercept(0.4, 0.1), Line.slope_intercept(-1.3, 0.7),
          Line.vertical(0.35)), "b68d7a7d6184e20e7b63b17121bc6c549ccf9b0a211fbaf4ca1f18d333d426be"),
        # a root in the last sweep interval, closed by the wrap-around bracket
        ((Line.slope_intercept(0.3, 0.0), Line.slope_intercept(-1.2, 1.1996),
          Line.vertical(0.50035)), "5aeac201bff0ee84d8ef80bea1848670f4131c8bc73537a626358e878c0d7c15"),
        # the concurrent pencil: sampled placements of the infinite family
        ((Line.slope_intercept(-INV_SQRT3, 0), Line.slope_intercept(INV_SQRT3, 0),
          Line.vertical(0)), "4d6bc3e5b27269a3034c8d06c7c025dfe1515afa6580991a41a3366b6acb3b63"),
    ], ids=["finite", "wrap-around", "pencil"])
    def test_coordinate_digest(self, lines, digest):
        tris = sweep_oracle(*lines, angle_step=1e-3)
        coords = json.dumps([[[v.x, v.y] for v in tri] for tri in tris])
        assert hashlib.sha256(coords.encode("utf-8")).hexdigest() == digest

    @staticmethod
    def sweep_digest(instances) -> str:
        h = hashlib.sha256()
        for lines in instances:
            try:
                tris = sweep_oracle(*lines, angle_step=1e-3)
            except AllParallel:
                h.update(b"all-parallel\n")
                continue
            h.update(json.dumps([[[v.x, v.y] for v in tri] for tri in tris]).encode("utf-8")
                     + b"\n")
        return h.hexdigest()

    def test_random_instances_digest(self):
        rng = np.random.default_rng(61)
        digest = self.sweep_digest([random_lines(rng) for _ in range(200)])
        assert digest == "d9dca0baf5be6b93f64e11e29b567176f5666224b0a897c1d6e108c4e3353fd5"

    def test_near_pencil_digest(self):
        """Lines within 1e-12 of a concurrent pencil: the ccw residual stays
        under the plateau threshold, so each instance reports the sampled
        family plus the cw branch's two triangles."""
        rng = np.random.default_rng(67)
        instances = []
        for _ in range(40):
            cx, cy = (float(v) for v in rng.uniform(-1, 1, 2))
            theta = float(rng.uniform(-math.pi / 6, math.pi / 6))
            lines = []
            for k in range(3):
                a = math.tan(theta + k * math.pi / 3)
                lines.append(Line.slope_intercept(
                    a, cy - a * cx + float(rng.uniform(-1e-12, 1e-12))))
            instances.append(lines)
        assert all(len(sweep_oracle(*lines, angle_step=1e-3)) == 421 for lines in instances[:3])
        digest = self.sweep_digest(instances)
        assert digest == "34dbc3497ccee51a633b4067a38e4954b1a0aaf524b8c6c7e8bc5ad748af4460"


class TestDedup:
    def test_same_set_merged(self):
        a = (Point(0, 0), Point(1, 0), Point(0.5, SQRT3 / 2))
        b = (Point(1, 0), Point(0, 0), Point(0.5, SQRT3 / 2))
        assert len(dedup_triangles([a, b])) == 1
