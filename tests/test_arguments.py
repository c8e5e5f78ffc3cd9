"""The library's input contract: each entry point refuses an argument outside
its domain with ``InvalidArgument`` naming the parameter, and a zebra point
too far out to locate is unresolved rather than silently colored."""

import math
import warnings

import numpy as np
import pytest

from monotri import lines
from monotri.cli import FLAGS, main
from monotri.colorings import (StripColoring, UnresolvedFace, ZebraColoring, ZebraProfile,
                               check_zebra_conditions, l_shape_coloring)
from monotri.forcing import DegenerateSides, forcing_check_i, forcing_check_ii
from monotri.geom import Infeasible, InvalidArgument, Point, Region, TriangleSpec, UnitVector
from monotri.lines import Line, solve_unit_triangles, sweep_oracle
from monotri.render import RenderSpec
from monotri.scan import (ScanGrid, avoidance_scan, boundary_angle_audit, find_almost_unit,
                          find_monochromatic_copy, hexagon_probe, verify_witness)

ZIGZAG = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))))
UNIT = TriangleSpec(1.0, 1.0, 1.0)
SMALL_GRID = ScanGrid(Region(0.0, 0.0, 1.0, 1.0), 0.5, 4)


def refused(param, call, *args, **kwargs):
    """The ``InvalidArgument`` that ``call`` raises, after checking its name."""
    with pytest.raises(InvalidArgument) as raised:
        call(*args, **kwargs)
    assert raised.value.param == param
    assert str(raised.value).startswith(f"{param} {raised.value.reason}, got ")
    return raised.value


class TestScanGrid:
    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.5])
    def test_step_must_be_finite_and_positive(self, step):
        refused("position_step", ScanGrid, Region(0, 0, 1, 1), step, 4)

    @pytest.mark.parametrize("count", [0, -3, math.nan])
    def test_at_least_one_angle(self, count):
        refused("angle_count", ScanGrid, Region(0, 0, 1, 1), 0.5, count)

    def test_lattice_past_numpy_is_refused_before_any_array(self):
        # 1e300 translations a side used to reach np.arange, which raised
        # "Maximum allowed size exceeded"; only the grid is built here
        exc = refused("position_step", ScanGrid, Region(0, 0, 1, 1), 1e-300, 1)
        assert "numpy can index" in exc.reason
        refused("position_step", ScanGrid, Region(0, 0, 1, 1), 1e-10, 1)
        # about 1e18 translations still fit np.intp in bytes: accepted, not built
        n = ScanGrid(Region(0, 0, 1, 1), 1e-9, 1).placements()
        assert 10 ** 18 <= n <= np.iinfo(np.intp).max // 8


class TestScans:
    @pytest.mark.parametrize("coloring", [StripColoring(), ZIGZAG], ids=["strip", "zigzag"])
    def test_far_region_is_refused(self, coloring):
        # at y = 1e17 rounding flattens the unit triangle: find returned a
        # witness that verify_witness rejects
        grid = ScanGrid(Region(0, 1e17, 1, 1e17 + 16), 1e300, 4)
        exc = refused("region", find_monochromatic_copy, coloring, UNIT, grid)
        assert "too far from the origin" in exc.reason
        refused("region", avoidance_scan, coloring, UNIT, grid)

    @pytest.mark.parametrize("tol", [0.0, 1e-30])
    @pytest.mark.parametrize("scan", [find_monochromatic_copy, avoidance_scan],
                             ids=["find", "avoid"])
    def test_too_small_tol_is_named(self, scan, tol):
        # the rounding bound fails even at the origin: the region used to be
        # named, though no region could pass
        exc = refused("tol", scan, StripColoring(), TriangleSpec(0.2, 0.2, 0.2), SMALL_GRID,
                      tol=tol)
        assert "too small" in exc.reason

    @pytest.mark.parametrize("top, tol, ok", [(4e6, 1e-9, True), (1e7, 1e-9, False),
                                              (1e7, 1e-3, True)])
    def test_far_region_bound(self, top, tol, ok):
        grid = ScanGrid(Region(0, 0, 1, top), 1e300, 1)
        if ok:
            assert avoidance_scan(StripColoring(), UNIT, grid, tol).placements_tested == 1
        else:
            refused("region", avoidance_scan, StripColoring(), UNIT, grid, tol)

    def test_triangle_inequality_at_the_scan_tolerance(self):
        # the spec passes at the default tolerance but not at 1e-12, where
        # its placed copies could never verify
        spec = TriangleSpec(1.0, 1.0, 2.0 + 5e-10)
        with pytest.raises(Infeasible) as raised:
            find_monochromatic_copy(StripColoring(), spec, SMALL_GRID, tol=1e-12)
        assert raised.value.param == "sides"
        refused("sides", avoidance_scan, StripColoring(), spec, SMALL_GRID, 1e-12)
        witness = find_monochromatic_copy(StripColoring(), spec, SMALL_GRID)
        assert witness is not None and verify_witness(StripColoring(), spec, witness)

    @pytest.mark.parametrize("margin", [math.nan, -0.5, math.inf])
    def test_min_margin_must_be_finite_and_not_negative(self, margin):
        # a NaN margin used to give a silent None
        refused("min_margin", find_monochromatic_copy, StripColoring(), UNIT, SMALL_GRID,
                margin)


class TestSides:
    @pytest.mark.parametrize("sides", [(1e-170, 1e-170, 1e-170), (1e-154, 1.0, 1.0),
                                       (1e200, 1e200, 1e200), (1e154, 1e154, 1e154),
                                       (math.nan, 1.0, 1.0), (1.0, math.inf, 1.0)])
    def test_squares_in_the_normal_float_range(self, sides):
        # (1e-170,) * 3 used to place a witness whose apex equals its first
        # vertex, and verify_witness accepted it
        exc = refused("sides", TriangleSpec, *sides)
        assert "normal float range" in exc.reason
        refused("sides", forcing_check_i, *sides)

    @pytest.mark.parametrize("sides", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 3.0)])
    def test_positive_and_triangular(self, sides):
        with pytest.raises(Infeasible) as raised:
            TriangleSpec(*sides)
        assert raised.value.param == "sides"

    def test_ends_of_the_float_range_are_accepted(self):
        for a in (1e-150, 1e150):
            assert TriangleSpec(a, a, a).sides() == (a, a, a)
            assert forcing_check_i(a, a, a).verified

    def test_colliding_sides_are_named(self):
        with pytest.raises(DegenerateSides) as raised:
            forcing_check_i(1.0, 1.0 + 1e-12, 1.5)
        assert raised.value.param == "sides"


class TestOtherEntryPoints:
    @pytest.mark.parametrize("tries", [0, -5])
    def test_almost_unit_tries(self, tries):
        # both used to give a silent None, the "budget spent" verdict
        refused("tries", find_almost_unit, StripColoring(), 0.2, tries, 1)

    def test_almost_unit_seed_and_epsilon(self):
        refused("seed", find_almost_unit, StripColoring(), 0.2, 100, -1)
        for epsilon in (0.0, 1.0, 1.5, math.nan):
            refused("epsilon", find_almost_unit, StripColoring(), epsilon, 100, 1)

    @pytest.mark.parametrize("ppu", [math.inf, math.nan, 0.0, -1.0])
    def test_render_scale(self, ppu):
        refused("pixels_per_unit", RenderSpec, StripColoring(), Region(0, 0, 1, 1), ppu)

    def test_region_order(self):
        refused("region", Region, 1.0, 0.0, 0.0, 1.0)
        refused("region", Region, 0.0, math.nan, 1.0, 1.0)


# the exact pi/3 pencil through the origin
PENCIL = (Line.slope_intercept(-0.5773502691896258, 0.0),
          Line.slope_intercept(0.5773502691896258, 0.0), Line.vertical(0.0))
SMALL = TriangleSpec(0.2, 0.2, 0.2)

TOL_ENTRY_POINTS = {
    "find_monochromatic_copy": lambda tol: find_monochromatic_copy(
        StripColoring(), UNIT, SMALL_GRID, 0.0, tol),
    "avoidance_scan": lambda tol: avoidance_scan(ZIGZAG, UNIT, SMALL_GRID, tol),
    "verify_witness": lambda tol: verify_witness(
        StripColoring(), SMALL, find_monochromatic_copy(StripColoring(), SMALL, SMALL_GRID), tol),
    "find_almost_unit": lambda tol: find_almost_unit(StripColoring(), 0.2, 100, 1, tol),
    "hexagon_probe": lambda tol: hexagon_probe(StripColoring(), Point(0.0, 0.0), None, tol),
    "boundary_angle_audit": lambda tol: boundary_angle_audit(l_shape_coloring(), None, tol),
    "check_zebra_conditions": lambda tol: check_zebra_conditions(
        ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.4), (1.0, 0.0)))), tol),
    "forcing_check_i": lambda tol: forcing_check_i(2.0, 2.0, 3.0, tol),
    "forcing_check_ii": lambda tol: forcing_check_ii(2.0, 2.0, 3.0, tol),
    "solve_unit_triangles": lambda tol: solve_unit_triangles(*PENCIL, tol=tol),
    "sweep_oracle": lambda tol: sweep_oracle(*PENCIL, 1e-3, tol),
}


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
    def test_every_entry_point_names_tol(self, entry, tol):
        # at nan, check_zebra_conditions passed (d) and hexagon_probe called
        # the strip irregular; others blamed sides or raised ZeroDivisionError
        exc = refused("tol", TOL_ENTRY_POINTS[entry], tol)
        assert exc.reason == "must be a finite number >= 0"

    def test_zero_is_a_tolerance(self):
        assert forcing_check_i(2.0, 2.0, 3.0, 0.0).verified

    def test_command_line_names_the_tolerance_flag(self):
        assert FLAGS["tol"] == "--tolerance"


class TestRegionCorners:
    @pytest.mark.parametrize("corners", [(-math.inf, -2.0, 2.0, 2.0), (-2.0, -math.inf, 2.0, 2.0),
                                         (-2.0, -2.0, math.inf, 2.0), (-2.0, -2.0, 2.0, math.inf),
                                         (-math.inf, -math.inf, math.inf, math.inf)])
    def test_corners_must_be_finite(self, corners):
        # Region(-inf, -2, 2, 2) used to reach boundary_angle_audit, which
        # raised an unnamed "non-finite point"
        exc = refused("region", Region, *corners)
        assert exc.reason == "must have finite corners"


class TestSweepStep:
    @pytest.mark.parametrize("step", [math.nan, -1e-4, 0.01, 1e-300, 0.0])
    def test_angle_step_is_named(self, step, monkeypatch):
        # nan raised "cannot convert float NaN to integer", -1e-4 an
        # IndexError, 0.01 an unnamed GeometryError; 1e-300 is refused
        # before the angle table is built
        def no_table(n_steps):
            raise AssertionError(f"an angle table of {n_steps} steps was built")

        monkeypatch.setattr(lines, "_angle_table", no_table)
        refused("angle_step", sweep_oracle, *PENCIL, step)

    def test_largest_step_is_accepted(self):
        assert len(sweep_oracle(*PENCIL, 1e-3)) == 421  # the sampled pencil


class TestCommandLineNamesTheFlag:
    def test_grid_past_numpy(self, tmp_path, capsys):
        # used to exit 1 with numpy's "Maximum allowed size exceeded"
        path = tmp_path / "strip.json"
        path.write_text('{"type": "strip", "scale": 1.0}')
        assert main(["scan", "--coloring", str(path), "--triangle", "1,1,1",
                     "--region=0,0,1,1", "--grid", "1e-300", "--angles", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: flag '--grid' ")
        assert captured.err.rstrip().endswith("got 1e-300")

    def test_sides_flag_by_subcommand(self, capsys):
        assert main(["forcing", "--sides", "1,1.000000000001,1.5", "--part", "ii"]) == 1
        assert "flag '--sides'" in capsys.readouterr().err


FAR = [1e19, -1e19, 1e300, -1e300, math.inf, -math.inf, math.nan]


class TestZebraFarPoints:
    @pytest.mark.parametrize("zc", [ZIGZAG, ZebraColoring(ZIGZAG.profile,
                                                          UnitVector.from_angle(0.7))],
                             ids=["axis", "rotated"])
    def test_far_points_are_unresolved_without_warnings(self, zc):
        # (0, 1e19) used to warn "invalid value encountered in cast" and
        # come back black, on the boundary and resolved
        xs = np.array([0.0] * len(FAR) + FAR)
        ys = np.array(FAR + [0.0] * len(FAR))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, on_boundary, unresolved = zc.resolve(xs, ys)
        assert unresolved.all() and not on_boundary.any()

    @pytest.mark.parametrize("p", [Point(0.0, 1e19), Point(1e300, 0.0), Point(0.0, 2.0 ** 48)])
    def test_color_at_raises(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnresolvedFace, match="too far from the origin"):
                ZIGZAG.color_at(p)

    def test_points_below_the_bound_resolve(self):
        # every point of this call is hard, and the window locates them
        ys = np.array([2.0 ** 47, -(2.0 ** 47), 2.0 ** 48 * (1.0 - 2.0 ** -52)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unresolved = ZIGZAG.resolve(np.zeros(3), ys)[2]
        assert not unresolved.any()

    def test_near_points_keep_their_bits(self):
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(-6.0, 6.0, 2000), rng.uniform(-6.0, 6.0, 2000)
        u = rng.uniform(-3.0, 3.0, 500)
        cx, cy = ZIGZAG.curve_points(rng.integers(-4, 5, 500), u)
        xs, ys = np.concatenate((xs, cx)), np.concatenate((ys, cy))
        alone = ZIGZAG.resolve(xs, ys)
        assert not alone[2].any() and alone[1].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = ZIGZAG.resolve(np.concatenate((xs, np.zeros(len(FAR)))),
                                   np.concatenate((ys, FAR)))
        for a, m in zip(alone, mixed):
            assert np.array_equal(a, m[:xs.size])
        assert mixed[2][xs.size:].all()
