import hashlib
import json
import math

import pytest

import monotri
from monotri.cli import (
    InvariantError,
    ParseError,
    SchemaError,
    main,
    parse_coloring_file,
)
from monotri.geom import Region, UnitVector
from monotri.colorings import (
    HalfPlaneColoring,
    PolygonalColoring,
    StripColoring,
    ZebraColoring,
    coloring_from_dict,
    l_shape_coloring,
)
from monotri.render import CanvasSizeError, RenderSpec, render_svg


@pytest.fixture
def strip_file(tmp_path):
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(
        {"type": "strip", "scale": 1.0, "boundary_rule": "upper-closed"}))
    return str(path)


@pytest.fixture
def zigzag_file(tmp_path):
    path = tmp_path / "zigzag.json"
    path.write_text(json.dumps(
        {"type": "zebra", "profile": [[0, 0], [0.5, 0.1], [1, 0]],
         "x_hat": [1, 0], "parity_rule": "even-black",
         "boundary_parity": "even-black"}))
    return str(path)


@pytest.fixture
def halfplane_file(tmp_path):
    path = tmp_path / "halfplane.json"
    path.write_text(json.dumps(
        {"type": "halfplane", "normal": [0, 1], "offset": 0,
         "closed_color": "black"}))
    return str(path)


class TestParseColoringFile:
    def test_strip_echo(self, strip_file):
        coloring = parse_coloring_file(strip_file)
        assert isinstance(coloring, StripColoring)
        assert coloring.scale == 1.0

    def test_invariant_error_names_problem(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "zebra", "profile": [[0, 0], [1, 0.5]]}))
        with pytest.raises(InvariantError, match="periodic"):
            parse_coloring_file(str(path))

    def test_schema_error_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "strip", "scale": -1}))
        with pytest.raises(SchemaError, match="scale"):
            parse_coloring_file(str(path))

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_coloring_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_coloring_file("/nonexistent/coloring.json")

    def test_polygonal_schema(self):
        pc = coloring_from_dict({
            "type": "polygonal",
            "segments": [{"p": [0, 0], "q": [1, 0]}],
            "boundary_colors": ["black"],
            "seeds": [[0.5, 0.5, "black"], [0.5, -0.5, "white"]],
        })
        assert isinstance(pc, PolygonalColoring)
        with pytest.raises(SchemaError, match="boundary_colors"):
            coloring_from_dict({
                "type": "polygonal",
                "segments": [{"p": [0, 0], "q": [1, 0]}],
                "boundary_colors": [],
                "seeds": [[0.5, 0.5, "black"]],
            })


    def test_one_schema_error_class(self):
        from monotri import colorings, geom

        assert geom.SchemaError is colorings.SchemaError is monotri.SchemaError is SchemaError
        assert issubclass(SchemaError, ValueError)


SCAN = ["--triangle", "1,1,1", "--region", "0,0,1,1", "--grid", "0.5", "--angles", "4"]
HALF_LINE = {"p": [8, 0], "q": [-8, 0], "ray_end": True}


class TestBadFieldsExitOne:
    @pytest.mark.parametrize("field, doc", [
        # used to exit 2 with an IndexError
        ("window", {"type": "polygonal", "segments": [HALF_LINE], "boundary_colors": ["black"],
                    "seeds": [[0, 1, "black"], [0, -1, "white"]], "window": [0, 0, 1]}),
        # these four used to color the plane and report "exhausted" with exit 0
        ("offset", {"type": "halfplane", "normal": [0, 1], "offset": math.nan}),
        ("normal[0]", {"type": "halfplane", "normal": [math.inf, 1]}),
        ("scale", {"type": "strip", "scale": math.inf}),
        ("segments[0].ray_start",
         {"type": "polygonal", "segments": [dict(HALF_LINE, ray_start="no")],
          "boundary_colors": ["black"], "seeds": [[0, 1, "black"], [0, -1, "white"]]}),
        # used to exit 1 with "cannot convert float NaN to integer"
        ("x_hat[0]", {"type": "zebra", "profile": [[0, 0], [1, 0]], "x_hat": [math.inf, 0]}),
    ])
    def test_coloring_field(self, field, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["scan", "--coloring", str(path)] + SCAN) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"field '{field}'" in captured.err

    def test_disagreeing_seeds(self, tmp_path, capsys):
        """The L-shape with a white seed in its black quadrant exits 1, naming seeds."""
        doc = l_shape_coloring().to_dict()
        doc["seeds"].append([3.0, 3.0, "white"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["scan", "--coloring", str(path)] + SCAN) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seeds must take the colors" in captured.err

    def test_near_joints(self, tmp_path, capsys):
        """The L-shape with its y ray starting 1e-12 from the x ray's end exits 1,
        naming segments: the two ends are neither equal nor apart."""
        doc = l_shape_coloring().to_dict()
        doc["segments"][1]["p"] = [0.0, 1e-12]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["angles", "--coloring", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "segments must meet at equal ends" in captured.err

    def test_far_piece_is_refused_without_a_warning(self, tmp_path):
        """Pieces past the polygonal range of 2^197 are refused by name: under
        ``python -W error`` each document exits 1, naming segments. A piece
        near 1e261 overflowed its projection of the seed (0.5, 2.5), and the
        seed table's numpy warnings made it exit 2; the piece that ends at
        -4.4e103 constructed, and ``resolve`` warned of an overflow."""
        import subprocess
        import sys

        for name, segment, seed in (
                ("far", {"p": [1e261, -7e260], "q": [-1e214, 1e213]}, [0.5, 2.5, "black"]),
                ("warned", {"p": [3.565e-162, 1.5e-57], "q": [5.838e48, -4.4e103]},
                 [-1.32e-236, -9.74e256, "black"])):
            doc = {"type": "polygonal", "segments": [segment], "boundary_colors": ["black"],
                   "seeds": [seed]}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = subprocess.run([sys.executable, "-W", "error", "-m", "monotri.cli", "angles",
                                   "--coloring", str(path)], capture_output=True, text=True)
            assert (proc.returncode, proc.stdout) == (1, "")
            assert ("segments must have coordinates of magnitude at most 2^197, but segment 0 "
                    "does not") in proc.stderr
            assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("segments, seeds, message", [
        ([{"p": [-1, 0], "q": [1, 0]}, {"p": [0, -1], "q": [0, 1]}], [[0.5, 0.5, "black"]],
         "boundary segments 0 and 1 intersect away from their endpoints\n"),
        ([{"p": [-8, 0], "q": [8, 0], "ray_start": True, "ray_end": True}],
         [[0, 1, "white"], [2.0 ** 500, -2.0 ** 500, "black"]],
         "seeds must have coordinates of magnitude at most 2^197, but seed 1 does not, "
         "got [3.273390607896142e+150, -3.273390607896142e+150]\n"),
        # the ray y = 0, x >= 0 crosses the segment x = 5 at (5, 0)
        ([{"p": [0, 0], "q": [1, 0], "ray_end": True}, {"p": [5, -1], "q": [5, 1]},
          {"p": [0, 0], "q": [-1, 0], "ray_end": True}], [[2, 1, "white"], [2, -1, "black"]],
         "boundary segments 0 and 1 intersect away from their endpoints\n"),
    ], ids=["crossing-pieces", "seeds-past-2-500", "crossing-ray"])
    def test_polygonal_refusals(self, segments, seeds, message, tmp_path, capsys):
        doc = {"type": "polygonal", "segments": segments,
               "boundary_colors": ["black"] * len(segments), "seeds": seeds,
               "window": [-8, -8, 8, 8]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["angles", "--coloring", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}")

    @pytest.mark.parametrize("field, witness", [
        ("vertices", {"vertices": 5}),  # used to exit 2 with a TypeError
        # used to exit 1 with "not enough values to unpack"
        ("vertices[0]", {"vertices": [[1], [2, 3], [4, 5]]}),
        ("vertices[2][1]", {"vertices": [[0, 0], [1, 0], [0.5, math.nan]]}),
    ])
    def test_witness_field(self, field, witness, halfplane_file, tmp_path, capsys):
        path = tmp_path / "wit.json"
        path.write_text(json.dumps(witness))
        assert main(["render", "--coloring", halfplane_file, "--region", "0,0,4,4",
                     "--witness", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"field '{field}'" in captured.err


# Valid values of every numeric flag, per subcommand ("" for the global flag).
NUMERIC_FLAGS = {
    "": {"--tolerance": "1e-9"},
    "scan": {"--triangle": "1,1,1", "--region": "0,0,1,1", "--grid": "0.5", "--angles": "4",
             "--min-margin": "0"},
    "avoid": {"--triangle": "1,1,1", "--region": "0,0,1,1", "--grid": "0.5", "--angles": "4"},
    "almost": {"--epsilon": "0.2", "--tries": "100", "--seed": "1"},
    "hexagon": {"--point": "0,0", "--region": "-2,-2,2,2"},
    "angles": {"--region": "0,0,1,1"},
    "forcing": {"--sides": "1,1,1"},
    "lines": {"--q1": "1,0", "--q2": "-1,0", "--q3": "vertical:0.5"},
    "render": {"--region": "0,0,1,1", "--pixels-per-unit": "10"},
}


class TestEveryNumericFlag:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", ""])
    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in NUMERIC_FLAGS.items()
                                               for f in flags])
    def test_bad_value_exits_one_naming_the_flag(self, command, flag, bad, strip_file,
                                                 capsys):
        def args(cmd):
            out = []
            for f, v in NUMERIC_FLAGS[cmd].items():
                if f == flag:  # the flag's first number goes bad
                    v = bad + v[v.index(","):] if "," in v else bad
                out.append(f"{f}={v}")
            return out

        argv = args("")
        if command:
            argv.append(command)
            if command not in ("forcing", "lines"):
                argv += ["--coloring", strip_file]
            argv += args(command) + (["--part", "i"] if command == "forcing" else [])
        else:
            argv += ["forcing", "--sides", "1,1,1", "--part", "i"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse names a flag whose value is not a number as "argument --flag:"
        assert f"'{flag}'" in captured.err or f"argument {flag}:" in captured.err


ZERO_MARGIN_WITNESS = """{
  "angle": 0.0,
  "color": "black",
  "margin": 0.0,
  "spec": [
    0.5,
    0.5,
    0.5
  ],
  "translation": [
    0.0,
    -1.7320508075688772
  ],
  "vertices": [
    [
      0.0,
      -1.7320508075688772
    ],
    [
      0.5,
      -1.7320508075688772
    ],
    [
      0.25,
      -1.299038105676658
    ]
  ]
}
"""


class TestExitStatuses:
    def test_forcing_exit_zero(self, capsys):
        assert main(["forcing", "--sides", "1,1,1", "--part", "i"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True and doc["tested_colorings"] == 32

    @pytest.mark.parametrize("part", ["i", "ii"])
    def test_underflowing_sides_exit_one(self, part, capsys):
        # a base that underflows to one point used to exit 2 with ZeroDivisionError
        assert main(["forcing", "--sides", "1e-170,1e-170,1e-170", "--part", part]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--sides'" in captured.err

    @pytest.mark.parametrize("sides", ["1e-170,1e-170,1e-170", "1e-154,1,1",
                                       "1e200,1e200,1e200", "1e154,1e154,1e154"])
    @pytest.mark.parametrize("command, flag", [("scan", "--triangle"), ("avoid", "--triangle"),
                                               ("forcing", "--sides")])
    def test_sides_outside_the_float_range_exit_one(self, command, flag, sides, strip_file,
                                                    capsys):
        # squared sides that underflow to subnormals (or zero) or overflow,
        # alone or summed, used to give a degenerate witness or NaN points
        argv = [command, flag, sides]
        if command == "forcing":
            argv += ["--part", "i"]
        else:
            argv += ["--coloring", strip_file, "--region", "0,0,1,1", "--grid", "0.5",
                     "--angles", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{flag}'" in captured.err and "normal float range" in captured.err

    @pytest.mark.parametrize("command", ["scan", "avoid"])
    @pytest.mark.parametrize("region, grid, flag", [("0,0,1,1", "1e-320", "--grid"),
                                                    ("-1e308,0,1e308,1", "1", "--region")])
    def test_overflowing_axis_count_exits_one(self, command, region, grid, flag, strip_file,
                                              capsys):
        # a translation count of 1 / 1e-320 or 2e308 / 1 used to exit 2 with
        # OverflowError; the grid is rejected before any array is built
        assert main([command, "--coloring", strip_file, "--triangle", "1,1,1",
                     f"--region={region}", "--grid", grid, "--angles", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{flag}'" in captured.err and "finite" in captured.err

    @pytest.mark.parametrize("command", ["scan", "avoid"])
    @pytest.mark.parametrize("family", ["strip", "zigzag"])
    def test_far_region_exits_one(self, family, command, strip_file, zigzag_file, capsys):
        # at y = 1e17 the apex's 0.866 rounds away: scan printed a flat white
        # "unit triangle" that verify_witness rejects, and avoid counted 4
        coloring = strip_file if family == "strip" else zigzag_file
        assert main([command, "--coloring", coloring, "--triangle", "1,1,1",
                     "--region=0,1e17,1,100000000000000016", "--grid", "1e300",
                     "--angles", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--region'" in captured.err and "too far from the origin" in captured.err

    @pytest.mark.parametrize("command", ["scan", "avoid"])
    def test_too_small_tolerance_exits_one(self, command, strip_file, capsys):
        # no region passes the rounding bound at 1e-30: '--region' used to be named
        assert main(["--tolerance", "1e-30", command, "--coloring", strip_file, "--triangle",
                     "1,1,1", "--region=0,0,1,1", "--grid", "0.5", "--angles", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--tolerance'" in captured.err and "'--region'" not in captured.err

    @pytest.mark.parametrize("region, tolerance, code", [("0,0,1,4e6", "1e-9", 0),
                                                         ("0,0,1,1e7", "1e-9", 1),
                                                         ("-1e7,0,0,1", "1e-9", 1),
                                                         ("0,0,1,1e7", "1e-3", 0)])
    def test_far_region_bound(self, region, tolerance, code, strip_file, capsys):
        """2 ulp(R + s) > tol (1 + s) exits 1: R = 4e6 passes at the default tolerance."""
        assert main(["--tolerance", tolerance, "avoid", "--coloring", strip_file, "--triangle",
                     "1,1,1", f"--region={region}", "--grid", "1e300", "--angles", "1"]) == code
        assert ("'--region'" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize("region", ["-1e300,-1e300,1e300,1e300",
                                        "-1.7e308,-1.7e308,1.7e308,1.7e308", "0,0,1,1e6"])
    @pytest.mark.parametrize("command", [["hexagon", "--point", "0.2,0.04"], ["angles"],
                                         ["render"]], ids=["hexagon", "angles", "render"])
    @pytest.mark.parametrize("family", ["strip", "zigzag"])
    def test_window_too_large_exits_one(self, family, command, region, strip_file, zigzag_file,
                                        capsys):
        # a window of about 1e300 curves or lines used to run until killed;
        # its size is now checked before any boundary is built
        coloring = {"strip": strip_file, "zigzag": zigzag_file}[family]
        assert main(command + ["--coloring", coloring, f"--region={region}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--region'" in captured.err and "more than 1048576" in captured.err

    def test_probe_point_without_a_window_exits_one(self, zigzag_file, capsys):
        # the default window around x = 1e300 used to have zero width, and
        # the message named the region, which no flag had set
        assert main(["hexagon", "--coloring", zigzag_file, "--point=1e300,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--point'" in captured.err

    @pytest.mark.parametrize("command", [["angles"], ["hexagon", "--point", "0,0"]],
                             ids=["angles", "hexagon"])
    def test_default_window_too_large_names_the_document(self, command, tmp_path, capsys):
        # a strip of scale 1e-320 puts infinitely many lines in any window; the
        # message used to name '--region', which no flag had set, and end in
        # "got None"
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"type": "strip", "scale": 1e-320}))
        assert main(command + ["--coloring", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--coloring'" in captured.err and "more than 1048576" in captured.err
        assert "'--region'" not in captured.err and "None" not in captured.err

    @pytest.mark.parametrize("argv", [["--region=-1e300,-1e300,1e300,1e300"],
                                      ["--region=0,0,1,1", "--pixels-per-unit", "1e300"],
                                      ["--region=0,0,1,1", "--pixels-per-unit", "1e-300"]],
                             ids=["huge-region", "huge-scale", "tiny-scale"])
    @pytest.mark.parametrize("family", ["halfplane", "polygonal"])
    def test_absurd_canvas_exits_one(self, family, argv, halfplane_file, tmp_path, capsys):
        # these used to exit 0 with an SVG 1.2e302 or 1e300 pixels wide, or a
        # 0.0000 x 0.0000 viewBox
        polygonal = tmp_path / "polygonal.json"  # the README's document
        polygonal.write_text(json.dumps(
            {"type": "polygonal", "segments": [{"p": [16, 0], "q": [0, 0], "ray_start": True}],
             "boundary_colors": ["black"], "seeds": [[1, 1, "black"], [-1, -1, "white"]]}))
        coloring = {"halfplane": halfplane_file, "polygonal": str(polygonal)}[family]
        assert main(["render", "--coloring", coloring] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--region'" in captured.err and "'--pixels-per-unit'" in captured.err

    def test_sides_at_the_ends_of_the_float_range_run(self, capsys):
        assert main(["forcing", "--sides", "1e-150,1e-150,1e-150", "--part", "i"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        assert main(["forcing", "--sides", "1e150,1e150,1e150", "--part", "i"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_zero_margin_has_no_sign(self, scan_files, capsys):
        # the witness's first two vertices lie on the boundary y = -sqrt(3),
        # where the strip distance is -0.0
        assert main(["scan", "--coloring", scan_files["strip-lower"], "--triangle",
                     "0.5,0.5,0.5", "--region=0,-1.7320508075688772,0.1,-1.6", "--grid",
                     "0.05", "--angles", "1"]) == 0
        assert capsys.readouterr().out == ZERO_MARGIN_WITNESS

    def test_lines_all_parallel(self, capsys):
        assert main(["lines", "--q1", "1,0", "--q2", "1,1", "--q3", "1,-2.5"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": "all-parallel"}

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_witness_exits_one(self, content, halfplane_file, tmp_path, capsys):
        path = tmp_path / "wit.json"
        if content is not None:
            path.write_text(content)
        assert main(["render", "--coloring", halfplane_file, "--region", "0,0,4,4",
                     "--out", str(tmp_path / "fig.svg"), "--witness", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read witness {path}: ")
        assert not (tmp_path / "fig.svg").exists()

    def test_lines_degenerate(self, capsys):
        code = main(["lines", "--q1=-0.5773502691896258,0",
                     "--q2", "0.5773502691896258,0", "--q3", "vertical:0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "degenerate-concurrent"

    def test_exhausted_scan_is_exit_zero(self, strip_file, capsys):
        code = main(["scan", "--coloring", strip_file, "--triangle", "1,1,1",
                     "--region", "0,0,4,4", "--grid", "0.5", "--angles", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "exhausted"

    def test_failed_zebra_check_is_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "saw.json"
        path.write_text(json.dumps(
            {"type": "zebra", "profile": [[0, 0], [0.5, 0.8], [1, 0]]}))
        assert main(["check-zebra", "--coloring", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == "fail" and doc["witness"] is not None

    def test_schema_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "strip", "scale": -1}))
        code = main(["scan", "--coloring", str(path), "--triangle", "1,1,1",
                     "--region", "0,0,1,1"])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "0.01"])
    def test_bad_tolerance_exit_one(self, value, tmp_path, capsys):
        # the sawtooth fails condition (d); a NaN tolerance used to pass it
        path = tmp_path / "saw.json"
        path.write_text(json.dumps(
            {"type": "zebra", "profile": [[0, 0], [0.5, 0.8], [1, 0]]}))
        assert main([f"--tolerance={value}", "check-zebra", "--coloring", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--tolerance'" in captured.err

    @pytest.mark.parametrize("flag, argv", [
        # an infinite region used to exit 2 with OverflowError
        ("--region", ["scan", "--triangle", "1,1,1", "--region=0,0,inf,1"]),
        # a NaN margin used to report "exhausted"
        ("--min-margin", ["scan", "--triangle", "1,1,1", "--region=0,0,1,1", "--grid", "0.5",
                          "--angles", "4", "--min-margin", "nan"]),
        ("--min-margin", ["scan", "--triangle", "1,1,1", "--region=0,0,1,1", "--grid", "0.5",
                          "--angles", "4", "--min-margin=-0.5"]),
        ("--region", ["avoid", "--triangle", "1,1,1", "--region=nan,0,1,1"]),
        ("--region", ["render", "--region=0,0,1,-inf"]),
        # these two used to exit 0: a "failure" verdict and an SVG of size inf
        ("--tries", ["almost", "--epsilon", "0.2", "--seed", "1", "--tries=-5"]),
        ("--pixels-per-unit", ["render", "--region=0,0,1,1", "--pixels-per-unit", "inf"]),
        # these used to print the library's message without the flag
        ("--grid", ["scan", "--triangle", "1,1,1", "--region=0,0,1,1", "--grid", "nan"]),
        ("--triangle", ["scan", "--triangle", "nan,1,1", "--region=0,0,1,1"]),
        ("--point", ["hexagon", "--point=nan,0"]),
        ("--point", ["hexagon", "--point", "1,2,3"]),
        ("--angles", ["avoid", "--triangle", "1,1,1", "--region=0,0,1,1", "--angles", "0"]),
        ("--epsilon", ["almost", "--epsilon", "nan", "--seed", "1"]),
        ("--seed", ["almost", "--epsilon", "0.2", "--seed=-1"]),
    ])
    def test_bad_numbers_exit_one(self, flag, argv, strip_file, capsys):
        argv = argv[:1] + ["--coloring", strip_file] + argv[1:]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{flag}'" in captured.err

    @pytest.mark.parametrize("flag, argv", [
        # these used to print the library's message without the flag
        ("--triangle", ["scan", "--triangle", "1,1,5", "--region=0,0,1,1"]),
        ("--triangle", ["avoid", "--triangle", "5,1,1", "--region=0,0,1,1"]),
        ("--sides", ["forcing", "--sides", "1,1,5", "--part", "i"]),
        ("--epsilon", ["almost", "--epsilon", "1.5", "--seed", "1"]),
        ("--epsilon", ["almost", "--epsilon", "1", "--seed", "1"]),
        ("--region", ["avoid", "--triangle", "1,1,1", "--region=1,0,0,1"]),
        ("--region", ["hexagon", "--point", "0,0", "--region=1,0,0,1"]),
        ("--region", ["angles", "--region=1,0,0,1"]),
        ("--region", ["render", "--region=0,1,1,1"]),
    ])
    def test_relational_checks_name_the_flag(self, flag, argv, strip_file, capsys):
        if argv[0] != "forcing":
            argv = argv[:1] + ["--coloring", strip_file] + argv[1:]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{flag}'" in captured.err

    def test_degenerate_triangle_accepted(self, strip_file, capsys):
        assert main(["scan", "--coloring", strip_file, "--triangle", "1,1,2",
                     "--region=0,0,1,1", "--grid", "0.5", "--angles", "2"]) == 0

    def test_non_finite_line_exit_one(self, capsys):
        # a NaN slope used to print a finite, empty solution with exit 0
        assert main(["lines", "--q1=nan,0", "--q2=1,0", "--q3=vertical:0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'--q1'" in captured.err

    def test_largest_tolerance_accepted(self, zigzag_file, capsys):
        assert main(["--tolerance", "1e-3", "check-zebra", "--coloring", zigzag_file]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == "pass"

    def test_usage_error_exit_one(self, capsys):
        assert main(["scan"]) == 1

    def test_unknown_command_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1


class TestWitnessFlow:
    def test_witness_json_fields(self, halfplane_file, tmp_path, capsys):
        out = tmp_path / "wit.json"
        code = main(["scan", "--coloring", halfplane_file, "--triangle", "1,1,1",
                     "--region", "0,0,4,4", "--grid", "0.1", "--angles", "8",
                     "--min-margin", "0.1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"spec", "angle", "translation", "vertices",
                            "color", "margin"}
        assert doc["color"] == "black"
        assert doc["margin"] >= 0.1
        assert len(doc["vertices"]) == 3

    def test_render_with_overlay(self, halfplane_file, tmp_path):
        wit = tmp_path / "wit.json"
        main(["scan", "--coloring", halfplane_file, "--triangle", "1,1,1",
              "--region", "0,0,4,4", "--grid", "0.1", "--angles", "8",
              "--min-margin", "0.1", "--out", str(wit)])
        svg = tmp_path / "fig.svg"
        code = main(["render", "--coloring", halfplane_file,
                     "--region", "0,0,4,4", "--out", str(svg),
                     "--witness", str(wit)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "polygon" in text


class TestRenderDeterminism:
    def test_byte_identical(self, zigzag_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            main(["render", "--coloring", zigzag_file, "--region", "0,0,4,4",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_cross_process_determinism(self, zigzag_file, tmp_path):
        import subprocess
        import sys
        outs = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            cmd = [sys.executable, "-m", "monotri.cli", "almost",
                   "--coloring", zigzag_file, "--epsilon", "0.2",
                   "--tries", "20000", "--seed", "11", "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_strip_band_count(self):
        region = Region(0, 0, 4, 4)
        svg = render_svg(RenderSpec(StripColoring(), region))
        dark = svg.count('fill="#3a3a3a"')
        assert dark >= 3
        # exactly three black bands actually meet [0,4]^2: n = 0, 1, 2
        period = math.sqrt(3)
        visible = [n for n in range(-3, 5)
                   if n * period < region.y1 and (n + 0.5) * period > region.y0]
        assert len(visible) == 3

    @pytest.mark.parametrize("coloring", [HalfPlaneColoring(), l_shape_coloring(),
                                          ZebraColoring(x_hat=UnitVector.from_angle(0.3))],
                             ids=["halfplane", "lshape", "zebra"])
    def test_canvas_sides_from_one_to_2_20_pixels(self, coloring):
        region = Region(0.0, 0.0, 1.0, 2.0)
        for ppu in (1.0, 2.0 ** 19):  # 1 x 2 and 2^19 x 2^20 pixels
            assert render_svg(RenderSpec(coloring, region, ppu)).endswith("</svg>\n")
        for ppu in (0.5, 2.0 ** 19 * (1.0 + 2.0 ** -52)):
            with pytest.raises(CanvasSizeError, match="from 1 to 1048576 pixels"):
                render_svg(RenderSpec(coloring, region, ppu))

    def test_zebra_render_has_boundary_polylines(self):
        zc = ZebraColoring()
        svg = render_svg(RenderSpec(zc, Region(0, 0, 4, 4)))
        assert svg.count("<line") >= 4  # several curves cross the window

    def test_zebra_band_polygons(self):
        zc = ZebraColoring()
        svg = render_svg(RenderSpec(zc, Region(0, 0, 4, 4)))
        assert svg.count("<polygon") >= 2

    def test_avoid_report(self, zigzag_file, capsys):
        code = main(["avoid", "--coloring", zigzag_file, "--triangle", "1,1,1",
                     "--region", "0,0,3,3", "--grid", "0.25", "--angles", "12"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monochromatic_count"] == 0
        assert doc["placements_tested"] == 12 * 13 * 13


@pytest.fixture
def scan_files(strip_file, zigzag_file, halfplane_file, tmp_path):
    """Coloring files of all four families, by name."""
    corners = [[1.5 * math.cos(k * math.pi / 3), 1.5 * math.sin(k * math.pi / 3)]
               for k in range(6)]
    docs = {
        "lshape": l_shape_coloring().to_dict(),
        "hexagon": {"type": "polygonal",
                    "segments": [{"p": corners[k], "q": corners[(k + 1) % 6]}
                                 for k in range(6)],
                    "boundary_colors": ["black"] * 6,
                    "seeds": [[0.05, 0.03, "black"], [3.1, 0.4, "white"],
                              [-3.05, -0.35, "white"], [0.3, 3.2, "white"],
                              [-0.2, -3.3, "white"]],
                    "window": [-4, -4, 4, 4]},
        # sight lines along the x axis pass through the corners (+-1.5, 0)
        "hexagon-2-seed": {"type": "polygonal",
                           "segments": [{"p": corners[k], "q": corners[(k + 1) % 6]}
                                        for k in range(6)],
                           "boundary_colors": ["black"] * 6,
                           "seeds": [[0, 0, "black"], [3, 0, "white"]],
                           "window": [-4, -4, 4, 4]},
        # black on [-1, 1]^2, white below y = -2
        "halfplane-low": {"type": "halfplane", "normal": [0, 1], "offset": -2,
                          "closed_color": "black"},
        # no segments: one black face, so every margin is infinite
        "no-boundary": {"type": "polygonal", "seeds": [[0, 0, "black"]]},
        "strip-lower": {"type": "strip", "scale": 1.0, "boundary_rule": "lower-closed"},
        "flat": {"type": "zebra", "profile": [[0, 0], [1, 0]]},
        "sawtooth": {"type": "zebra", "profile": [[0, 0], [0.5, 0.8], [1, 0]]},
        "sawtooth-rotated": {"type": "zebra", "profile": [[0, 0], [0.5, 0.8], [1, 0]],
                             "x_hat": [0.6, 0.8]},
        # condition (d) fails only inside a parallelogram edge, not at a vertex
        "edge-witness": {"type": "zebra",
                         "profile": [[0, 0], [0.6, -0.09], [0.74, -0.17], [1, 0]]},
        "zigzag-rotated": {"type": "zebra", "profile": [[0, 0], [0.5, 0.1], [1, 0]],
                           "x_hat": [0.6, 0.8]},
        # a black triangle with corners of about 22, 63 and 95 degrees
        "sharp": {"type": "polygonal",
                  "segments": [{"p": [0, 0], "q": [3, 0]}, {"p": [3, 0], "q": [0.5, 1]},
                               {"p": [0.5, 1], "q": [0, 0]}],
                  "boundary_colors": ["black"] * 3,
                  "seeds": [[1, 0.3, "black"], [1, -1, "white"], [-1, 1, "white"],
                            [2, 2, "white"]],
                  "window": [-4, -4, 4, 4]},
        "sharp-zebra": {"type": "zebra",
                        "profile": [[0, 0], [0.1, 0.4], [0.2, 0.0], [0.6, 0.41], [1, 0]],
                        "x_hat": [0.6, 0.8]},
        # three parallel lines sqrt(3)/2 apart, all oriented along +x
        "three-lines": {"type": "polygonal",
                        "segments": [{"p": [-4, y], "q": [4, y], "ray_start": True,
                                      "ray_end": True}
                                     for y in (-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2)],
                        "boundary_colors": ["black"] * 3,
                        "seeds": [[0, -2, "black"], [0, -0.4, "white"], [0, 0.4, "black"],
                                  [0, 2, "white"]],
                        "window": [-4, -4, 4, 4]},
    }
    files = {"strip": strip_file, "zigzag": zigzag_file, "halfplane": halfplane_file}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


class TestScanBytes:
    """The stdout bytes (sha256) of ``scan``, ``avoid``, ``almost``,
    ``check-zebra``, ``hexagon`` and ``angles`` over all four coloring
    families: witnesses, counts, examples, almost-unit pairs, probe points
    and audited corners must not move.

    Every case has an explicit id (family and subcommand), so re-recording
    a pin keeps its id."""

    @pytest.mark.parametrize("family, argv, digest", [
        pytest.param("strip", ["avoid", "--triangle", "1,1,1", "--region", "0,0,3,3", "--grid",
                               "0.25", "--angles", "12"],
                     "e5c5c25151945e67e185f2a0db2148640a8472ea3294a0cf335af1867eddfef3",
                     id="strip-avoid"),
        # exhausted: the zigzag twin avoids the unit triangle
        pytest.param("zigzag", ["scan", "--triangle", "1,1,1", "--region", "0,0,2,2", "--grid",
                                "0.2", "--angles", "12"],
                     "d48dd5b6b982a8eb5412f2d0947be5d5cc561f418e60b323697f6cfd78ba1be5",
                     id="zigzag-scan-exhausted"),
        # no monochromatic placement, 30 near misses
        pytest.param("zigzag", ["avoid", "--triangle", "1,1,1", "--region", "0,0,2,2", "--grid",
                                "0.1", "--angles", "12"],
                     "29344fd437cd6f4d3615477beb1be441eddbff01a9c262f47160175f5cc86907",
                     id="zigzag-avoid"),
        pytest.param("halfplane", ["scan", "--triangle", "1,1,1", "--region", "0,0,4,4", "--grid",
                                   "0.1", "--angles", "8", "--min-margin", "0.1"],
                     "1123decf6571f5cfb2c5d88a102d4fa865ea307d9f4d03abb1674bb2d31926e7",
                     id="halfplane-scan"),
        # a white witness at angle pi/2
        pytest.param("lshape", ["scan", "--triangle", "0.5,0.6,0.7",
                                "--region=-0.3,-0.3,0.15,0.15", "--grid", "0.05", "--angles", "12",
                                "--min-margin", "0.16"],
                     "59d8ff498f4a074fa9e43eebfa378222ba189e67a189a116175984df96359d48",
                     id="lshape-scan"),
        pytest.param("hexagon", ["avoid", "--triangle", "1,1,1", "--region=-2,-2,2,2", "--grid",
                                 "0.25", "--angles", "6"],
                     "370ab3f57a30cbb9305387d0f51209f2585edd4788a2dd628794a0da2727f7c4",
                     id="hexagon-avoid"),
        # witnesses whose margin is a distance to a sloped piece
        pytest.param("zigzag", ["scan", "--triangle", "0.5,0.5,0.5", "--region", "0.03,0.11,2,2",
                                "--grid", "0.07", "--angles", "7", "--min-margin", "0.01"],
                     "93cf922bbad285ff08db719ce5cec1c61029a0129e9c8d0f92d75afe993916c4",
                     id="zigzag-scan-sloped-margin"),
        pytest.param("hexagon", ["scan", "--triangle", "0.5,0.5,0.5", "--region=-1.03,-0.91,1,1",
                                 "--grid", "0.13", "--angles", "7", "--min-margin", "0.01"],
                     "7dfa0688c97bb1958ba7ac249c6c81d0d6849598f2273d040fb3912792137d97",
                     id="hexagon-scan"),
        # 6561 translations per angle, 82 rejections; the witness margin is exactly 0.05
        pytest.param("lshape", ["scan", "--triangle", "1,1,1", "--region", "0,0,4,4", "--grid",
                                "0.05", "--angles", "16", "--min-margin", "0.05"],
                     "d7f5904ca259b8eab41d67b5f184b5608f45b416e5a1409515f599bdc6aa6403",
                     id="lshape-scan-wide-tie"),
        # 21605 translations per angle, 5 rejections before the witness
        pytest.param("zigzag", ["scan", "--triangle", "0.5,0.5,0.5", "--region", "0.03,0.11,3,3",
                                "--grid", "0.02", "--angles", "12", "--min-margin", "0.1"],
                     "ff8cb53dcd0034655253c50b5808653ab05f7c859b7a55b32b72a2150d231d2a",
                     id="zigzag-scan-wide"),
        pytest.param("strip", ["almost", "--epsilon", "0.1", "--seed", "0", "--tries", "2000"],
                     "b170cbf7112beaa43f188b14718b0a309f45ac2109aa57371a3379c3257ede3d",
                     id="strip-almost"),
        pytest.param("zigzag", ["almost", "--epsilon", "0.2", "--seed", "1", "--tries", "1000"],
                     "ffb38df2f8559aa6e999f55541cb767fc01ea1c2eed294574f0190897f7c2c03",
                     id="zigzag-almost"),
        pytest.param("lshape", ["almost", "--epsilon", "0.05", "--seed", "5", "--tries", "3000"],
                     "f5877d9fbf77c3522d1831f4e7d99c6d5761a457812887a396d7574b5e6b8790",
                     id="lshape-almost"),
        # black on [-1, 1]^2; the pair comes from the boundary line y = -2
        pytest.param("halfplane-low", ["almost", "--epsilon", "0.1", "--seed", "0", "--tries",
                                       "2000"],
                     "e0dccfb6c29a1a1df76b8ea533490eba966b7f46d7cfdd9737826a0280352560",
                     id="halfplane-low-almost"),
        pytest.param("flat", ["check-zebra"],
                     "792acd43f7d99721f3ac152f181dad4dc97f8237ed8a114c928de50e507b39b6",
                     id="flat-check-zebra"),
        pytest.param("zigzag", ["check-zebra"],
                     "daf73128e3354547625a138d417625241b58056de0354c59e1b505ad6a561c84",
                     id="zigzag-check-zebra"),
        # witness at a parallelogram vertex
        pytest.param("sawtooth", ["check-zebra"],
                     "03ddb4833063ebb726b2d366e3483f270142115afbf687c0ebde593498b1d73e",
                     id="sawtooth-check-zebra"),
        pytest.param("sawtooth-rotated", ["check-zebra"],
                     "6119885e3d3f4b244b64a2855c34ff4ab6ee76081cae57b1735a02b2669a1dd4",
                     id="sawtooth-rotated-check-zebra"),
        # witness inside an edge sub-interval, after 14 pairs
        pytest.param("edge-witness", ["check-zebra"],
                     "00d4b012d574febc651783ee6be62f9fc9e6bd52f374317ebdc61ce88e74fcad",
                     id="edge-witness-check-zebra"),
        pytest.param("zigzag-rotated", ["check-zebra"],
                     "daf73128e3354547625a138d417625241b58056de0354c59e1b505ad6a561c84",
                     id="zigzag-rotated-check-zebra"),
        pytest.param("zigzag", ["hexagon", "--point", "0.2,0.04"],
                     "fed3f5f666443b9dac0b69f6b88175b9e56e9820169c39a50730e8c1cba4df79",
                     id="zigzag-hexagon"),
        pytest.param("strip", ["hexagon", "--point", "0,0"],
                     "1f3172627d46a50126c1c4fbbd480083ae77aa01c475acb7c9a1256e80be1fe9",
                     id="strip-hexagon"),
        pytest.param("halfplane", ["hexagon", "--point", "0,0"],
                     "3c410cf2f397c1fbac22fa052d84d5ea0eaa7b9a62ac24d47132cdec9cffea3f",
                     id="halfplane-hexagon"),
        # the corner: not feasible
        pytest.param("lshape", ["hexagon", "--point", "0,0"],
                     "6759e2730fddb84ea18ff726d70282fa48686409a03c3ffb1f87f13eec1f5e4f",
                     id="lshape-hexagon"),
        # six hits pi/3 apart that fail the orientation check: points stay labeled
        pytest.param("three-lines", ["hexagon", "--point", "0.1,0"],
                     "feeb8fa6ef10ab2b8ffec8b3d3378284757acff1484c8977329141b5d60e1056",
                     id="three-lines-hexagon"),
        # exhausted over six strip boundaries at negative y
        pytest.param("strip", ["scan", "--triangle", "1,1,1", "--region=-1,-5.3,1,-0.2", "--grid",
                               "0.1", "--angles", "12"],
                     "297856bee6d1e336d794e7cb858861243df5fb9f6cc418cc295ced426e41d36d",
                     id="strip-scan"),
        # grid rows on the boundaries y = -4 .. -1 times sqrt(3)/2 (rounded)
        pytest.param("strip-lower", ["avoid", "--triangle", "0.5,0.5,0.5",
                                     "--region=-1,-3.4641016151377544,1,-0.2", "--grid",
                                     "0.4330127018922193", "--angles", "12"],
                     "ddacacd9ff6487d05bdce04ae35d93df2aac88c2e045d0a39b225c839ec8976f",
                     id="strip-lower-avoid"),
        # the zero-margin white "witness" of the upper-closed strip, which avoids
        # the unit triangle exactly: ROADMAP item 4 will change these bytes on purpose
        pytest.param("strip", ["scan", "--triangle", "1,1,1",
                               "--region=-1,-3.4641016151377544,1,-0.2", "--grid",
                               "0.4330127018922193", "--angles", "12"],
                     "c9e5b335d9c4f4f09ba39a8c599ff38b1f603f9320d9a7c9984235ade64d5d29",
                     id="strip-scan-zero-margin"),
        # five zero-margin monochromatic placements at angle 4, one per column
        pytest.param("strip", ["avoid", "--triangle", "1,1,1",
                               "--region=-1,-3.4641016151377544,1,-0.2", "--grid",
                               "0.4330127018922193", "--angles", "12"],
                     "60136eaf1f7769e4f93dc9fc0ed768304917a3093d34271c5033f599e96f7da8",
                     id="strip-avoid-zero-margin"),
        # obtuse corners only: nothing reported
        pytest.param("zigzag-rotated", ["angles"],
                     "8efe0b36a7fa51651089b950199db43906e781e6f36571f45a766bd5d370d04a",
                     id="zigzag-rotated-angles"),
        pytest.param("lshape", ["angles"],
                     "4d1161018ac24c02d9b71c98ac2def02f6acb8d11d7b76dd68312bcaf10a0e28",
                     id="lshape-angles"),
        # all three corners of the triangle
        pytest.param("sharp", ["angles"],
                     "a5becf9fe08a59c6d605f56db98a6e3e85f72537cf079dd15ad8ddf733d86e59",
                     id="sharp-angles"),
        # 33 corners of a rotated zebra coloring
        pytest.param("sharp-zebra", ["angles"],
                     "89574a97c81c59a00603ac83c10c06abbccaabc0ea2d0dce2035edc101d1059f",
                     id="sharp-zebra-angles"),
    ])
    def test_stdout_digest(self, family, argv, digest, scan_files, capsys):
        assert main(argv[:1] + ["--coloring", scan_files[family]] + argv[1:]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestExactBytes:
    """The stdout bytes (sha256) of the exact subcommands, ``forcing`` in both
    parts and ``lines``: every logged coloring, forced triple, multiset and
    solved triangle must not move."""

    @pytest.mark.parametrize("argv, digest", [
        pytest.param(["forcing", "--sides", "2,2,3", "--part", "i"],
                     "b7acfb009a1ea5cce0d23896652806207e23f842498b9962f33816bd3a58aa7b",
                     id="forcing-2-2-3-i"),
        pytest.param(["forcing", "--sides", "2,2,3", "--part", "ii"],
                     "8086b28560c69e4d62382a61e4b6b676257fcf870d4ff0678fc0669a28281282",
                     id="forcing-2-2-3-ii"),
        pytest.param(["forcing", "--sides", "1.3,2.1,2.9", "--part", "i"],
                     "c991e4737320c1b35f2fe645819d6524b35134ead71f115652b804742348c602",
                     id="forcing-1.3-2.1-2.9-i"),
        pytest.param(["forcing", "--sides", "1.3,2.1,2.9", "--part", "ii"],
                     "4d17305b15acb64401e0f9f9dc8f91d369ccd631f36413a8678c4376b5ba203c",
                     id="forcing-1.3-2.1-2.9-ii"),
        # every triple of the unit configuration is a lattice triangle
        pytest.param(["forcing", "--sides", "1,1,1", "--part", "i"],
                     "53d6f9dd61efda6dcc37874f0c203554ab812d27794001fbdb1e282a0da59798",
                     id="forcing-1-1-1-i"),
        pytest.param(["forcing", "--sides", "1,1,1", "--part", "ii"],
                     "b1914fd13464fcde9f654177f5a91c7d219260319d415abedd47df58adc12144",
                     id="forcing-1-1-1-ii"),
        # four unit triangles, two per orientation
        pytest.param(["lines", "--q1", "0,0", "--q2", "1,0", "--q3", "vertical:0.3"],
                     "5154b43c1a51772d75931d925aac86e127cb711661170f8707f835de25b7c109",
                     id="lines-finite"),
    ])
    def test_stdout_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestUnresolvedVertices:
    """Scans skip the placements with a vertex that no seed reaches."""

    ARGV = ["--triangle", "1,1,1", "--region=-1,-1,1,1", "--grid", "0.5", "--angles", "12"]

    def test_avoid_counts_them(self, scan_files, capsys):
        assert main(["avoid", "--coloring", scan_files["hexagon-2-seed"]] + self.ARGV) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unresolved"] == 6
        assert doc["placements_tested"] == 12 * 5 * 5

    def test_scan_passes_them(self, scan_files, capsys):
        argv = ["scan", "--coloring", scan_files["hexagon-2-seed"], "--min-margin", "0.8"]
        assert main(argv + self.ARGV) == 0
        assert json.loads(capsys.readouterr().out)["result"] == "exhausted"


class TestStrictJson:
    def test_infinite_margin_prints_null(self, scan_files, capsys):
        argv = ["scan", "--coloring", scan_files["no-boundary"], "--triangle", "1,1,1",
                "--region", "0,0,1,1", "--grid", "0.5", "--angles", "4", "--min-margin", "1"]
        assert main(argv) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["margin"] is None and doc["color"] == "black"


class TestOtherCommands:
    def test_hexagon(self, strip_file, capsys):
        assert main(["hexagon", "--coloring", strip_file, "--point", "0,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regular"] is True and doc["feasible"] is True
        assert len(doc["points"]) == 6

    def test_angles(self, zigzag_file, capsys):
        assert main(["angles", "--coloring", zigzag_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vertices"] == []

    def test_almost_requires_seed(self, strip_file):
        assert main(["almost", "--coloring", strip_file, "--epsilon", "0.1"]) == 1

    def test_almost_runs(self, strip_file, capsys):
        code = main(["almost", "--coloring", strip_file, "--epsilon", "0.2",
                     "--tries", "20000", "--seed", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "black" in doc and "white" in doc

    def test_check_zebra_requires_zebra(self, strip_file):
        assert main(["check-zebra", "--coloring", strip_file]) == 1


# The parent package's 61 public names by defining module. ``__all__`` also
# lists the six submodules, which the package used to import eagerly.
EXPORTS = {
    "geom": ["DEFAULT_TOL", "Circle", "CircleHit", "DegenerateSegment", "DistanceMismatch",
             "GeometryError", "Infeasible", "Point", "Region", "RigidMotion", "SchemaError",
             "Segment", "TriangleSpec", "UnitVector", "distance", "place_triangle",
             "rotate_about", "third_vertex"],
    "colorings": ["BoundaryPiece", "Color", "HalfPlaneColoring", "MalformedProfile",
                  "PolygonalColoring", "StripColoring", "UnresolvedFace", "ZebraColoring",
                  "ZebraConditionReport", "ZebraProfile", "all_black_coloring",
                  "check_zebra_conditions", "circle_polyline_intersections",
                  "coloring_from_dict", "l_shape_coloring"],
    "scan": ["AlmostUnitPair", "AvoidanceReport", "HexagonProbe", "NotOnBoundary", "ScanGrid",
             "ScanWitness", "avoidance_scan", "boundary_angle_audit", "find_almost_unit",
             "find_monochromatic_copy", "hexagon_probe", "verify_witness"],
    "forcing": ["ConstructionInconsistent", "DegenerateSides", "EightPointConfig",
                "ForcingVerdict", "TripleClassification", "build_config", "classify_triples",
                "forcing_check_i", "forcing_check_ii"],
    "lines": ["AllParallel", "Line", "LinesSolution", "solve_unit_triangles", "sweep_oracle"],
    "render": ["RenderSpec", "render_svg"],
}

# Runs ``monotri.cli.main`` on its arguments, then reports the modules loaded
# on the last line of stderr.
FRESH_MAIN = """
import json, sys
from monotri.cli import main
status = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(status)
"""


def run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this checkout's monotri."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(monotri.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc


class TestImportContract:
    """Each subcommand loads only the modules it runs; ``import monotri`` is lazy."""

    @staticmethod
    def fresh_main(argv):
        proc = run_fresh(FRESH_MAIN, *argv)
        return proc.stdout, set(json.loads(proc.stderr.decode("utf-8").splitlines()[-1]))

    @pytest.mark.parametrize("argv", [
        ["forcing", "--sides", "2,2,3", "--part", "i"],
        ["lines", "--q1=-0.5773502691896258,0", "--q2", "0.5773502691896258,0",
         "--q3", "vertical:0"],
    ], ids=["forcing", "lines"])
    def test_without_numpy(self, argv, capsys):
        stdout, modules = self.fresh_main(argv)
        assert "numpy" not in modules
        assert main(argv) == 0
        assert stdout == capsys.readouterr().out.encode("utf-8")

    def test_check_zebra_loads_no_scan_or_solver(self, zigzag_file, capsys):
        argv = ["check-zebra", "--coloring", zigzag_file]
        stdout, modules = self.fresh_main(argv)
        assert "monotri.colorings" in modules
        assert not modules & {"monotri.scan", "monotri.forcing", "monotri.lines",
                              "monotri.render"}
        assert main(argv) == 0
        assert stdout == capsys.readouterr().out.encode("utf-8")

    def test_bare_import_and_star_import(self):
        proc = run_fresh(
            "import json, sys\n"
            "import monotri\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('monotri.'))))\n"
            "namespace = {}\n"
            "exec('from monotri import *', namespace)\n"
            "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n")
        bare, star = proc.stdout.decode("utf-8").splitlines()
        assert json.loads(bare) == []
        assert json.loads(star) == monotri.__all__

    def test_all_is_pinned(self):
        import importlib

        assert monotri.__all__ == sorted([*EXPORTS, *(n for names in EXPORTS.values()
                                                      for n in names)])
        assert len(monotri.__all__) == 67
        assert set(monotri.__all__) <= set(dir(monotri))
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"monotri.{module}")
            assert getattr(monotri, module) is home
            for name in names:
                assert getattr(monotri, name) is getattr(home, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            monotri.no_such_name
        with pytest.raises(ImportError):
            from monotri import no_such_name  # noqa: F401
