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
from monotri.geom import Region
from monotri.colorings import (
    PolygonalColoring,
    StripColoring,
    ZebraColoring,
    coloring_from_dict,
    l_shape_coloring,
)
from monotri.render import RenderSpec, render_svg


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
        assert SchemaError is monotri.SchemaError
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
    """The stdout bytes (sha256) of ``scan``, ``avoid``, ``check-zebra``,
    ``hexagon`` and ``angles`` over all four coloring families: witnesses,
    counts, examples, probe points and audited corners must not move."""

    @pytest.mark.parametrize("family, argv, digest", [
        ("strip", ["avoid", "--triangle", "1,1,1", "--region", "0,0,3,3", "--grid", "0.25",
                   "--angles", "12"],
         "e5c5c25151945e67e185f2a0db2148640a8472ea3294a0cf335af1867eddfef3"),
        # exhausted: the zigzag twin avoids the unit triangle
        ("zigzag", ["scan", "--triangle", "1,1,1", "--region", "0,0,2,2", "--grid", "0.2",
                    "--angles", "12"],
         "d48dd5b6b982a8eb5412f2d0947be5d5cc561f418e60b323697f6cfd78ba1be5"),
        # no monochromatic placement, 30 near misses
        ("zigzag", ["avoid", "--triangle", "1,1,1", "--region", "0,0,2,2", "--grid", "0.1",
                    "--angles", "12"],
         "29344fd437cd6f4d3615477beb1be441eddbff01a9c262f47160175f5cc86907"),
        ("halfplane", ["scan", "--triangle", "1,1,1", "--region", "0,0,4,4", "--grid", "0.1",
                       "--angles", "8", "--min-margin", "0.1"],
         "1123decf6571f5cfb2c5d88a102d4fa865ea307d9f4d03abb1674bb2d31926e7"),
        # a white witness at angle pi/2
        ("lshape", ["scan", "--triangle", "0.5,0.6,0.7", "--region=-0.3,-0.3,0.15,0.15",
                    "--grid", "0.05", "--angles", "12", "--min-margin", "0.16"],
         "59d8ff498f4a074fa9e43eebfa378222ba189e67a189a116175984df96359d48"),
        ("hexagon", ["avoid", "--triangle", "1,1,1", "--region=-2,-2,2,2", "--grid", "0.25",
                     "--angles", "6"],
         "370ab3f57a30cbb9305387d0f51209f2585edd4788a2dd628794a0da2727f7c4"),
        # witnesses whose margin is a distance to a sloped piece
        ("zigzag", ["scan", "--triangle", "0.5,0.5,0.5", "--region", "0.03,0.11,2,2", "--grid",
                    "0.07", "--angles", "7", "--min-margin", "0.01"],
         "93cf922bbad285ff08db719ce5cec1c61029a0129e9c8d0f92d75afe993916c4"),
        ("hexagon", ["scan", "--triangle", "0.5,0.5,0.5", "--region=-1.03,-0.91,1,1", "--grid",
                     "0.13", "--angles", "7", "--min-margin", "0.01"],
         "7dfa0688c97bb1958ba7ac249c6c81d0d6849598f2273d040fb3912792137d97"),
        ("flat", ["check-zebra"],
         "792acd43f7d99721f3ac152f181dad4dc97f8237ed8a114c928de50e507b39b6"),
        ("zigzag", ["check-zebra"],
         "daf73128e3354547625a138d417625241b58056de0354c59e1b505ad6a561c84"),
        # witness at a parallelogram vertex
        ("sawtooth", ["check-zebra"],
         "03ddb4833063ebb726b2d366e3483f270142115afbf687c0ebde593498b1d73e"),
        ("sawtooth-rotated", ["check-zebra"],
         "6119885e3d3f4b244b64a2855c34ff4ab6ee76081cae57b1735a02b2669a1dd4"),
        # witness inside an edge sub-interval, after 14 pairs
        ("edge-witness", ["check-zebra"],
         "00d4b012d574febc651783ee6be62f9fc9e6bd52f374317ebdc61ce88e74fcad"),
        ("zigzag-rotated", ["check-zebra"],
         "daf73128e3354547625a138d417625241b58056de0354c59e1b505ad6a561c84"),
        ("zigzag", ["hexagon", "--point", "0.2,0.04"],
         "fed3f5f666443b9dac0b69f6b88175b9e56e9820169c39a50730e8c1cba4df79"),
        ("strip", ["hexagon", "--point", "0,0"],
         "1f3172627d46a50126c1c4fbbd480083ae77aa01c475acb7c9a1256e80be1fe9"),
        ("halfplane", ["hexagon", "--point", "0,0"],
         "3c410cf2f397c1fbac22fa052d84d5ea0eaa7b9a62ac24d47132cdec9cffea3f"),
        # the corner: not feasible
        ("lshape", ["hexagon", "--point", "0,0"],
         "6759e2730fddb84ea18ff726d70282fa48686409a03c3ffb1f87f13eec1f5e4f"),
        # six hits pi/3 apart that fail the orientation check: points stay labeled
        ("three-lines", ["hexagon", "--point", "0.1,0"],
         "feeb8fa6ef10ab2b8ffec8b3d3378284757acff1484c8977329141b5d60e1056"),
        # exhausted over six strip boundaries at negative y
        ("strip", ["scan", "--triangle", "1,1,1", "--region=-1,-5.3,1,-0.2", "--grid", "0.1",
                   "--angles", "12"],
         "297856bee6d1e336d794e7cb858861243df5fb9f6cc418cc295ced426e41d36d"),
        # grid rows on the boundaries y = -4 .. -1 times sqrt(3)/2 (rounded)
        ("strip-lower", ["avoid", "--triangle", "0.5,0.5,0.5",
                         "--region=-1,-3.4641016151377544,1,-0.2",
                         "--grid", "0.4330127018922193", "--angles", "12"],
         "ddacacd9ff6487d05bdce04ae35d93df2aac88c2e045d0a39b225c839ec8976f"),
        # obtuse corners only: nothing reported
        ("zigzag-rotated", ["angles"],
         "8efe0b36a7fa51651089b950199db43906e781e6f36571f45a766bd5d370d04a"),
        ("lshape", ["angles"],
         "4d1161018ac24c02d9b71c98ac2def02f6acb8d11d7b76dd68312bcaf10a0e28"),
        # all three corners of the triangle
        ("sharp", ["angles"],
         "a5becf9fe08a59c6d605f56db98a6e3e85f72537cf079dd15ad8ddf733d86e59"),
        # 33 corners of a rotated zebra coloring
        ("sharp-zebra", ["angles"],
         "89574a97c81c59a00603ac83c10c06abbccaabc0ea2d0dce2035edc101d1059f"),
    ])
    def test_stdout_digest(self, family, argv, digest, scan_files, capsys):
        assert main(argv[:1] + ["--coloring", scan_files[family]] + argv[1:]) == 0
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
