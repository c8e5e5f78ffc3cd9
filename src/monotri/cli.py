"""Command-line surface: scans, checks, solvers, rendering.

Subcommands: scan, avoid, almost, check-zebra, hexagon, angles, forcing,
lines, render. Results are JSON documents written to ``--out`` or standard
output; figures are SVG. Exit status discipline: 0 for any completed
computation (an exhausted scan or a failed zebra check is an outcome, not
an error), 1 for usage, parse or schema problems, 2 for internal invariant
violations. Randomized subcommands require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .geom import DEFAULT_TOL, GeometryError, Point, Region, TriangleSpec
from .colorings import (
    Coloring,
    MalformedProfile,
    ZebraColoring,
    check_zebra_conditions,
    coloring_from_dict,
)
from .scan import (
    ScanGrid,
    avoidance_scan,
    boundary_angle_audit,
    find_almost_unit,
    find_monochromatic_copy,
    hexagon_probe,
)
from .forcing import forcing_check_i, forcing_check_ii
from .lines import AllParallel, Line, solve_unit_triangles
from .render import RenderSpec, render_svg


class ParseError(Exception):
    """The input file is not readable or not valid JSON."""


class SchemaError(Exception):
    """A required field is missing or has the wrong shape; names the field."""


class InvariantError(Exception):
    """The document parses but violates a structural invariant of its type."""


_COLOR_NAMES = ("black", "white")
_PARITY_RULES = ("even-black", "even-white")


def _require(doc: dict, field_name: str, kinds, where: str = ""):
    prefix = f"{where}." if where else ""
    if field_name not in doc:
        raise SchemaError(f"missing field '{prefix}{field_name}'")
    value = doc[field_name]
    if kinds is not None and not isinstance(value, kinds):
        raise SchemaError(f"field '{prefix}{field_name}' has wrong type")
    return value


def _require_number(doc: dict, field_name: str, where: str = "",
                    positive: bool = False) -> float:
    value = _require(doc, field_name, (int, float), where)
    if isinstance(value, bool):
        raise SchemaError(f"field '{field_name}' has wrong type")
    if positive and not value > 0:
        raise SchemaError(f"field '{field_name}' must be positive")
    return float(value)


def _require_vec2(doc: dict, field_name: str, where: str = "") -> tuple[float, float]:
    value = _require(doc, field_name, (list, tuple), where)
    if len(value) != 2 or not all(isinstance(v, (int, float)) for v in value):
        raise SchemaError(f"field '{field_name}' must be a pair of numbers")
    return float(value[0]), float(value[1])


def validate_coloring_doc(doc) -> None:
    """Field-level schema validation with diagnostics naming the field."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    kind = _require(doc, "type", str)
    if kind == "strip":
        _require_number(doc, "scale", positive=True)
        if doc.get("boundary_rule", "upper-closed") not in ("upper-closed", "lower-closed"):
            raise SchemaError("field 'boundary_rule' must be upper-closed or lower-closed")
    elif kind == "zebra":
        profile = _require(doc, "profile", list)
        if len(profile) < 2:
            raise SchemaError("field 'profile' needs at least two breakpoints")
        for i, pair in enumerate(profile):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(v, (int, float)) for v in pair)):
                raise SchemaError(f"field 'profile[{i}]' must be a [u, v] pair")
        if "x_hat" in doc:
            v = _require_vec2(doc, "x_hat")
            if v == (0.0, 0.0):
                raise SchemaError("field 'x_hat' must be nonzero")
        for field_name in ("parity_rule", "boundary_parity"):
            if doc.get(field_name, "even-black") not in _PARITY_RULES:
                raise SchemaError(f"field '{field_name}' must be one of {_PARITY_RULES}")
    elif kind == "halfplane":
        v = _require_vec2(doc, "normal")
        if v == (0.0, 0.0):
            raise SchemaError("field 'normal' must be nonzero")
        if "offset" in doc:
            _require_number(doc, "offset")
        if doc.get("closed_color", "black") not in _COLOR_NAMES:
            raise SchemaError("field 'closed_color' must be black or white")
    elif kind == "polygonal":
        segments = _require(doc, "segments", list)
        colors = _require(doc, "boundary_colors", list)
        if len(colors) != len(segments):
            raise SchemaError("field 'boundary_colors' must match 'segments' one-to-one")
        for i, raw in enumerate(segments):
            if not isinstance(raw, dict):
                raise SchemaError(f"field 'segments[{i}]' must be an object")
            _require_vec2(raw, "p", f"segments[{i}]")
            _require_vec2(raw, "q", f"segments[{i}]")
        for i, c in enumerate(colors):
            if c not in _COLOR_NAMES:
                raise SchemaError(f"field 'boundary_colors[{i}]' must be black or white")
        seeds = _require(doc, "seeds", list)
        if not seeds:
            raise SchemaError("field 'seeds' needs at least one entry")
        for i, s in enumerate(seeds):
            if not (isinstance(s, (list, tuple)) and len(s) == 3
                    and isinstance(s[0], (int, float)) and isinstance(s[1], (int, float))
                    and s[2] in _COLOR_NAMES):
                raise SchemaError(f"field 'seeds[{i}]' must be [x, y, color]")
    else:
        raise SchemaError(f"field 'type' has unknown value {kind!r}")


def parse_coloring_file(path: str) -> Coloring:
    """Load, validate and build a coloring from a JSON definition file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    validate_coloring_doc(doc)
    try:
        return coloring_from_dict(doc)
    except (MalformedProfile, GeometryError, ValueError) as exc:
        raise InvariantError(f"{path}: {exc}") from exc


def _emit(doc, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise SchemaError("expected three comma-separated numbers")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _check_finite(flag: str, values, text: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"flag '{flag}' must hold finite numbers, got {text!r}")


def _parse_region(text: str) -> Region:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise SchemaError("flag '--region' expects x0,y0,x1,y1")
    _check_finite("--region", parts, text)
    return Region(*parts)


def _parse_line(flag: str, text: str) -> Line:
    try:
        line = Line.parse(text)
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"flag '{flag}': bad line syntax: {exc}") from exc
    _check_finite(flag, (v for v in (line.slope, line.intercept, line.x0) if v is not None),
                  text)
    return line


def _check_number(flag: str, value, positive: bool = False):
    """``value`` if it is finite and >= 0 (> 0 when ``positive``)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise SchemaError(f"flag '{flag}' must be a finite number "
                          f"{'> 0' if positive else '>= 0'}, got {value!r}")
    return value


MAX_TOLERANCE = 1e-3


def _check_tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and 0.0 < tol <= MAX_TOLERANCE):
        raise SchemaError(f"flag '--tolerance' must be a finite number in "
                          f"(0, {MAX_TOLERANCE:g}], got {tol!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotri",
        description="Plane two-colorings, monochromatic triangle scans and "
                    "structural checkers.")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                        help=f"global predicate tolerance in (0, {MAX_TOLERANCE:g}] "
                             "(default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coloring=True, region=False):
        if coloring:
            p.add_argument("--coloring", required=True, help="coloring JSON file")
        if region:
            p.add_argument("--region", required=True, help="x0,y0,x1,y1")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("scan", help="find one monochromatic copy")
    add_common(p, region=True)
    p.add_argument("--triangle", required=True, help="side lengths a,b,c")
    p.add_argument("--grid", type=float, default=0.01, help="position step")
    p.add_argument("--angles", type=int, default=720, help="angle count")
    p.add_argument("--min-margin", type=float, default=0.0)

    p = sub.add_parser("avoid", help="count monochromatic placements over a grid")
    add_common(p, region=True)
    p.add_argument("--triangle", required=True)
    p.add_argument("--grid", type=float, default=0.01)
    p.add_argument("--angles", type=int, default=720)

    p = sub.add_parser("almost", help="find almost-unit triangles in both classes")
    add_common(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tries", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("check-zebra", help="verify zebra conditions (a)-(d)")
    add_common(p)

    p = sub.add_parser("hexagon", help="unit-circle boundary probe")
    add_common(p)
    p.add_argument("--point", required=True, help="boundary point x,y")
    p.add_argument("--region", help="probe window x0,y0,x1,y1")

    p = sub.add_parser("angles", help="audit boundary vertex angles")
    add_common(p)
    p.add_argument("--region", help="audit window x0,y0,x1,y1")

    p = sub.add_parser("forcing", help="eight-point forcing enumeration")
    p.add_argument("--sides", required=True, help="side lengths a,b,c")
    p.add_argument("--part", choices=("i", "ii"), required=True)
    p.add_argument("--out")

    p = sub.add_parser("lines", help="unit triangles on three lines")
    p.add_argument("--q1", required=True, help="'a,b' for y=ax+b or 'vertical:k'")
    p.add_argument("--q2", required=True)
    p.add_argument("--q3", required=True)
    p.add_argument("--out")

    p = sub.add_parser("render", help="render a coloring to SVG")
    add_common(p, region=True)
    p.add_argument("--pixels-per-unit", type=float, default=60.0)
    p.add_argument("--witness", help="witness JSON to overlay")
    return parser


def run(args: argparse.Namespace) -> int:
    tol = _check_tolerance(args.tolerance)
    cmd = args.command
    if cmd == "scan":
        coloring = parse_coloring_file(args.coloring)
        spec = TriangleSpec(*_parse_triple(args.triangle))
        grid = ScanGrid(_parse_region(args.region), args.grid, args.angles)
        witness = find_monochromatic_copy(coloring, spec, grid,
                                          _check_number("--min-margin", args.min_margin), tol)
        if witness is None:
            _emit({"result": "exhausted",
                   "placements_tested": grid.placements()}, args.out)
        else:
            _emit(witness.to_dict(spec), args.out)
        return 0
    if cmd == "avoid":
        coloring = parse_coloring_file(args.coloring)
        spec = TriangleSpec(*_parse_triple(args.triangle))
        grid = ScanGrid(_parse_region(args.region), args.grid, args.angles)
        _emit(avoidance_scan(coloring, spec, grid, tol).to_dict(), args.out)
        return 0
    if cmd == "almost":
        coloring = parse_coloring_file(args.coloring)
        tries = _check_number("--tries", args.tries, positive=True)
        pair = find_almost_unit(coloring, args.epsilon, tries, args.seed, tol)
        _emit({"result": "failure"} if pair is None else pair.to_dict(), args.out)
        return 0
    if cmd == "check-zebra":
        coloring = parse_coloring_file(args.coloring)
        if not isinstance(coloring, ZebraColoring):
            raise SchemaError("check-zebra requires a zebra coloring")
        _emit(check_zebra_conditions(coloring, tol).to_dict(), args.out)
        return 0
    if cmd == "hexagon":
        coloring = parse_coloring_file(args.coloring)
        x, y = (float(v) for v in args.point.split(","))
        window = _parse_region(args.region) if args.region else None
        probe = hexagon_probe(coloring, Point(x, y), window, tol)
        _emit(probe.to_dict(), args.out)
        return 0
    if cmd == "angles":
        coloring = parse_coloring_file(args.coloring)
        window = _parse_region(args.region) if args.region else None
        entries = boundary_angle_audit(coloring, window, tol)
        _emit({"vertices": [e.to_dict() for e in entries]}, args.out)
        return 0
    if cmd == "forcing":
        a, b, c = _parse_triple(args.sides)
        check = forcing_check_i if args.part == "i" else forcing_check_ii
        verdict = check(a, b, c, tol)
        doc = verdict.to_dict()
        doc["part"] = args.part
        doc["sides"] = [a, b, c]
        _emit(doc, args.out)
        return 0
    if cmd == "lines":
        qs = [_parse_line(f"--q{k}", text)
              for k, text in enumerate((args.q1, args.q2, args.q3), 1)]
        try:
            _emit(solve_unit_triangles(*qs, tol=tol).to_dict(), args.out)
        except AllParallel:
            _emit({"kind": "all-parallel"}, args.out)
        return 0
    if cmd == "render":
        coloring = parse_coloring_file(args.coloring)
        witness = None
        if args.witness:
            try:
                with open(args.witness, "r", encoding="utf-8") as fh:
                    witness = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ParseError(f"cannot read witness {args.witness}: {exc}") from exc
            if "vertices" not in witness:
                raise SchemaError("witness file lacks 'vertices'")
        spec = RenderSpec(coloring, _parse_region(args.region),
                          _check_number("--pixels-per-unit", args.pixels_per_unit, positive=True),
                          witness)
        svg = render_svg(spec)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        else:
            sys.stdout.write(svg)
        return 0
    raise SchemaError(f"unknown command {cmd!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return run(args)
    except (ParseError, SchemaError, InvariantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
