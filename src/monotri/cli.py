"""Command-line surface: scans, checks, solvers, rendering.

Subcommands: scan, avoid, almost, check-zebra, hexagon, angles, forcing,
lines, render. Results are JSON documents written to ``--out`` or standard
output; figures are SVG. Exit status discipline: 0 for any completed
computation (an exhausted scan or a failed zebra check is an outcome, not
an error), 1 for usage, parse or schema problems, 2 for internal invariant
violations. Randomized subcommands require an explicit ``--seed``.

Only ``geom`` loads with this module; each subcommand imports the library
entry points it runs when it runs, so ``forcing`` and ``lines`` never load
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Optional

from .geom import (DEFAULT_TOL, GeometryError, Point, Region, SchemaError, TriangleSpec,
                   WindowTooLarge, triangle_inequality_ok)

if TYPE_CHECKING:
    from .colorings import Coloring
    from .lines import Line
    from .scan import ScanGrid


class ParseError(Exception):
    """The input file is not readable or not valid JSON."""


class InvariantError(Exception):
    """The document parses but violates a structural invariant of its type."""


def parse_coloring_file(path: str) -> Coloring:
    """Load and build a coloring from a JSON definition file.

    A bad field raises ``SchemaError`` naming it; a coloring that breaks an
    invariant of its type raises ``InvariantError``.
    """
    from .colorings import coloring_from_dict

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    try:
        return coloring_from_dict(doc)
    except SchemaError:
        raise
    except (GeometryError, ValueError) as exc:
        raise InvariantError(f"{path}: {exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, out: Optional[str]) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _check_finite(flag: str, values, text: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise SchemaError(f"flag '{flag}' must hold finite numbers, got {text!r}")


def _parse_numbers(flag: str, text: str, count: int) -> list[float]:
    """The ``count`` comma-separated finite numbers of ``flag``."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise SchemaError(f"flag '{flag}' expects {count} comma-separated numbers, got {text!r}")
    _check_finite(flag, values, text)
    return values


def _parse_sides(flag: str, text: str, tol: float = DEFAULT_TOL) -> list[float]:
    sides = [_check_number(flag, v, positive=True) for v in _parse_numbers(flag, text, 3)]
    # placing a triangle squares its sides; a subnormal square loses the
    # vertex to underflow, an infinite one makes it NaN
    squares = [v * v for v in sides]
    if not (min(squares) >= sys.float_info.min and math.isfinite(sum(squares))):
        raise SchemaError(f"flag '{flag}' must have squared sides in the normal float range "
                          f"and a finite sum of squares, got {text!r}")
    if not triangle_inequality_ok(*sides, tol):
        raise SchemaError(f"flag '{flag}' must satisfy the triangle inequality, got {text!r}")
    return sides


def _parse_region(text: str) -> Region:
    x0, y0, x1, y1 = _parse_numbers("--region", text, 4)
    if not (x0 < x1 and y0 < y1):
        raise SchemaError(f"flag '--region' must have x0 < x1 and y0 < y1, got {text!r}")
    return Region(x0, y0, x1, y1)


def _parse_scan(args: argparse.Namespace, tol: float) -> tuple[TriangleSpec, ScanGrid]:
    """The triangle and the placement grid of ``scan`` and ``avoid``."""
    from .scan import ScanGrid

    spec = TriangleSpec(*_parse_sides("--triangle", args.triangle))
    region = _parse_region(args.region)
    step = _check_number("--grid", args.grid, positive=True)
    # an axis count that overflows the float range cannot be floored to an int
    spans = (region.x1 - region.x0, region.y1 - region.y0)
    if not all(math.isfinite(d) for d in spans):
        raise SchemaError(f"flag '--region' must have a finite width and height, "
                          f"got {args.region!r}")
    if not all(math.isfinite(d / step) for d in spans):
        raise SchemaError(f"flag '--grid' must leave a finite number of translations "
                          f"across the region, got {args.grid!r}")
    # rounding a vertex near the region must not move a side past verify_witness's bound
    reach, side = max(map(abs, (region.x0, region.y0, region.x1, region.y1))), max(spec.sides())
    if 2.0 * math.ulp(reach + side) > tol * (1.0 + side):
        raise SchemaError(f"flag '--region' lies too far from the origin: rounding alone can "
                          f"move a side by more than the tolerance, got {args.region!r}")
    return spec, ScanGrid(region, step, _check_number("--angles", args.angles, positive=True))


def _parse_line(flag: str, text: str) -> Line:
    from .lines import Line

    try:
        line = Line.parse(text)
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"flag '{flag}': bad line syntax: {exc}") from exc
    _check_finite(flag, (v for v in (line.slope, line.intercept, line.x0) if v is not None),
                  text)
    return line


def _check_number(flag: str, value, positive: bool = False, most: float = math.inf):
    """``value`` if it is finite, >= 0 (> 0 when ``positive``) and <= ``most``."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0) and value <= most):
        bound = f" and <= {most:g}" if most < math.inf else ""
        raise SchemaError(f"flag '{flag}' must be a finite number "
                          f"{'> 0' if positive else '>= 0'}{bound}, got {value!r}")
    return value


MAX_TOLERANCE = 1e-3


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

    def add_scan(name, help_text):
        p = sub.add_parser(name, help=help_text)
        add_common(p, region=True)
        p.add_argument("--triangle", required=True, help="side lengths a,b,c")
        p.add_argument("--grid", type=float, default=0.01, help="position step")
        p.add_argument("--angles", type=int, default=720, help="angle count")
        return p

    p = add_scan("scan", "find one monochromatic copy")
    p.add_argument("--min-margin", type=float, default=0.0)
    add_scan("avoid", "count monochromatic placements over a grid")

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
    tol = _check_number("--tolerance", args.tolerance, positive=True, most=MAX_TOLERANCE)
    cmd = args.command
    coloring = parse_coloring_file(args.coloring) if hasattr(args, "coloring") else None
    if cmd == "scan":
        from .scan import find_monochromatic_copy
        spec, grid = _parse_scan(args, tol)
        witness = find_monochromatic_copy(coloring, spec, grid,
                                          _check_number("--min-margin", args.min_margin), tol)
        if witness is None:
            _emit({"result": "exhausted",
                   "placements_tested": grid.placements()}, args.out)
        else:
            _emit(witness.to_dict(spec), args.out)
        return 0
    if cmd == "avoid":
        from .scan import avoidance_scan
        spec, grid = _parse_scan(args, tol)
        _emit(avoidance_scan(coloring, spec, grid, tol).to_dict(), args.out)
        return 0
    if cmd == "almost":
        from .scan import find_almost_unit
        epsilon = _check_number("--epsilon", args.epsilon, positive=True)
        if epsilon >= 1.0:
            raise SchemaError(f"flag '--epsilon' must be < 1, got {epsilon!r}")
        pair = find_almost_unit(coloring, epsilon,
                                _check_number("--tries", args.tries, positive=True),
                                _check_number("--seed", args.seed), tol)
        _emit({"result": "failure"} if pair is None else pair.to_dict(), args.out)
        return 0
    if cmd == "check-zebra":
        from .colorings import ZebraColoring, check_zebra_conditions
        if not isinstance(coloring, ZebraColoring):
            raise SchemaError("check-zebra requires a zebra coloring")
        _emit(check_zebra_conditions(coloring, tol).to_dict(), args.out)
        return 0
    if cmd == "hexagon":
        from .scan import default_probe_window, hexagon_probe
        point = Point(*_parse_numbers("--point", args.point, 2))
        if args.region:
            window = _parse_region(args.region)
        else:
            try:
                window = default_probe_window(point)
            except GeometryError as exc:
                raise SchemaError(f"flag '--point' must leave the probe window around it a "
                                  f"positive width and height, got {args.point!r}") from exc
        probe = hexagon_probe(coloring, point, window, tol)
        _emit(probe.to_dict(), args.out)
        return 0
    if cmd == "angles":
        from .scan import boundary_angle_audit
        window = _parse_region(args.region) if args.region else None
        entries = boundary_angle_audit(coloring, window, tol)
        _emit({"vertices": [e.to_dict() for e in entries]}, args.out)
        return 0
    if cmd == "forcing":
        from .forcing import forcing_check_i, forcing_check_ii
        sides = _parse_sides("--sides", args.sides, tol)
        check = forcing_check_i if args.part == "i" else forcing_check_ii
        _emit({**check(*sides, tol).to_dict(), "part": args.part, "sides": sides}, args.out)
        return 0
    if cmd == "lines":
        from .lines import AllParallel, solve_unit_triangles
        qs = [_parse_line(f"--q{k}", text)
              for k, text in enumerate((args.q1, args.q2, args.q3), 1)]
        try:
            _emit(solve_unit_triangles(*qs, tol=tol).to_dict(), args.out)
        except AllParallel:
            _emit({"kind": "all-parallel"}, args.out)
        return 0
    if cmd == "render":
        from .render import CanvasSizeError, RenderSpec, render_svg
        witness = None
        if args.witness:
            try:
                with open(args.witness, "r", encoding="utf-8") as fh:
                    witness = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ParseError(f"cannot read witness {args.witness}: {exc}") from exc
        spec = RenderSpec(coloring, _parse_region(args.region),
                          _check_number("--pixels-per-unit", args.pixels_per_unit, positive=True),
                          witness)
        try:
            svg = render_svg(spec)
        except CanvasSizeError as exc:
            raise SchemaError(f"flags '--region' and '--pixels-per-unit': {exc}, got "
                              f"{args.region!r} and {args.pixels_per_unit!r}") from exc
        _write(svg, args.out)
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
    except WindowTooLarge as exc:
        # a default window is too large only for the document's own scale
        if args.region is None:
            print(f"error: flag '--coloring' {exc} in its default window, "
                  f"got {args.coloring!r}", file=sys.stderr)
        else:
            print(f"error: flag '--region' {exc}, got {args.region!r}", file=sys.stderr)
        return 1
    except (ParseError, SchemaError, InvariantError, ValueError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
