"""Command-line surface: scans, checks, solvers, rendering.

Subcommands: scan, avoid, almost, check-zebra, hexagon, angles, forcing,
lines, render. Results are JSON documents written to ``--out`` or standard
output; figures are SVG. Exit status discipline: 0 for any completed
computation (an exhausted scan or a failed zebra check is an outcome, not
an error), 1 for usage, parse or schema problems, 2 for internal invariant
violations. Randomized subcommands require an explicit ``--seed``.

The library states each input rule once, in the entry point that needs it,
and raises ``InvalidArgument`` naming the parameter. This module parses the
flags, applies the ``--tolerance`` policy (at most ``MAX_TOLERANCE``), and
maps each parameter name to the flag that feeds it (``FLAGS``), so that a
bad value exits 1 with ``error: flag '<flag>' <reason>, got <value>``.

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

from .geom import (DEFAULT_TOL, MAX_TOLERANCE, GeometryError, InvalidArgument, Point, Region,
                   SchemaError, TriangleSpec, WindowTooLarge)

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


def _not_finite(flag: str, text: str) -> SchemaError:
    return SchemaError(f"flag '{flag}' must hold finite numbers, got {text!r}")


def _parse_numbers(flag: str, text: str, count: int) -> list[float]:
    """The ``count`` comma-separated finite numbers of ``flag``: flag syntax
    has no nan or inf, which ``Point`` would not refuse by name."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise SchemaError(f"flag '{flag}' expects {count} comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise _not_finite(flag, text)
    return values


def _parse_region(text: str) -> Region:
    return Region(*_parse_numbers("--region", text, 4))


def _parse_scan(args: argparse.Namespace) -> tuple[TriangleSpec, ScanGrid]:
    """The triangle and the placement grid of ``scan`` and ``avoid``."""
    from .scan import ScanGrid

    spec = TriangleSpec(*_parse_numbers("--triangle", args.triangle, 3))
    return spec, ScanGrid(_parse_region(args.region), args.grid, args.angles)


def _parse_line(flag: str, text: str) -> Line:
    from .lines import Line

    try:
        return Line.parse(text)
    except InvalidArgument as exc:  # a coefficient that is not finite
        raise _not_finite(flag, text) from exc
    except (ValueError, IndexError) as exc:
        raise SchemaError(f"flag '{flag}': bad line syntax: {exc}") from exc


# The flag that feeds each library parameter, by subcommand where two do.
FLAGS = {
    "sides": {"scan": "--triangle", "avoid": "--triangle", "forcing": "--sides"},
    "region": "--region",
    "position_step": "--grid",
    "angle_count": "--angles",
    "min_margin": "--min-margin",
    "epsilon": "--epsilon",
    "tries": "--tries",
    "seed": "--seed",
    "pixels_per_unit": "--pixels-per-unit",
    "point": "--point",
    "tol": "--tolerance",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotri",
        description="Plane two-colorings, monochromatic triangle scans and "
                    "structural checkers.")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                        help=f"global predicate tolerance in (0, {MAX_TOLERANCE:g}] "
                             "(default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, region=False):
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
    tol = args.tolerance
    if not (0.0 < tol <= MAX_TOLERANCE):
        raise SchemaError(f"flag '--tolerance' must be a finite number > 0 and "
                          f"<= {MAX_TOLERANCE:g}, got {tol!r}")
    cmd = args.command
    coloring = parse_coloring_file(args.coloring) if hasattr(args, "coloring") else None
    if cmd == "scan":
        from .scan import find_monochromatic_copy
        spec, grid = _parse_scan(args)
        witness = find_monochromatic_copy(coloring, spec, grid, args.min_margin, tol)
        if witness is None:
            _emit({"result": "exhausted",
                   "placements_tested": grid.placements()}, args.out)
        else:
            _emit(witness.to_dict(spec), args.out)
        return 0
    if cmd == "avoid":
        from .scan import avoidance_scan
        spec, grid = _parse_scan(args)
        _emit(avoidance_scan(coloring, spec, grid, tol).to_dict(), args.out)
        return 0
    if cmd == "almost":
        from .scan import find_almost_unit
        pair = find_almost_unit(coloring, args.epsilon, args.tries, args.seed, tol)
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
        sides = _parse_numbers("--sides", args.sides, 3)
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
        spec = RenderSpec(coloring, _parse_region(args.region), args.pixels_per_unit, witness)
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
    except InvalidArgument as exc:
        flag = FLAGS.get(exc.param)
        if isinstance(flag, dict):
            flag = flag.get(args.command)
        value = getattr(args, flag[2:].replace("-", "_"), None) if flag else None
        if value is None:  # no flag set this parameter
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: flag '{flag}' {exc.reason}, got {value!r}", file=sys.stderr)
        return 1
    except (ParseError, SchemaError, InvariantError, ValueError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
