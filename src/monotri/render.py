"""Deterministic SVG rendering of colorings and scan witnesses.

Black regions fill dark, white regions stay light, boundary polylines are
stroked, and an optional witness triangle is overlaid with vertex markers.
Output is plain SVG 1.1 built by string assembly with fixed-precision
coordinates, so a given input always renders to the same bytes. Strip,
zebra and half-plane fills are exact band/half-plane polygons (cropped by
the viewBox); generic polygonal interiors fall back to a fine cell raster,
colored by one ``resolve`` call over all cell centres (cells no seed
reaches stay white), while their boundaries stay exact. ``RenderSpec``
raises ``InvalidArgument`` for a ``pixels_per_unit`` that is not a finite
number > 0. A canvas is 1 to 2^20 pixels a side; ``render_svg`` raises
``CanvasSizeError`` for any other region and scale, after the boundary has
been built (so that a window too large for its boundary raises
``WindowTooLarge`` first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import InvalidArgument, Point, Region, Segment
from .colorings import (
    Color,
    Coloring,
    HalfPlaneColoring,
    PolygonalColoring,
    StripColoring,
    ZebraColoring,
    _Fields,
    _pair,
    _parity_color,
    _tuple_of,
)

BLACK_FILL = "#3a3a3a"
WHITE_FILL = "#f4f1ea"
STROKE = "#b03030"
WITNESS_STROKE = "#1060c0"


class CanvasSizeError(ValueError):
    """The region and pixels per unit make a canvas that cannot be drawn."""


@dataclass(frozen=True)
class RenderSpec:
    coloring: Coloring
    region: Region
    pixels_per_unit: float = 60.0
    witness: Optional[dict] = None

    def __post_init__(self):
        if not (0.0 < self.pixels_per_unit < math.inf):
            raise InvalidArgument("pixels_per_unit", "must be a finite number > 0",
                                  self.pixels_per_unit)
        if self.witness is not None:
            _witness_vertices(self.witness)


def _witness_vertices(witness: dict) -> list[Point]:
    """The three vertices of a witness document; a bad field raises ``SchemaError``."""
    vertices = _Fields(witness).get("vertices", _tuple_of(_pair, _pair, _pair))
    return [Point(x, y) for x, y in vertices]


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Canvas:
    def __init__(self, region: Region, ppu: float):
        self.region = region
        self.ppu = ppu
        self.width = (region.x1 - region.x0) * ppu
        self.height = (region.y1 - region.y0) * ppu
        # a side outside [1, 2^20] pixels (or NaN) draws nothing useful
        if not (1.0 <= self.width <= 2.0 ** 20 and 1.0 <= self.height <= 2.0 ** 20):
            raise CanvasSizeError(
                f"the canvas would be {self.width:.3g} x {self.height:.3g} pixels; "
                "each side must be from 1 to 1048576 pixels")
        self.parts: list[str] = []

    def to_svg(self, p: Point) -> tuple[float, float]:
        return ((p.x - self.region.x0) * self.ppu,
                (self.region.y1 - p.y) * self.ppu)

    def polygon(self, pts: list[Point], fill: str) -> None:
        coords = " ".join("%s,%s" % tuple(map(_fmt, self.to_svg(p))) for p in pts)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" stroke="none"/>')

    def rect(self, x: float, y: float, w: float, h: float, fill: str) -> None:
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="none"/>')

    def line(self, seg: Segment, stroke: str, width: float) -> None:
        (x1, y1), (x2, y2) = self.to_svg(seg.p), self.to_svg(seg.q)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def circle(self, p: Point, r: float, fill: str) -> None:
        cx, cy = self.to_svg(p)
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>')

    def document(self) -> str:
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
                f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">')
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _fill_strip(canvas: _Canvas, coloring: StripColoring) -> None:
    region = canvas.region
    period = coloring.period
    n_lo = math.floor(region.y0 / period) - 1
    n_hi = math.ceil(region.y1 / period) + 1
    for n in range(n_lo, n_hi + 1):
        top = (n + 0.5) * period
        x, y = canvas.to_svg(Point(region.x0, top))
        canvas.rect(x, y, canvas.width, 0.5 * period * canvas.ppu, BLACK_FILL)


def _fill_zebra(canvas: _Canvas, coloring: ZebraColoring) -> None:
    """Each black band as the polygon between its lower and upper curve."""
    curves, P, kept, _ = coloring._window_polylines(canvas.region.inflated(1.0))
    lines = [[Point(x, y) for x, y in zip(xs[k].tolist(), ys[k].tolist())]
             for xs, ys, k in zip(P[0], P[1], kept)]
    for r, i in enumerate(curves[:-1]):
        if _parity_color(i, coloring.parity_rule) is Color.BLACK:
            canvas.polygon(lines[r] + lines[r + 1][::-1], BLACK_FILL)


def _fill_halfplane(canvas: _Canvas, coloring: HalfPlaneColoring) -> None:
    region = canvas.region
    n = coloring.normal
    anchor = Point(n.dx * coloring.offset, n.dy * coloring.offset)
    reach = (region.x1 - region.x0) + (region.y1 - region.y0) + \
        abs(coloring.offset) + abs(region.x0) + abs(region.y0) + 4.0
    d = (-n.dy, n.dx)
    sign = 1.0 if coloring.closed_side_color is Color.BLACK else -1.0
    a = Point(anchor.x - reach * d[0], anchor.y - reach * d[1])
    b = Point(anchor.x + reach * d[0], anchor.y + reach * d[1])
    canvas.polygon([
        a, b,
        Point(b.x + sign * reach * n.dx, b.y + sign * reach * n.dy),
        Point(a.x + sign * reach * n.dx, a.y + sign * reach * n.dy),
    ], BLACK_FILL)


def _fill_polygonal(canvas: _Canvas, coloring: PolygonalColoring) -> None:
    region = canvas.region
    nx = 160
    ny = max(int(round(nx * (region.y1 - region.y0) / (region.x1 - region.x0))), 1)
    dx = (region.x1 - region.x0) / nx
    dy = (region.y1 - region.y0) / ny
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    black, _, unresolved = coloring.resolve(region.x0 + (ci.ravel() + 0.5) * dx,
                                            region.y0 + (cj.ravel() + 0.5) * dy)
    for flat in np.flatnonzero(black & ~unresolved):
        i, j = divmod(int(flat), ny)
        x, y = canvas.to_svg(Point(region.x0 + i * dx, region.y0 + (j + 1) * dy))
        canvas.rect(x, y, dx * canvas.ppu, dy * canvas.ppu, BLACK_FILL)


def render_svg(spec: RenderSpec) -> str:
    """Render a coloring (and optional witness overlay) to an SVG document."""
    coloring = spec.coloring
    # before the canvas, so that a window too large for its boundary fails first
    pieces = coloring.boundary_segments(spec.region)
    canvas = _Canvas(spec.region, spec.pixels_per_unit)
    canvas.rect(0.0, 0.0, canvas.width, canvas.height, WHITE_FILL)
    if isinstance(coloring, StripColoring):
        _fill_strip(canvas, coloring)
    elif isinstance(coloring, ZebraColoring):
        _fill_zebra(canvas, coloring)
    elif isinstance(coloring, HalfPlaneColoring):
        _fill_halfplane(canvas, coloring)
    elif isinstance(coloring, PolygonalColoring):
        _fill_polygonal(canvas, coloring)
    else:
        raise ValueError(f"cannot render coloring of type {type(coloring).__name__}")

    stroke_w = max(1.5, 0.02 * spec.pixels_per_unit)
    for piece in pieces:
        canvas.line(piece.seg, STROKE, stroke_w)

    if spec.witness is not None:
        verts = _witness_vertices(spec.witness)
        coords = " ".join("%s,%s" % tuple(map(_fmt, canvas.to_svg(p))) for p in verts)
        canvas.parts.append(
            f'<polygon points="{coords}" fill="none" stroke="{WITNESS_STROKE}" '
            f'stroke-width="{_fmt(stroke_w * 1.25)}"/>')
        for p in verts:
            canvas.circle(p, max(2.5, 0.05 * spec.pixels_per_unit), WITNESS_STROKE)
    return canvas.document()
