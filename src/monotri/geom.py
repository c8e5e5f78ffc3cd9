"""Planar primitives shared by every other module.

Points, rigid motions (rotation + translation, no reflection), segments,
circles and axis-aligned windows, together with the handful of predicates
the coloring and scanning code is built on: third-vertex construction by
circle intersection and canonical triangle placement. ``CircleHit`` is one
hit of a circle on a boundary, with its tangency flag; the array pass that
finds them, ``colorings.circle_polyline_intersections``, and the other
piece kernels live in ``colorings``, so this module needs no numpy.
``SchemaError``, the error of a malformed coloring document or command-line
flag, and ``InvalidArgument``, the error of an argument outside its domain,
live here too, so the command line can raise and catch them without
loading the numpy-backed modules.

All comparisons go through a single tolerance ``tol`` defaulting to
``DEFAULT_TOL`` (1e-9); ``check_tol`` is the one rule of the entry points
that take it. Every type is an immutable value and every operation is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

DEFAULT_TOL = 1e-9

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)
# The most entries of one float64 array: numpy refuses more bytes than
# np.intp, as wide as sys.maxsize, holds.
MOST_FLOATS = sys.maxsize // 8


class GeometryError(Exception):
    """Base class for geometric precondition failures."""


class InvalidArgument(GeometryError, ValueError):
    """An argument outside its domain: ``param`` names it and ``reason`` says
    what it must be; the message is ``"<param> <reason>, got <value>"``."""

    def __init__(self, param: str, reason: str, value):
        super().__init__(f"{param} {reason}, got {value!r}")
        self.param = param
        self.reason = reason


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number >= 0, naming ``tol``."""
    if not (0.0 <= tol < math.inf):
        raise InvalidArgument("tol", "must be a finite number >= 0", tol)


class Infeasible(InvalidArgument):
    """Requested construction violates the (degenerate) triangle inequality."""


class DistanceMismatch(GeometryError):
    """A stated base-side length disagrees with the actual endpoint distance."""


class DegenerateSegment(GeometryError):
    """Two points expected to be distinct coincide within tolerance."""


class SchemaError(ValueError):
    """A document field is missing or has the wrong shape; names the field by its path."""


class WindowTooLarge(GeometryError):
    """A window holds too much boundary to build; the message says how much."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite point ({self.x}, {self.y})")

    def __sub__(self, other: "Point") -> tuple[float, float]:
        return (self.x - other.x, self.y - other.y)


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class UnitVector:
    dx: float
    dy: float

    def __post_init__(self):
        n = math.hypot(self.dx, self.dy)
        if abs(n - 1.0) > 1e-7:
            raise GeometryError(f"({self.dx}, {self.dy}) is not a unit vector")

    @staticmethod
    def normalized(dx: float, dy: float) -> "UnitVector":
        n = math.hypot(dx, dy)
        if n == 0.0:
            raise DegenerateSegment("cannot normalize the zero vector")
        return UnitVector(dx / n, dy / n)

    @staticmethod
    def from_angle(angle: float) -> "UnitVector":
        return UnitVector(math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class RigidMotion:
    """Rotation about the origin by ``angle``, then translation.

    Orientation preserving only: congruence throughout this package means
    translation composed with rotation, never reflection.
    """

    angle: float
    translation: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "angle", self.angle % TWO_PI)

    def apply(self, p: Point) -> Point:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return Point(
            c * p.x - s * p.y + self.translation[0],
            s * p.x + c * p.y + self.translation[1],
        )


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self):
        if distance(self.p, self.q) <= DEFAULT_TOL:
            raise DegenerateSegment(f"segment endpoints coincide: {self.p}")


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise GeometryError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Region:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]; ``InvalidArgument``
    naming ``region`` unless x0 < x1 and y0 < y1 and every corner is finite."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        corners = (self.x0, self.y0, self.x1, self.y1)
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise InvalidArgument("region", "must have x0 < x1 and y0 < y1", corners)
        if not all(map(math.isfinite, corners)):
            raise InvalidArgument("region", "must have finite corners", corners)

    def inflated(self, amount: float) -> "Region":
        return Region(self.x0 - amount, self.y0 - amount,
                      self.x1 + amount, self.y1 + amount)


def rotate_about(p: Point, center: Point, angle: float) -> Point:
    """Rotate ``p`` about ``center`` by ``angle`` radians (ccw positive)."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


def triangle_inequality_ok(a: float, b: float, c: float, tol: float = DEFAULT_TOL) -> bool:
    """Degenerate triangle inequality: each side at most the sum of the others."""
    slack = tol * (1.0 + max(a, b, c))
    return (a <= b + c + slack) and (b <= a + c + slack) and (c <= a + b + slack)


def check_sides(a: float, b: float, c: float, tol: float = DEFAULT_TOL) -> None:
    """Refuse side lengths that no triangle can be placed with, naming ``sides``.

    Sides must be positive, satisfy the degenerate triangle inequality at
    ``tol``, and have squares in the normal float range with a finite sum:
    placing a triangle squares its sides, so a subnormal square loses the
    vertex to underflow and an infinite one makes it NaN.
    """
    sides = (a, b, c)
    if min(sides) <= 0.0:
        raise Infeasible("sides", "must be positive", sides)
    # a NaN side fails the sum if min() skips it
    if not (min(a * a, b * b, c * c) >= sys.float_info.min
            and math.isfinite(a * a + b * b + c * c)):
        raise InvalidArgument("sides", "must have squared sides in the normal float range "
                                       "and a finite sum of squares", sides)
    if not triangle_inequality_ok(a, b, c, tol):
        raise Infeasible("sides", "must satisfy the triangle inequality", sides)


@dataclass(frozen=True)
class TriangleSpec:
    """Side lengths of a sought congruence class.

    ``(a, b, c)`` are the edge lengths in anticlockwise vertex order;
    collinear (degenerate) triples are first-class, so the triangle
    inequality is only required in its weak form.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        check_sides(self.a, self.b, self.c)

    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def third_vertex(A: Point, B: Point, side: float,
                 apex_dist_a: float, apex_dist_b: float,
                 orientation: str = "ccw", tol: float = DEFAULT_TOL) -> Point:
    """Point C with |CA| = apex_dist_a and |CB| = apex_dist_b.

    ``side`` restates |AB| and is checked against it; ``orientation`` fixes
    which of the two circle intersections is returned ("ccw" puts C to the
    left of A->B). A tight triangle inequality yields the collinear C;
    coincident A and B raise :class:`DegenerateSegment`.
    """
    d = distance(A, B)
    scale = 1.0 + max(d, apex_dist_a, apex_dist_b)
    if abs(d - side) > tol * scale:
        raise DistanceMismatch(f"|AB| = {d}, expected side {side}")
    if not triangle_inequality_ok(side, apex_dist_a, apex_dist_b, tol):
        raise Infeasible("sides", "must satisfy the triangle inequality",
                         (side, apex_dist_a, apex_dist_b))
    if orientation not in ("ccw", "cw"):
        raise ValueError(f"orientation must be 'ccw' or 'cw', got {orientation!r}")
    if d == 0.0:
        raise DegenerateSegment("the base endpoints coincide")
    ex_x, ex_y = (B.x - A.x) / d, (B.y - A.y) / d
    # Along-base coordinate of C and its (clamped) altitude.
    along = (d * d + apex_dist_a * apex_dist_a - apex_dist_b * apex_dist_b) / (2.0 * d)
    h_sq = apex_dist_a * apex_dist_a - along * along
    h = math.sqrt(max(h_sq, 0.0))
    if orientation == "cw":
        h = -h
    # ccw perpendicular of the base direction
    return Point(A.x + along * ex_x - h * ex_y, A.y + along * ex_y + h * ex_x)


def place_triangle(spec: TriangleSpec, motion: RigidMotion) -> tuple[Point, Point, Point]:
    """Place the canonical (a, b, c) triangle and apply ``motion``.

    Canonical pose: first vertex at the origin, second at (a, 0), third in
    the upper half-plane, so edges in anticlockwise order have lengths
    a, b, c. The canonical pose makes search witnesses reproducible.
    """
    p1 = Point(0.0, 0.0)
    p2 = Point(spec.a, 0.0)
    p3 = third_vertex(p1, p2, spec.a, spec.c, spec.b, "ccw")
    return (motion.apply(p1), motion.apply(p2), motion.apply(p3))


@dataclass(frozen=True)
class CircleHit:
    """One circle/polyline intersection; ``tangent`` marks grazing contact."""

    point: Point
    seg_index: int
    tangent: bool = False
