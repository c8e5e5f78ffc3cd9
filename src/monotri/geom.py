"""Planar primitives shared by every other module.

Points, rigid motions (rotation + translation, no reflection), segments,
circles and axis-aligned windows, together with the handful of predicates
the coloring and scanning code is built on: third-vertex construction by
circle intersection, canonical triangle placement, and circle/polyline
intersection with explicit tangency flags.

All comparisons go through a single tolerance ``tol`` defaulting to
``DEFAULT_TOL`` (1e-9). Every type is an immutable value and every
operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_TOL = 1e-9

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


class GeometryError(Exception):
    """Base class for geometric precondition failures."""


class Infeasible(GeometryError):
    """Requested construction violates the (degenerate) triangle inequality."""


class DistanceMismatch(GeometryError):
    """A stated base-side length disagrees with the actual endpoint distance."""


class DegenerateSegment(GeometryError):
    """Two points expected to be distinct coincide within tolerance."""


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

    def perp(self) -> "UnitVector":
        """Counterclockwise quarter turn."""
        return UnitVector(-self.dy, self.dx)


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

    @property
    def direction(self) -> UnitVector:
        dx, dy = self.q - self.p
        return UnitVector.normalized(dx, dy)

    def length(self) -> float:
        return distance(self.p, self.q)


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise GeometryError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Region:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise GeometryError("region must have positive width and height")

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
        if min(self.a, self.b, self.c) <= 0.0:
            raise Infeasible(f"side lengths must be positive: {(self.a, self.b, self.c)}")
        if not triangle_inequality_ok(self.a, self.b, self.c):
            raise Infeasible(f"triangle inequality fails for {(self.a, self.b, self.c)}")

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
        raise Infeasible(
            f"no point at distances {apex_dist_a}, {apex_dist_b} from a base of {side}")
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


def place_triangle(spec: TriangleSpec, motion: RigidMotion,
                   tol: float = DEFAULT_TOL) -> tuple[Point, Point, Point]:
    """Place the canonical (a, b, c) triangle and apply ``motion``.

    Canonical pose: first vertex at the origin, second at (a, 0), third in
    the upper half-plane, so edges in anticlockwise order have lengths
    a, b, c. The canonical pose makes search witnesses reproducible.
    """
    p1 = Point(0.0, 0.0)
    p2 = Point(spec.a, 0.0)
    p3 = third_vertex(p1, p2, spec.a, spec.c, spec.b, "ccw", tol)
    return (motion.apply(p1), motion.apply(p2), motion.apply(p3))


@dataclass(frozen=True)
class CircleHit:
    """One circle/polyline intersection; ``tangent`` marks grazing contact."""

    point: Point
    seg_index: int
    tangent: bool = False


def _circle_segment_hits(circle: Circle, seg: Segment, seg_index: int,
                         tol: float) -> list[CircleHit]:
    px, py = seg.p.x, seg.p.y
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    fx, fy = px - circle.center.x, py - circle.center.y
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - circle.radius * circle.radius
    disc = b * b - 4.0 * a * c

    def at(t: float) -> Point:
        return Point(px + t * dx, py + t * dy)

    hits: list[CircleHit] = []
    length = math.sqrt(a)
    t_pad = tol / length
    if disc <= 0.0:
        # No transversal crossing; report grazing contact if the closest
        # approach sits on the segment at radius distance within tol.
        t_min = min(max(-b / (2.0 * a), 0.0), 1.0)
        p_min = at(t_min)
        if abs(distance(p_min, circle.center) - circle.radius) <= tol:
            hits.append(CircleHit(p_min, seg_index, tangent=True))
        return hits
    root = math.sqrt(disc)
    t1 = (-b - root) / (2.0 * a)
    t2 = (-b + root) / (2.0 * a)
    if (t2 - t1) * length <= 2.0 * tol:
        tm = 0.5 * (t1 + t2)
        if -t_pad <= tm <= 1.0 + t_pad:
            hits.append(CircleHit(at(min(max(tm, 0.0), 1.0)), seg_index, tangent=True))
        return hits
    for t in (t1, t2):
        if -t_pad <= t <= 1.0 + t_pad:
            hits.append(CircleHit(at(min(max(t, 0.0), 1.0)), seg_index, tangent=False))
    return hits


def circle_polyline_intersections(circle: Circle, chain: list[Segment],
                                  tol: float = DEFAULT_TOL) -> list[CircleHit]:
    """All intersections of ``circle`` with a chain of segments.

    Duplicate hits at shared endpoints are merged (the lower segment index
    wins); tangential contacts come back as single flagged hits so callers
    can tell grazing from crossing.
    """
    hits: list[CircleHit] = []
    for i, seg in enumerate(chain):
        for hit in _circle_segment_hits(circle, seg, i, tol):
            if all(distance(known.point, hit.point) > 10.0 * tol for known in hits):
                hits.append(hit)
    return hits


def point_segment_distance(p: Point, seg: Segment,
                           ray_start: bool = False, ray_end: bool = False) -> float:
    """Distance from ``p`` to a segment, optionally unbounded past either end.

    ``ray_start``/``ray_end`` extend the segment to a half-line or full line,
    which keeps distances to clipped representations of unbounded boundary
    pieces honest.
    """
    ax, ay = seg.p.x, seg.p.y
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    L2 = dx * dx + dy * dy
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / L2
    lo = -math.inf if ray_start else 0.0
    hi = math.inf if ray_end else 1.0
    t = min(max(t, lo), hi)
    return math.hypot(p.x - (ax + t * dx), p.y - (ay + t * dy))
