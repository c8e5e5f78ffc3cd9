"""Search and verification over colorings.

Grid scans for monochromatic congruent copies of a triangle spec, avoidance
counts over a full placement grid, a guided search for almost-unit triangles
in both color classes, and two boundary diagnostics: the six-point hexagon
probe around a feasible boundary point and the convex-angle audit of
boundary vertices.

A placement is a pose index (angle index, x index, y index) applied to the
canonical triangle of :func:`monotri.geom.place_triangle`. Find and
avoidance scans share one engine, which walks blocks of poses in
lexicographic pose order. A block is a run of whole angles over all of a
grid's n translations, at most ``_SCAN_BLOCK // n`` angles (a find scan's
first run is one angle and each later one doubles, up to that cap); only
when one angle has more than ``_SCAN_BLOCK`` translations is a block a
slice of one angle's translations, at most ``_SCAN_BLOCK`` of them (a find
scan's first slice is ``isqrt(_SCAN_BLOCK)`` and each later one doubles,
up to that cap). Results are deterministic, the first witness found is the
least one, and a find scan stops in the block of its witness. A find scan
classifies vertex 3 only where vertices 1 and 2 agree, and takes the
margins of a block's monochromatic poses in batches of doubling size, one
``distance`` call per batch, in pose order; an avoidance scan classifies
all three vertices, which its near-miss rule needs. Placements with an
unresolved vertex (see :mod:`monotri.colorings`) are skipped by find and
counted as ``unresolved`` by avoidance. A scan that exhausts its grid is a
sampling verdict, never a proof of avoidance.

A coloring whose ``resolve`` and ``distance`` read ys alone (the class
attribute ``_YS_ONLY``; today the strip) is scanned over the first lattice
column only: every column holds the same vertex ys, so its placements have
bit for bit the colors and margins of column 0's. A find scan's least
witness therefore lies in column 0 and is the full lattice's. An avoidance
scan multiplies the column's counts by the column count, and expands the
column's first examples in pose order: per angle, its y values in column
0, then in column 1, and so on, at x = x0 + i * step, the float
``ScanGrid.xs`` holds. The column's first ``_EXAMPLES`` entries are enough.
So the reports are the full lattice's, and a strip scan costs the same for
any region width.

Each entry point checks its own arguments and raises ``InvalidArgument``
naming the one outside its domain: ``ScanGrid`` its step, angle count and
lattice size, the scans their triangle and region against ``tol``, and
``find_almost_unit`` its epsilon, try budget and seed. Every entry point
that takes ``tol`` checks it first (``geom.check_tol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .geom import (
    DEFAULT_TOL,
    MOST_FLOATS,
    TWO_PI,
    Circle,
    GeometryError,
    InvalidArgument,
    Point,
    Region,
    RigidMotion,
    TriangleSpec,
    check_sides,
    check_tol,
    circle_polyline_intersections,
    distance,
    place_triangle,
)
from .colorings import BoundaryPiece, Color, Coloring, PolygonalColoring, _resolved_black


class NotOnBoundary(GeometryError):
    """The probed point is farther than the tolerance from every boundary piece."""


@dataclass(frozen=True)
class ScanGrid:
    """Placement grid: poses (angle k, x i, y j) over a region.

    Angles are the ``angle_count`` uniform values in [0, 2*pi); translations
    run over the region at ``position_step`` spacing, region corners
    included. A grid whose translations numpy cannot hold in one float
    array raises ``InvalidArgument`` naming ``position_step``.
    """

    region: Region
    position_step: float = 0.01
    angle_count: int = 720

    def __post_init__(self):
        step, r = self.position_step, self.region
        if not (0.0 < step < math.inf):
            raise InvalidArgument("position_step", "must be a finite number > 0", step)
        if not (self.angle_count >= 1):
            raise InvalidArgument("angle_count", "must be at least 1", self.angle_count)
        spans = (r.x1 - r.x0, r.y1 - r.y0)
        if not all(math.isfinite(d) for d in spans):
            raise InvalidArgument("region", "width and height must be finite", r)
        # an axis count that overflows the float range cannot be floored to an int
        if not all(math.isfinite(d / step) for d in spans):
            raise InvalidArgument("position_step", "divides the region's width and height "
                                                   "into counts that must be finite", step)
        if self._count(r.x0, r.x1) * self._count(r.y0, r.y1) > MOST_FLOATS:
            raise InvalidArgument("position_step", f"leaves more translations across the region "
                                                   f"than numpy can index ({MOST_FLOATS})",
                                  step)

    def angles(self) -> np.ndarray:
        return np.arange(self.angle_count) * (TWO_PI / self.angle_count)

    def xs(self) -> np.ndarray:
        return self._axis(self.region.x0, self.region.x1)

    def ys(self) -> np.ndarray:
        return self._axis(self.region.y0, self.region.y1)

    def placements(self) -> int:
        return self.angle_count * self.columns() * self._count(self.region.y0, self.region.y1)

    def columns(self) -> int:
        """The lattice's column count, ``len(xs())``."""
        return self._count(self.region.x0, self.region.x1)

    def column_x(self, i: int) -> float:
        """Column i's x, ``xs()[i]`` bit for bit, without building the axis."""
        return self.region.x0 + i * self.position_step

    def _count(self, lo: float, hi: float) -> int:
        return int(math.floor((hi - lo) / self.position_step + 1e-12)) + 1

    def _axis(self, lo: float, hi: float) -> np.ndarray:
        return lo + np.arange(self._count(lo, hi)) * self.position_step


@dataclass(frozen=True)
class ScanWitness:
    """A verified monochromatic placement: pose, vertices, color, margin.

    ``margin`` is the distance from the nearest vertex to the coloring
    boundary, recomputed exactly per boundary piece; it is infinite for a
    coloring without boundary, and ``to_dict`` writes that as ``null``.
    """

    motion: RigidMotion
    vertices: tuple[Point, Point, Point]
    color: Color
    margin: float

    def to_dict(self, spec: TriangleSpec) -> dict:
        return {
            "spec": [spec.a, spec.b, spec.c],
            "angle": self.motion.angle,
            "translation": [self.motion.translation[0], self.motion.translation[1]],
            "vertices": [[v.x, v.y] for v in self.vertices],
            "color": self.color.value,
            "margin": None if math.isinf(self.margin) else self.margin,
        }


@dataclass(frozen=True)
class AvoidanceReport:
    placements_tested: int
    monochromatic_count: int
    near_misses: int
    monochromatic_examples: tuple[tuple[int, float, float], ...] = ()
    near_miss_examples: tuple[tuple[int, float, float], ...] = ()
    unresolved: int = 0

    def to_dict(self) -> dict:
        doc = {
            "placements_tested": self.placements_tested,
            "monochromatic_count": self.monochromatic_count,
            "near_misses": self.near_misses,
            "monochromatic_examples": [list(e) for e in self.monochromatic_examples],
            "near_miss_examples": [list(e) for e in self.near_miss_examples],
        }
        if self.unresolved:
            doc["unresolved"] = self.unresolved
        return doc


def margin_of(coloring: Coloring, points: Sequence[Point]) -> float:
    """Distance from the nearest of ``points`` to the coloring boundary; one
    ``distance`` call. A zero margin is +0.0 (``+ 0.0`` drops the sign of a
    strip's -0.0)."""
    return float(coloring.distance(np.array([p.x for p in points]),
                                   np.array([p.y for p in points])).min()) + 0.0


def _common_color(coloring: Coloring, points: Sequence[Point], tol: float) -> Optional[Color]:
    """The color of every one of ``points``, None if they differ; one ``resolve``
    call, and ``UnresolvedFace`` at the first point that no seed reaches."""
    black = _resolved_black(coloring, np.array([p.x for p in points]),
                            np.array([p.y for p in points]), tol)
    if black.all():
        return Color.BLACK
    return None if black.any() else Color.WHITE


def _check_scan(spec: TriangleSpec, grid: ScanGrid, tol: float) -> None:
    """Refuse a triangle and grid that a scan at ``tol`` cannot place faithfully.

    The sides must satisfy the triangle inequality at ``tol`` too, and
    rounding a vertex near the region must not move a side past
    :func:`verify_witness`'s bound: with R the largest |coordinate| of the
    region and s the longest side, ``2 ulp(R + s) <= tol (1 + s)``; ``tol``
    is named if R = 0 fails. At the default tolerance and unit sides, R = 4e6
    passes and R = 1e7 does not.
    """
    check_tol(tol)
    check_sides(*spec.sides(), tol)
    r = grid.region
    reach, side = max(map(abs, (r.x0, r.y0, r.x1, r.y1))), max(spec.sides())
    if 2.0 * math.ulp(side) > tol * (1.0 + side):
        raise InvalidArgument("tol", "is too small for the triangle's rounding", tol)
    if 2.0 * math.ulp(reach + side) > tol * (1.0 + side):
        raise InvalidArgument("region", "lies too far from the origin: rounding alone can "
                                        "move a side by more than the tolerance", r)


_SCAN_BLOCK = 4096  # most poses per block of the scan engine
# Candidates in a find scan's first margin batch; later batches of a block
# double. A zebra ``distance`` call costs about 115 us plus 1.55 us per
# point, so 4 candidates (12 points) cost about an eighth more than one, and
# doubling spends at most about as many points past the witness as before it.
_MARGIN_BATCH = 4
_EXAMPLES = 8  # the first monochromatic placements and near misses an avoidance report lists


def _placed_poses(spec: TriangleSpec, grid: ScanGrid, ramp: bool = False,
                  one_column: bool = False):
    """The scan engine: per block of poses, in pose order, ``(pose, place)``.

    The grid's n translations are flat lattice indices, x major and y minor;
    with ``one_column``, they are the first column's only, and no other
    column is built.
    When n <= ``_SCAN_BLOCK``, a block is a run of whole angles k0, k0 + 1,
    ... over all n translations: ``_SCAN_BLOCK // n`` angles, or, with
    ``ramp``, one angle in the first block and twice as many in each later
    one up to that cap. Otherwise a block is one angle and a slice of
    consecutive translations: ``_SCAN_BLOCK`` of them, or, with ``ramp``,
    ``isqrt(_SCAN_BLOCK)`` in the first slice and twice as many in each
    later one up to ``_SCAN_BLOCK``; a slice ends at its angle's last
    translation. Pose i of a block of m translations is angle k0 + i // m
    at translation i % m; ``pose(i)`` is ``(k, angle, x, y)``.
    ``place(v, at)`` is the points ``(xs, ys)`` of vertex ``v`` (0, 1 or 2)
    over the block, one broadcast add of translations and offsets, or over
    the block's poses ``at`` only, whose translations and offsets are
    gathered before the add. Offsets are rotated in Python floats, one angle
    at a time, so that every vertex is the one :func:`place_triangle` gives
    for its pose.
    """
    if one_column:
        Y = grid.ys()
        X = np.full(Y.size, grid.column_x(0))
    else:
        X, Y = (a.ravel() for a in np.meshgrid(grid.xs(), grid.ys(), indexing="ij"))
    base = place_triangle(spec, RigidMotion(0.0))
    angles = grid.angles().tolist()
    block = _SCAN_BLOCK
    cap = max(block // X.size, 1)
    run = 1 if ramp else cap
    # 64 poses at the default block: a zebra ``resolve`` call costs about
    # 33 us plus 40 ns per point, so a smaller first slice saves under 3 us
    size = math.isqrt(block) if ramp and X.size > block else block
    k0 = 0
    while k0 < len(angles):
        rot = [(math.cos(a), math.sin(a)) for a in angles[k0:k0 + run]]
        # the x offsets of vertices 0, 1 and 2, then their y offsets: a column
        # per angle, or, for one angle, floats, which numpy adds fastest
        offsets = ([c * p.x - s * p.y for p in base for c, s in rot]
                   + [s * p.x + c * p.y for p in base for c, s in rot])
        if len(rot) > 1:
            offsets = np.array(offsets).reshape(6, -1, 1)
        lo = 0
        while lo < X.size:
            xs, ys = X[lo:lo + size], Y[lo:lo + size]

            def pose(i, k0=k0, xs=xs, ys=ys):
                k, t = divmod(int(i), xs.size)
                return k0 + k, angles[k0 + k], float(xs[t]), float(ys[t])

            def place(v: int, at=None, xs=xs, ys=ys, offsets=offsets, runs=len(rot)):
                ox, oy = offsets[v], offsets[3 + v]
                if at is None:
                    return (xs + ox).ravel(), (ys + oy).ravel()
                if runs > 1:
                    k, at = np.divmod(at, xs.size)
                    ox, oy = ox[k, 0], oy[k, 0]
                return xs[at] + ox, ys[at] + oy

            yield pose, place
            lo += size
            size = min(2 * size, block)
        k0 += len(rot)
        run = min(2 * run, cap)


def find_monochromatic_copy(coloring: Coloring, spec: TriangleSpec, grid: ScanGrid,
                            min_margin: float = 0.0,
                            tol: float = DEFAULT_TOL) -> Optional[ScanWitness]:
    """First placement (in pose order) that is monochromatic with margin.

    Vertex 3 is classified only where vertices 1 and 2 agree, and the scan
    stops in the block of its witness. Runs of whole angles start at one
    angle and double up to the engine's cap, so a witness at angle k is
    found after classifying at most 2k + 1 angles; where one angle holds
    more translations than a block, its slices ramp up the same way. The
    monochromatic poses of a block take their margins in pose order, one
    ``distance`` call per batch of ``_MARGIN_BATCH``, then twice as many
    in each later batch, and the first with margin at least ``min_margin``
    is the witness. ``distance`` is per point, so a batch gives each pose
    the margin :func:`margin_of` gives its vertices, bit for bit.
    Placements with an unresolved vertex are skipped. A coloring that reads
    ys alone is scanned over the first lattice column, where the least
    witness lies (see the module docstring).

    Returns None when the grid is exhausted -- a sampling verdict only; no
    claim of avoidance is implied. Vertices may leave the grid region; the
    region constrains translations, not the triangle. A negative or
    non-finite ``min_margin``, and a triangle and grid that ``tol`` cannot
    scan (see ``_check_scan``), raise ``InvalidArgument`` naming the parameter.
    """
    if not (0.0 <= min_margin < math.inf):
        raise InvalidArgument("min_margin", "must be a finite number >= 0", min_margin)
    _check_scan(spec, grid, tol)
    for pose, place in _placed_poses(spec, grid, ramp=True, one_column=coloring._YS_ONLY):
        b1, _, u1 = coloring.resolve(*place(0), tol)
        b2, _, u2 = coloring.resolve(*place(1), tol)
        pairs = np.flatnonzero((b1 == b2) & ~(u1 | u2))
        b3, _, u3 = coloring.resolve(*place(2, pairs), tol)
        mono = pairs[(b3 == b1[pairs]) & ~u3]
        lo, size = 0, _MARGIN_BATCH
        while lo < mono.size:
            batch = mono[lo:lo + size]
            xs, ys = (np.concatenate(c) for c in zip(*(place(v, batch) for v in range(3))))
            margins = coloring.distance(xs, ys).reshape(3, -1).min(axis=0)
            ok = np.flatnonzero(margins >= min_margin)
            if ok.size:
                i = batch[ok[0]]
                _, angle, x, y = pose(i)
                motion = RigidMotion(angle, (x, y))
                color = Color.BLACK if bool(b1[i]) else Color.WHITE
                # + 0.0 drops the sign of a zero margin, as in margin_of
                return ScanWitness(motion, place_triangle(spec, motion), color,
                                   float(margins[ok[0]]) + 0.0)
            lo += size
            size *= 2
    return None


def avoidance_scan(coloring: Coloring, spec: TriangleSpec, grid: ScanGrid,
                   tol: float = DEFAULT_TOL) -> AvoidanceReport:
    """Count monochromatic placements over the whole grid.

    Boundary points are colored by the coloring's own rule. A near miss is
    a non-monochromatic placement with two same-colored vertices whose
    third vertex sits within tolerance of the boundary. Placements with an
    unresolved vertex count as ``unresolved`` and as neither. A coloring that
    reads ys alone is scanned over the first lattice column, and its counts
    and examples are expanded to every column (see the module docstring). A
    triangle and grid that ``tol`` cannot scan raise ``InvalidArgument``
    (see ``_check_scan``).
    """
    _check_scan(spec, grid, tol)
    one_column = coloring._YS_ONLY
    mono_count = 0
    near_count = 0
    unresolved = 0
    mono_ex: list[tuple[int, float, float]] = []
    near_ex: list[tuple[int, float, float]] = []
    for pose, place in _placed_poses(spec, grid, one_column=one_column):
        (b1, on1, u1), (b2, on2, u2), (b3, on3, u3) = (coloring.resolve(*place(v), tol)
                                                       for v in range(3))
        mono = (b1 == b2) & (b2 == b3)
        near = (~mono) & (((b1 == b2) & on3) | ((b1 == b3) & on2) | ((b2 == b3) & on1))
        bad = u1 | u2 | u3
        if bad.any():
            unresolved += int(bad.sum())
            mono &= ~bad
            near &= ~bad
        mono_count += int(mono.sum())
        near_count += int(near.sum())
        for mask, acc in ((mono, mono_ex), (near, near_ex)):
            if len(acc) < _EXAMPLES and mask.any():
                for i in np.flatnonzero(mask)[:_EXAMPLES - len(acc)]:
                    k, _, x, y = pose(i)
                    acc.append((k, x, y))
    if one_column:
        nx = grid.columns()
        mono_count, near_count, unresolved = mono_count * nx, near_count * nx, unresolved * nx
        mono_ex, near_ex = _across_columns(mono_ex, grid), _across_columns(near_ex, grid)
    return AvoidanceReport(grid.placements(), mono_count, near_count,
                           tuple(mono_ex), tuple(near_ex), unresolved)


def _across_columns(examples: list[tuple[int, float, float]], grid: ScanGrid
                    ) -> list[tuple[int, float, float]]:
    """The first ``_EXAMPLES`` poses of the lattice, in pose order, from the
    first ones of its column 0: per angle, its y values in each column i in
    turn, at ``grid.column_x(i)``. Only the last angle's list can be cut
    short, and the poses taken from that angle all lie in its column 0."""
    out: list[tuple[int, float, float]] = []
    nx = grid.columns()
    for k, group in groupby(examples, key=itemgetter(0)):
        ys = [y for _, _, y in group]
        for i in range(nx):
            x = grid.column_x(i)
            out += [(k, x, y) for y in ys]
            if len(out) >= _EXAMPLES:
                return out[:_EXAMPLES]
    return out


def verify_witness(coloring: Coloring, spec: TriangleSpec, witness: ScanWitness,
                   tol: float = DEFAULT_TOL) -> bool:
    """Independent re-check of a witness: pose, side lengths, colors, margin."""
    check_tol(tol)
    v1, v2, v3 = witness.vertices
    placed = place_triangle(spec, witness.motion)
    scale = 1.0 + max(spec.sides())
    if any(distance(p, q) > tol * scale for p, q in zip(placed, witness.vertices)):
        return False
    sides = (distance(v1, v2), distance(v2, v3), distance(v3, v1))
    for got, want in zip(sides, spec.sides()):
        if abs(got - want) > tol * scale:
            return False
    if _common_color(coloring, witness.vertices, tol) is not witness.color:
        return False
    margin = margin_of(coloring, witness.vertices)
    # equal infinite margins (no boundary) match; their difference is NaN
    return margin == witness.margin or abs(margin - witness.margin) <= tol * scale


# ---------------------------------------------------------------------------
# Almost-unit triangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlmostUnitPair:
    """One black and one white triangle, all side lengths in [1-eps, 1+eps]."""

    black_triangle: tuple[Point, Point, Point]
    white_triangle: tuple[Point, Point, Point]
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "black": [[v.x, v.y] for v in self.black_triangle],
            "white": [[v.x, v.y] for v in self.white_triangle],
        }


def _almost_unit_shape(tri: Sequence[Point], epsilon: float) -> bool:
    """Inside the square [-3, 3]^2, sides in [1-eps, 1+eps]."""
    sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]), distance(tri[2], tri[0]))
    return (all(abs(v.x) <= 3.0 and abs(v.y) <= 3.0 for v in tri)
            and all(1.0 - epsilon <= s <= 1.0 + epsilon for s in sides))


def find_almost_unit(coloring: Coloring, epsilon: float, tries: int = 10 ** 6,
                     seed: int = 0, tol: float = DEFAULT_TOL) -> Optional[AlmostUnitPair]:
    """Search both color classes for triangles with sides in [1-eps, 1+eps].

    Strategy: locate an opposite-colored pair R (black), S (white) closer
    than eps inside the square [-1, 1]^2 by bisection on random segments,
    then walk the unit circles around S and R at angular step eps/4. Any
    same-colored sample pair whose chord falls in [1-eps, 1+eps] closes a
    triangle with R or S. Uniform random unit triangles serve as a fallback
    when the guided walk stalls. Returns None once the try budget is spent
    with a class still missing. None is a sampling verdict, "budget spent",
    not a proof that the class holds no such triangle: the pair search
    samples only [-1, 1]^2, so a coloring that is one color there can spend
    the whole budget on it. ``HalfPlaneColoring(UnitVector(0, 1), -2.0)``,
    black on that square, gives None at ``epsilon=0.1, tries=2000, seed=0``,
    though its white class holds unit triangles. An ``epsilon`` outside
    (0, 1), ``tries`` below 1 and a negative ``seed`` raise
    ``InvalidArgument`` naming the parameter.
    """
    check_tol(tol)
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument("epsilon", "must lie strictly between 0 and 1", epsilon)
    if not (1 <= tries < math.inf):
        raise InvalidArgument("tries", "must be a finite number >= 1", tries)
    if not (seed >= 0):
        raise InvalidArgument("seed", "must be >= 0", seed)
    rng = np.random.default_rng(seed)
    budget = tries
    found: dict[Color, tuple[Point, Point, Point]] = {}

    def consume(n: int = 1) -> bool:
        nonlocal budget
        budget -= n
        return budget > 0

    # Phase 1: an opposite-colored pair R, S with |R - S| < eps inside Q(1).
    pair: Optional[tuple[Point, Point]] = None  # (black, white)
    black_pt = white_pt = None
    while budget > 0 and pair is None:
        consume()
        q = Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        if coloring.color_at(q, tol) is Color.BLACK:
            black_pt = black_pt or q
        else:
            white_pt = white_pt or q
        if black_pt is not None and white_pt is not None:
            b, w = black_pt, white_pt
            while distance(b, w) >= epsilon / 8.0 and consume():
                mid = Point(0.5 * (b.x + w.x), 0.5 * (b.y + w.y))
                if coloring.color_at(mid, tol) is Color.BLACK:
                    b = mid
                else:
                    w = mid
            pair = (b, w)

    if pair is not None:
        black_ref, white_ref = pair
        step = epsilon / 4.0
        n = max(int(math.ceil(TWO_PI / step)), 12)
        thetas = np.arange(n) * (TWO_PI / n)
        # chord between samples i and i+off is 2 sin(pi off / n)
        lo_chord, hi_chord = 1.0 - 0.75 * epsilon, 1.0 + 0.75 * epsilon
        off_lo = max(int(math.ceil(math.asin(lo_chord / 2.0) * n / math.pi)), 1)
        off_hi = int(math.floor(math.asin(min(hi_chord / 2.0, 1.0)) * n / math.pi))
        for center in (white_ref, black_ref):
            if len(found) == 2 or budget <= 0:
                break
            kx = center.x + np.cos(thetas)
            ky = center.y + np.sin(thetas)
            blacks = _resolved_black(coloring, kx, ky, tol)
            consume(n)
            for off in range(off_lo, off_hi + 1):
                if len(found) == 2:
                    break
                same = blacks == np.roll(blacks, -off)
                for i in np.flatnonzero(same):
                    color = Color.BLACK if bool(blacks[i]) else Color.WHITE
                    if color in found:
                        continue
                    j = (int(i) + off) % n
                    apex = black_ref if color is Color.BLACK else white_ref
                    tri = (apex, Point(float(kx[i]), float(ky[i])),
                           Point(float(kx[j]), float(ky[j])))
                    consume()
                    if (_almost_unit_shape(tri, epsilon)
                            and _common_color(coloring, tri, tol) is color):
                        found[color] = tri
                        if len(found) == 2:
                            break

    # Phase 3: random exact-unit triangles anywhere in Q(2).
    unit = TriangleSpec(1.0, 1.0, 1.0)
    while len(found) < 2 and budget > 0:
        consume()
        cx, cy = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ang = rng.uniform(0.0, TWO_PI)
        motion = RigidMotion(float(ang), (float(cx), float(cy)))
        tri = place_triangle(unit, motion)
        color = _common_color(coloring, tri, tol)
        if color is not None and color not in found and _almost_unit_shape(tri, epsilon):
            found[color] = tri

    if len(found) == 2:
        return AlmostUnitPair(found[Color.BLACK], found[Color.WHITE], epsilon)
    return None


# ---------------------------------------------------------------------------
# Boundary structure probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HexagonProbe:
    """Unit-circle intersections with the boundary around a boundary point.

    ``regular`` is true iff there are exactly six transversal intersections
    at consecutive angles pi/3 apart (within ``max_deviation``), lying on
    pieces parallel to the host piece with the expected orientation pattern:
    the two hits nearest the host direction share its orientation, the other
    four oppose it. ``alpha`` is the frame angle of the first hit, in
    (-pi/6, pi/6], measured from the host piece direction.
    """

    center: Point
    alpha: Optional[float]
    points: tuple[Point, ...]
    regular: bool
    feasible: bool
    max_deviation: float = math.inf

    def to_dict(self) -> dict:
        return {
            "center": [self.center.x, self.center.y],
            "alpha": self.alpha,
            "points": [[p.x, p.y] for p in self.points],
            "regular": self.regular,
            "feasible": self.feasible,
            "max_deviation": None if math.isinf(self.max_deviation) else self.max_deviation,
        }


def _boundary_vertices(pieces: Sequence[BoundaryPiece], tol: float) -> list[tuple[Point, list[int]]]:
    """Endpoint clusters where at least two pieces meet (true corners).

    Each endpoint joins the earliest cluster whose first point lies within
    10*tol of it, else starts a new cluster. So the first points lie
    pairwise farther apart than that reach, and an endpoint equal to one
    of them (a shared joint) has it as its only cluster in reach: it is
    looked up by its coordinates first. Other endpoints look among the
    first points, bucketed by grid cell, in the 3 x 3 cells around their
    own: with cells at least twice the reach, correctly rounded division
    keeps two points within reach at most one cell apart (from 2^53 cells
    out, such points are equal). Clipped chain ends and ray representatives
    have degree one there and are not vertices.
    """
    reach = 10.0 * tol
    # the floor keeps coordinates / cell finite for any coordinate below 1e292
    cell = max(2.0 * reach, 1e-16)
    clusters: list[tuple[Point, list[int]]] = []
    firsts: dict[tuple[float, float], int] = {}
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, pc in enumerate(pieces):
        for p, bounded in ((pc.seg.p, not pc.ray_start), (pc.seg.q, not pc.ray_end)):
            if not bounded:
                continue
            c = firsts.get((p.x, p.y))
            if c is not None:
                clusters[c][1].append(idx)
                continue
            kx, ky = math.floor(p.x / cell), math.floor(p.y / cell)
            near = [c for bx in (kx - 1, kx, kx + 1) for by in (ky - 1, ky, ky + 1)
                    for c in buckets.get((bx, by), ()) if distance(p, clusters[c][0]) <= reach]
            if near:
                clusters[min(near)][1].append(idx)
            else:
                buckets.setdefault((kx, ky), []).append(len(clusters))
                firsts[p.x, p.y] = len(clusters)
                clusters.append((p, [idx]))
    return [(p, members) for p, members in clusters if len(members) >= 2]


def default_probe_window(A: Point) -> Region:
    return Region(A.x - 2.25, A.y - 2.25, A.x + 2.25, A.y + 2.25)


def hexagon_probe(coloring: Coloring, A: Point, window: Optional[Region] = None,
                  tol: float = DEFAULT_TOL) -> HexagonProbe:
    """Intersect the unit circle around boundary point ``A`` with the boundary.

    ``A`` must lie within tolerance of some boundary piece, else
    :class:`NotOnBoundary` is raised. Feasibility means A is not a boundary
    vertex and no boundary vertex lies on the unit circle around A.
    """
    check_tol(tol)
    if window is None:
        window = default_probe_window(A)
    pieces = coloring.boundary_segments(window)
    host = None
    host_dist = math.inf
    for pc in pieces:
        d = pc.distance_to(A)
        if d < host_dist:
            host, host_dist = pc, d
    if host is None or host_dist > tol:
        raise NotOnBoundary(f"({A.x}, {A.y}) is not on the boundary")

    vertices = _boundary_vertices(pieces, tol)
    feasible = True
    for v, _ in vertices:
        dv = distance(v, A)
        if dv <= tol or abs(dv - 1.0) <= tol:
            feasible = False
            break

    sd = host.seg.direction
    def frame_angle(p: Point) -> float:
        vx, vy = p - A
        return math.atan2(-vx * sd.dy + vy * sd.dx, vx * sd.dx + vy * sd.dy)

    hits = sorted(circle_polyline_intersections(Circle(A, 1.0), [pc.seg for pc in pieces], tol),
                  key=lambda h: frame_angle(h.point))
    angles = [frame_angle(h.point) for h in hits]
    # label P_0 by the hit in (-pi/6, pi/6] and the rest in angular order
    base = [b for b, a in enumerate(angles) if -math.pi / 6.0 < a <= math.pi / 6.0]
    regular = len(hits) == 6 and not any(h.tangent for h in hits) and len(base) == 1
    max_dev = math.inf
    points = tuple(h.point for h in hits)
    if regular:
        b = base[0]
        labeled = hits[b:] + hits[:b]
        devs = []
        for i, angle in enumerate(angles[b:] + angles[:b]):
            target = angles[b] + i * math.pi / 3.0
            target = (target + math.pi) % TWO_PI - math.pi
            devs.append(abs((angle - target + math.pi) % TWO_PI - math.pi))
        max_dev = max(devs)
        regular = max_dev <= DEFAULT_TOL
    if regular:
        points = tuple(h.point for h in labeled)
        # orientation pattern: hits 0 and 3 share the host orientation
        for i, hit in enumerate(labeled):
            pdir = pieces[hit.seg_index].seg.direction
            parallel = abs(pdir.dx * sd.dy - pdir.dy * sd.dx) <= math.sqrt(DEFAULT_TOL)
            same = pdir.dx * sd.dx + pdir.dy * sd.dy > 0.0
            if not parallel or same != (i in (0, 3)):
                regular = False
                break
    return HexagonProbe(A, angles[base[0]] if regular else None, points, regular, feasible,
                        max_dev if regular else math.inf)


@dataclass(frozen=True)
class AngleAuditEntry:
    vertex: Point
    convex_angle: float

    def to_dict(self) -> dict:
        return {"vertex": [self.vertex.x, self.vertex.y],
                "convex_angle": self.convex_angle}


def _default_audit_window(coloring: Coloring) -> Region:
    if isinstance(coloring, PolygonalColoring):
        return coloring.window
    if hasattr(coloring, "profile"):
        # one period of two consecutive curves, inflated a little
        u = np.linspace(-0.3, 1.3, 9)
        (x0, y0), (x1, y1) = coloring.curve_points(0, u), coloring.curve_points(1, u)
        xs, ys = np.concatenate((x0, x1)), np.concatenate((y0, y1))
        return Region(float(xs.min()) - 0.5, float(ys.min()) - 0.5,
                      float(xs.max()) + 0.5, float(ys.max()) + 0.5)
    return Region(-2.0, -2.0, 2.0, 2.0)


def boundary_angle_audit(coloring: Coloring, window: Optional[Region] = None,
                         tol: float = DEFAULT_TOL) -> list[AngleAuditEntry]:
    """Boundary vertices where exactly two pieces meet at angle <= 2*pi/3.

    The convex angle is measured between the two rays leaving the vertex
    along its pieces. An empty list is the zebra-consistent outcome: a
    coloring whose every monochromatic unit triangle touches the boundary
    cannot have a corner this sharp.
    """
    check_tol(tol)
    if window is None:
        window = _default_audit_window(coloring)
    pieces = coloring.boundary_segments(window)
    entries = []
    for v, members in _boundary_vertices(pieces, tol):
        if len(members) != 2:
            continue
        rays = []
        for idx in members:
            seg = pieces[idx].seg
            other = seg.q if distance(seg.p, v) <= distance(seg.q, v) else seg.p
            dx, dy = other - v
            n = math.hypot(dx, dy)
            rays.append((dx / n, dy / n))
        cosang = rays[0][0] * rays[1][0] + rays[0][1] * rays[1][1]
        angle = math.acos(min(max(cosang, -1.0), 1.0))
        if angle <= 2.0 * math.pi / 3.0 + tol:
            entries.append(AngleAuditEntry(v, angle))
    return entries
