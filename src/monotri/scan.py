"""Search and verification over colorings.

Grid scans for monochromatic congruent copies of a triangle spec, avoidance
counts over a full placement grid, a guided search for almost-unit triangles
in both color classes, and two boundary diagnostics: the six-point hexagon
probe around a feasible boundary point and the convex-angle audit of
boundary vertices. Both read the coloring's ``PieceTable`` in a window: a
vertex's degree is the number of piece ends with its id, and the unit
circle meets the pieces, rays over their whole range, in one array pass.

A placement is a pose index (angle index, x index, y index) applied to the
canonical triangle of :func:`monotri.geom.place_triangle`. Find and
avoidance scans share one engine, which walks blocks of poses in
lexicographic pose order. A block is a run of whole angles over all of a
grid's n translations, at most ``_SCAN_BLOCK // n`` angles in an avoidance
scan, which classifies two vertices per call, and ``2 * _SCAN_BLOCK // n``
in a find scan, which classifies one (its first run is one angle and each
later one doubles, up to that cap); only
when one angle has more than ``_SCAN_BLOCK`` translations is a block a
slice of one angle's translations, at most ``_SCAN_BLOCK`` of them (a find
scan's first slice is ``isqrt(_SCAN_BLOCK)`` and each later one doubles,
up to that cap). Translations are built from flat lattice indices, a block
at a time, so a scan's memory does not grow with the lattice. Vertex 1
sits at the canonical triangle's origin, so at every angle it is its
translation, bit for bit, and its mask is angle-free: the engine
classifies it once for the whole scan when the lattice fits in a block,
else once per slice, and each block's masks broadcast against it.
Results are deterministic, the first witness found is the least one, and
a find scan stops in the block of its witness. A find scan classifies
vertex 2 once per block and vertex 3 only where vertices 1 and 2 agree,
and takes the margins of a block's monochromatic poses in batches of
doubling size, one ``distance`` call per batch, in pose order; an
avoidance scan classifies vertices 2 and 3 everywhere, in one call per
block, which its near-miss rule needs. Placements with an
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
    UnitVector,
    WindowTooLarge,
    check_sides,
    check_tol,
    distance,
    place_triangle,
)
from .colorings import (Color, Coloring, PolygonalColoring, _clip, _offsets, _resolved_black,
                        circle_polyline_intersections)


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
# double. A zebra ``distance`` call costs about 105 us plus 0.9 us per
# point, so 4 candidates (12 points) cost under a tenth more than one, and
# doubling spends at most about as many points past the witness as before it.
_MARGIN_BATCH = 4
_EXAMPLES = 8  # the first monochromatic placements and near misses an avoidance report lists


def _placed_poses(coloring: Coloring, spec: TriangleSpec, grid: ScanGrid, tol: float,
                  find: bool = False):
    """The scan engine: per block of poses, in pose order, ``(pose, place, first)``.

    The grid's n translations are flat lattice indices t, x major and y
    minor, at ``x0 + (t // ny) * step`` and ``y0 + (t % ny) * step``: the
    floats ``ScanGrid.xs`` and ``ys`` hold, bit for bit. For a coloring that
    reads ys alone (``_YS_ONLY``) they are the first column's only, n = ny.
    A block builds its translations from their indices, so no array holds
    more translations than a block.
    When n <= ``_SCAN_BLOCK``, a block is a run of whole angles k0, k0 + 1,
    ... over all n translations: ``_SCAN_BLOCK // n`` angles, or, for a
    ``find`` scan, one angle in the first block and twice as many in each
    later one up to ``2 * _SCAN_BLOCK // n``. An avoidance block classifies
    vertices 1 and 2 in one call and a find block one vertex per call, so
    no ``resolve`` call sees more than ``2 * _SCAN_BLOCK`` points either
    way. Avoidance runs stay at ``_SCAN_BLOCK`` poses: at twice that, about
    15k points a call, a fresh ``monotri avoid`` process over 13.4 M
    placements took 313k-367k minor page faults instead of 5.4k, and
    0.3-0.45 s of system time, as glibc trimmed and re-grew the heap at
    every block (a heap layout that depends on what ran before the scan;
    a long-lived process need not show it). Otherwise a block is one angle
    and a slice of consecutive translations: ``_SCAN_BLOCK`` of them, or,
    for a ``find`` scan, ``isqrt(_SCAN_BLOCK)`` in the first slice and twice
    as many in each later one up to ``_SCAN_BLOCK``; a slice ends at its
    angle's last translation. Pose i of a block of m translations is angle
    k0 + i // m at translation i % m; ``pose(i)`` is ``(k, angle, x, y)``.
    ``place(v, at)`` is the points ``(xs, ys)`` of vertex ``v`` (0, 1 or 2)
    over the block, one broadcast add of translations and offsets, or over
    the block's poses ``at`` only, whose translations and offsets are
    gathered before the add; ``place(slice(1, 3))`` is vertex 1's points,
    then vertex 2's, in one add. Offsets are rotated in Python floats, one
    angle at a time, so that every vertex is the one :func:`place_triangle`
    gives for its pose.

    ``first`` is ``coloring.resolve`` of vertex 0 over the block's m
    translations, one entry per translation, since it is the same at every
    angle: :func:`place_triangle` puts vertex 0 at the origin, which every
    rotation keeps there, so vertex 0 is its translation plus a +-0.0
    offset, and that is the translation bit for bit (a lattice value
    ``x0 + i * step`` is never -0.0). So pose i's vertex 0 has entry
    i % m, and the masks of a block's (runs, m) poses broadcast against
    ``first``. When n <= ``_SCAN_BLOCK`` every block has the same
    translations, and ``first`` is one call for the whole scan; a sliced
    lattice classifies each slice's translations, so that the scan's
    arrays stay one block's size.
    """
    ny = grid._count(grid.region.y0, grid.region.y1)
    n = ny if coloring._YS_ONLY else grid.columns() * ny

    def translations(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(lo, hi)
        return (grid.region.x0 + (t // ny) * grid.position_step,
                grid.region.y0 + (t % ny) * grid.position_step)

    base = place_triangle(spec, RigidMotion(0.0))
    angles = grid.angles().tolist()
    block = _SCAN_BLOCK
    cap = max((2 if find else 1) * block // n, 1)
    run = 1 if find else cap
    # 64 poses at the default block: a zebra ``resolve`` call costs about
    # 23 us plus 17 ns per point, so a smaller first slice saves under 2 us
    size = math.isqrt(block) if find and n > block else block
    if n <= block:
        xs, ys = translations(0, n)
        first = coloring.resolve(xs, ys, tol)
    k0 = 0
    while k0 < len(angles):
        rot = [(math.cos(a), math.sin(a)) for a in angles[k0:k0 + run]]
        # the x offsets of vertices 0, 1 and 2, then their y offsets, a row
        # per vertex and a column per angle
        offsets = np.array([[c * p.x - s * p.y for c, s in rot] for p in base]
                           + [[s * p.x + c * p.y for c, s in rot] for p in base])[..., None]
        lo = 0
        while lo < n:
            if n > block:
                xs, ys = translations(lo, min(lo + size, n))
                first = coloring.resolve(xs, ys, tol)

            def pose(i, k0=k0, xs=xs, ys=ys):
                k, t = divmod(int(i), xs.size)
                return k0 + k, angles[k0 + k], float(xs[t]), float(ys[t])

            def place(v, at=None, xs=xs, ys=ys, ox=offsets[:3], oy=offsets[3:]):
                if at is None:
                    return (xs + ox[v]).ravel(), (ys + oy[v]).ravel()
                k, at = np.divmod(at, xs.size)
                return xs[at] + ox[v, k, 0], ys[at] + oy[v, k, 0]

            yield pose, place, first
            lo += size
            size = min(2 * size, block)
        k0 += len(rot)
        run = min(2 * run, cap)


def find_monochromatic_copy(coloring: Coloring, spec: TriangleSpec, grid: ScanGrid,
                            min_margin: float = 0.0,
                            tol: float = DEFAULT_TOL) -> Optional[ScanWitness]:
    """First placement (in pose order) that is monochromatic with margin.

    Vertex 1 is classified once per lattice or slice (see the module
    docstring), vertex 2 once per block, and vertex 3 only where vertices 1
    and 2 agree, and the scan stops in the block of its witness. Runs of
    whole angles start at one angle and double up to the engine's cap of
    ``2 * _SCAN_BLOCK // n`` angles over n translations, twice an avoidance
    scan's, since each call classifies one vertex; so a witness at angle k
    is found after classifying at most 2k + 1 angles; where one angle holds
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
    for pose, place, (b1, _, u1) in _placed_poses(coloring, spec, grid, tol, find=True):
        m = b1.size
        b2, _, u2 = coloring.resolve(*place(1), tol)
        b2, u2 = b2.reshape(-1, m), u2.reshape(-1, m)
        pairs = np.flatnonzero((b1 == b2) & ~(u1 | u2))
        b3, _, u3 = coloring.resolve(*place(2, pairs), tol)
        mono = pairs[(b3 == b1[pairs % m]) & ~u3]
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
                color = Color.BLACK if bool(b1[i % m]) else Color.WHITE
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
    and examples are expanded to every column (see the module docstring).
    A block is a run of ``_SCAN_BLOCK // n`` whole angles over n
    translations, or a slice of one angle, and its vertices 2 and 3 take
    one ``resolve`` call; a block with no vertex on the boundary skips the
    near-miss masks, and one with no vertex unresolved the unresolved
    masks. A triangle and grid that ``tol`` cannot scan raise
    ``InvalidArgument`` (see ``_check_scan``).
    """
    _check_scan(spec, grid, tol)
    one_column = coloring._YS_ONLY
    mono_count = 0
    near_count = 0
    unresolved = 0
    mono_ex: list[tuple[int, float, float]] = []
    near_ex: list[tuple[int, float, float]] = []
    for pose, place, (b1, on1, u1) in _placed_poses(coloring, spec, grid, tol):
        # vertices 2 and 3 in one call, as (2, runs, m) masks, which
        # broadcast against vertex 1's m translations
        b23, on23, u23 = coloring.resolve(*place(slice(1, 3)), tol)
        b2, b3 = b23.reshape(2, -1, b1.size)
        mono = (b1 == b2) & (b2 == b3)
        # most blocks have no vertex unresolved or on the boundary (on a zebra
        # twin, almost none has), and skip these masks
        bad = None
        if u1.any() or u23.any():
            u2, u3 = u23.reshape(2, -1, b1.size)
            bad = u1 | u2 | u3
            unresolved += int(np.count_nonzero(bad))
            mono &= ~bad
        mono_count += int(np.count_nonzero(mono))
        found = [(mono, mono_ex)]
        if on1.any() or on23.any():
            on2, on3 = on23.reshape(2, -1, b1.size)
            near = (~mono) & (((b1 == b2) & on3) | ((b1 == b3) & on2) | ((b2 == b3) & on1))
            if bad is not None:
                near &= ~bad
            near_count += int(np.count_nonzero(near))
            found.append((near, near_ex))
        for mask, acc in found:
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


def _opposite_pair(coloring: Coloring, epsilon: float, tol: float
                   ) -> Optional[tuple[Point, Point]]:
    """(black, white): the points eps/16 along the normal either side of the
    midpoint of the first boundary piece, clipped to [-2, 2]^2, where both
    resolve off the boundary to opposite colors, in one ``resolve`` call.
    None if no piece does, or if the square holds more boundary than a
    window may (a strip of scale 1e-6 does)."""
    box = Region(-2.0, -2.0, 2.0, 2.0)
    try:
        table = coloring.boundary_segments(box)
    except WindowTooLarge:
        return None
    _, a, b = _clip(np.stack((table.ax, table.ay)), np.stack((table.ex, table.ey)), box,
                    table.u_lo, table.u_hi)
    e, n = b - a, a.shape[1]
    shift = (epsilon / 16.0) * np.stack((-e[1], e[0])) / np.hypot(*e)
    xs, ys = np.concatenate((0.5 * (a + b) + shift, 0.5 * (a + b) - shift), axis=1)
    black, on, unresolved = coloring.resolve(xs, ys, tol)
    clear = ~(on | unresolved)
    for k in np.flatnonzero(clear[:n] & clear[n:] & (black[:n] != black[n:]))[:1]:
        return tuple(Point(float(xs[i]), float(ys[i]))
                     for i in ((k, n + k) if black[k] else (n + k, k)))
    return None


def find_almost_unit(coloring: Coloring, epsilon: float, tries: int = 10 ** 6,
                     seed: int = 0, tol: float = DEFAULT_TOL) -> Optional[AlmostUnitPair]:
    """Search both color classes for triangles with sides in [1-eps, 1+eps].

    Strategy: take an opposite-colored pair R (black), S (white) eps/8
    apart across the boundary in the square [-2, 2]^2, whose unit circles
    stay inside [-3, 3]^2 (``_opposite_pair``; it spends no tries), then
    walk the unit circles around S and R at angular step eps/4. Any
    same-colored sample pair whose chord falls in [1-eps, 1+eps] closes a
    triangle with R or S, whose colors are already known. Random unit
    triangles with a vertex in [-2, 2]^2 serve as a fallback when the walk
    leaves a class missing or there is no pair (no boundary in the square);
    ``seed`` drives this phase only. Returns None once the try budget is
    spent with a class still missing: a sampling verdict, "budget spent",
    not a proof that the class holds no such triangle. An ``epsilon``
    outside (0, 1), ``tries`` below 1 and a negative ``seed`` raise
    ``InvalidArgument`` naming the parameter.
    """
    check_tol(tol)
    if not (0.0 < epsilon < 1.0):
        raise InvalidArgument("epsilon", "must lie strictly between 0 and 1", epsilon)
    if not (1 <= tries < math.inf):
        raise InvalidArgument("tries", "must be a finite number >= 1", tries)
    if not (seed >= 0):
        raise InvalidArgument("seed", "must be >= 0", seed)
    budget = tries
    found: dict[Color, tuple[Point, Point, Point]] = {}

    def consume(n: int = 1) -> bool:
        nonlocal budget
        budget -= n
        return budget > 0

    # Phase 1 (no tries): a black point R and a white point S eps/8 apart.
    # Phase 2: the unit circles around S and R; every color is known.
    pair = _opposite_pair(coloring, epsilon, tol)
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
                    if _almost_unit_shape(tri, epsilon):
                        found[color] = tri
                        if len(found) == 2:
                            break

    # Phase 3: random exact-unit triangles anywhere in Q(2).
    rng = np.random.default_rng(seed)
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
    table = coloring.boundary_segments(window)
    # the host is the first piece at the least distance, as math.hypot gives
    # it; an offset that is NaN, where the projection overflows, is no candidate
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = _offsets(A.x, A.y, table.ax, table.ay, table.ex, table.ey, table.len2,
                          table.u_lo, table.u_hi)
    dist = np.fmin(np.fromiter(map(math.hypot, gx.tolist(), gy.tolist()), float, gx.size), np.inf)
    if not dist.size or dist.min() > tol:
        raise NotOnBoundary(f"({A.x}, {A.y}) is not on the boundary")
    host = int(dist.argmin())

    feasible = not any(dv <= tol or abs(dv - 1.0) <= tol for dv in
                       map(math.hypot, (table.vx - A.x).tolist(), (table.vy - A.y).tolist()))

    def direction(k: int) -> UnitVector:
        return UnitVector.normalized(float(table.ex[k]), float(table.ey[k]))

    sd = direction(host)
    def frame_angle(p: Point) -> float:
        vx, vy = p - A
        return math.atan2(-vx * sd.dy + vy * sd.dx, vx * sd.dx + vy * sd.dy)

    hits = sorted(circle_polyline_intersections(Circle(A, 1.0), table, tol),
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
            pdir = direction(hit.seg_index)
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
    table = coloring.boundary_segments(window)
    # end 2k of the table is piece k's a, end 2k + 1 its b
    ends = list(zip(np.stack((table.ax, table.bx), axis=1).ravel().tolist(),
                    np.stack((table.ay, table.by), axis=1).ravel().tolist()))
    ids = np.stack((table.v0, table.v1), axis=1).ravel()
    # each vertex's ends in piece order, vertex by vertex; the first is its point
    refs = np.argsort(ids, kind="stable")[np.count_nonzero(ids < 0):]
    degree = np.bincount(ids[refs], minlength=table.vx.size)
    at = (np.cumsum(degree) - degree)[degree == 2]
    entries = []
    for e, f in zip(refs[at].tolist(), refs[at + 1].tolist()):
        (vx, vy), rays = ends[e], []
        for g in (e, f):  # along each piece, to its other end g ^ 1
            dx, dy = ends[g ^ 1][0] - vx, ends[g ^ 1][1] - vy
            n = math.hypot(dx, dy)
            rays.append((dx / n, dy / n))
        cosang = rays[0][0] * rays[1][0] + rays[0][1] * rays[1][1]
        angle = math.acos(min(max(cosang, -1.0), 1.0))
        if angle <= 2.0 * math.pi / 3.0 + tol:
            entries.append(AngleAuditEntry(Point(vx, vy), angle))
    return entries
