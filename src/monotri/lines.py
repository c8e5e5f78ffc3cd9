"""Unit triangles with one vertex on each of three given lines.

Unless the three lines pass through a common point with pairwise angles of
pi/3 (the degenerate pencil, which admits a continuum of placements), there
are only finitely many unit triangles (A, B, C) with A on the first line,
B on the second and C on the third. The solver works in the frame whose
y-axis is the third line: membership of the apex reduces to one linear
equation in the two base abscissas, the unit base length to the quadratic
``x1^2 + x2^2 - x1*x2 = 3/4`` whose leading coefficient after elimination
is positive definite, so each orientation contributes at most two base
placements per branch.

``sweep_oracle`` is an independent cross-check: it sweeps the pose angle of
a rigid unit triangle, solves the two-unknown linear system that pins two
vertices to their lines, and root-finds the residual of the third by
bisection over sign changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .geom import (DEFAULT_TOL, MOST_FLOATS, SQRT3, TWO_PI, GeometryError, InvalidArgument,
                   Point, check_tol)

if TYPE_CHECKING:
    import numpy as np

HALF_SQRT3 = SQRT3 / 2.0


class AllParallel(GeometryError):
    """All three input lines are parallel; the solver requires otherwise."""


@dataclass(frozen=True)
class Line:
    """A line, either y = slope*x + intercept or vertical x = x0."""

    slope: Optional[float] = None
    intercept: Optional[float] = None
    x0: Optional[float] = None

    @staticmethod
    def slope_intercept(a: float, b: float) -> "Line":
        return Line(slope=float(a), intercept=float(b))

    @staticmethod
    def vertical(k: float) -> "Line":
        return Line(x0=float(k))

    @staticmethod
    def parse(text: str) -> "Line":
        """CLI syntax: ``a,b`` for y = a*x + b, ``vertical:k`` for x = k."""
        text = text.strip()
        if text.startswith("vertical:"):
            return Line.vertical(float(text.split(":", 1)[1]))
        a, b = text.split(",")
        return Line.slope_intercept(float(a), float(b))

    @property
    def is_vertical(self) -> bool:
        return self.x0 is not None

    def direction(self) -> tuple[float, float]:
        if self.is_vertical:
            return (0.0, 1.0)
        n = math.hypot(1.0, self.slope)
        return (1.0 / n, self.slope / n)

    def anchor(self) -> Point:
        if self.is_vertical:
            return Point(self.x0, 0.0)
        return Point(0.0, self.intercept)

    def normal_form(self) -> tuple[float, float, float]:
        """(nx, ny, d) with unit normal and n . p = d on the line."""
        dx, dy = self.direction()
        nx, ny = -dy, dx
        p = self.anchor()
        return (nx, ny, nx * p.x + ny * p.y)

    def distance_to(self, p: Point) -> float:
        nx, ny, d = self.normal_form()
        return abs(nx * p.x + ny * p.y - d)

    def to_text(self) -> str:
        if self.is_vertical:
            return f"vertical:{self.x0}"
        return f"{self.slope},{self.intercept}"


def _parallel(p: Line, q: Line, tol: float) -> bool:
    (dx1, dy1), (dx2, dy2) = p.direction(), q.direction()
    return abs(dx1 * dy2 - dy1 * dx2) <= tol


@dataclass(frozen=True)
class LinesSolution:
    """Either the degenerate concurrent pencil or a finite solution list.

    ``triangles`` hold labeled tuples (A, B, C) with A on the first input
    line, B on the second, C on the third; identical point sets arising
    from different algebraic branches are merged. ``branch_counts`` logs
    pre-deduplication counts per orientation for audit.
    """

    kind: str  # "degenerate-concurrent" | "finite"
    triangles: tuple[tuple[Point, Point, Point], ...] = ()
    branch_counts: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": len(self.triangles),
            "triangles": [[[v.x, v.y] for v in tri] for tri in self.triangles],
            "branch_counts": {k: v for k, v in self.branch_counts},
        }


def _dedup_key(tri, decimals: int = 8):
    return tuple(sorted((round(v.x, decimals), round(v.y, decimals)) for v in tri))


def dedup_triangles(tris, decimals: int = 8):
    seen = {}
    for tri in tris:
        seen.setdefault(_dedup_key(tri, decimals), tri)
    return list(seen.values())


def solve_unit_triangles(q1: Line, q2: Line, q3: Line,
                         tol: float = DEFAULT_TOL) -> LinesSolution:
    """All unit triangles with one labeled vertex per line, or the pencil.

    Returns the degenerate-concurrent verdict exactly when an orientation
    branch loses both linear coefficients and the two intercepts agree
    (equivalently: common point, pairwise angles pi/3). Nearly-degenerate
    data with distinct intercepts yields a finite (possibly empty) branch.
    """
    check_tol(tol)
    lines = (q1, q2, q3)
    if _parallel(q1, q2, tol) and _parallel(q2, q3, tol) and _parallel(q1, q3, tol):
        raise AllParallel("all three lines are parallel")

    # Role 3 must be non-parallel to the two others; prefer keeping q3.
    role3 = None
    for cand in (2, 0, 1):
        others = [i for i in range(3) if i != cand]
        if not any(_parallel(lines[cand], lines[o], tol) for o in others):
            role3 = cand
            break
    assert role3 is not None  # guaranteed: not all three parallel
    roles = ((role3 + 1) % 3, (role3 + 2) % 3, role3)  # cyclic keeps labels even

    # Rotate so the role-3 line is vertical, then shift it onto the y-axis.
    d3 = lines[role3].direction()
    rho = math.pi / 2.0 - math.atan2(d3[1], d3[0])
    cr, sr = math.cos(rho), math.sin(rho)

    def rot(p: Point) -> Point:
        return Point(cr * p.x - sr * p.y, sr * p.x + cr * p.y)

    def unrot(p: Point) -> Point:
        return Point(cr * p.x + sr * p.y, -sr * p.x + cr * p.y)

    k3 = rot(lines[role3].anchor()).x

    def rotated_slope_intercept(line: Line) -> tuple[float, float]:
        dx, dy = line.direction()
        rdx, rdy = cr * dx - sr * dy, sr * dx + cr * dy
        a = rdy / rdx
        p = rot(line.anchor())
        return a, p.y - a * (p.x - k3)

    a1, b1 = rotated_slope_intercept(lines[roles[0]])
    a2, b2 = rotated_slope_intercept(lines[roles[1]])
    coeff_scale = tol * (1.0 + abs(a1) + abs(a2))
    b_scale = tol * (1.0 + abs(b1) + abs(b2))

    solutions = []
    branch_counts = []
    for orientation, sgn in (("ccw", 1.0), ("cw", -1.0)):
        # Apex-on-axis condition, linear in the two base abscissas.
        alpha1 = (1.0 + sgn * SQRT3 * a1) / 2.0
        alpha2 = (1.0 - sgn * SQRT3 * a2) / 2.0
        beta = sgn * HALF_SQRT3 * (b1 - b2)
        if abs(alpha1) <= coeff_scale and abs(alpha2) <= coeff_scale:
            if abs(b1 - b2) <= b_scale:
                return LinesSolution("degenerate-concurrent")
            branch_counts.append((orientation, 0))
            continue  # parallel pi/3 pencil with offset lines: empty branch
        # Eliminate one abscissa, leaving a positive-definite quadratic.
        if abs(alpha1) >= abs(alpha2):
            cc, dd = -alpha2 / alpha1, -beta / alpha1
            solve_for_x1 = True
        else:
            cc, dd = -alpha1 / alpha2, -beta / alpha2
            solve_for_x1 = False
        qa = cc * cc - cc + 1.0
        qb = 2.0 * cc * dd - dd
        qc = dd * dd - 0.75
        disc = qb * qb - 4.0 * qa * qc
        branch = []
        if disc >= 0.0:
            root = math.sqrt(disc)
            for r in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)):
                if solve_for_x1:
                    x2, x1 = r, cc * r + dd
                else:
                    x1, x2 = r, cc * r + dd
                y1_, y2_ = a1 * x1 + b1, a2 * x2 + b2
                cx = 0.5 * (x1 + x2) + sgn * HALF_SQRT3 * (y1_ - y2_)
                cy = 0.5 * (y1_ + y2_) + sgn * HALF_SQRT3 * (x2 - x1)
                tri_frame = (Point(x1, y1_), Point(x2, y2_), Point(cx, cy))
                tri_world = tuple(unrot(Point(p.x + k3, p.y)) for p in tri_frame)
                labeled = [None, None, None]
                for role_pos, orig in enumerate(roles):
                    labeled[orig] = tri_world[role_pos]
                branch.append(tuple(labeled))
        if disc == 0.0 and branch:
            branch = branch[:1]
        branch_counts.append((orientation, len(branch)))
        solutions.extend(branch)

    return LinesSolution("finite", tuple(dedup_triangles(solutions)),
                         tuple(branch_counts))


@functools.lru_cache(maxsize=4)
def _angle_table(n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's pose angles ``2*pi*k/n_steps`` with their cosines and sines."""
    import numpy as np

    phis = np.arange(n_steps) * (TWO_PI / n_steps)
    table = (phis, np.cos(phis), np.sin(phis))
    for column in table:
        column.setflags(write=False)
    return table


def sweep_oracle(q1: Line, q2: Line, q3: Line, angle_step: float = 1e-4,
                 tol: float = DEFAULT_TOL) -> list[tuple[Point, Point, Point]]:
    """Independent pose-sweep cross-check of :func:`solve_unit_triangles`.

    For each pose angle the first two vertex-on-line constraints fix the
    translation by a 2x2 solve; the residual of the third constraint is
    swept at ``angle_step`` and sign changes are refined by bisection to
    1e-9. The residual is affine in the pose's (cos, sin), so the sweep
    evaluates ``alpha + beta*cos + gamma*sin`` over a cached angle table,
    with the coefficients read off the residual at (0, 0), (1, 0) and
    (0, 1); the bisection and the placements use the residual itself. A
    residual that vanishes on most of the sweep flags the infinite
    (degenerate concurrent) family and is reported as up to 400 sampled
    placements. ``angle_step`` must be in (0, 1e-3] and give at most
    ``MOST_FLOATS`` sweep angles, or ``InvalidArgument`` names it.
    """
    import numpy as np

    check_tol(tol)
    if not (0.0 < angle_step <= 1e-3 and TWO_PI / angle_step <= MOST_FLOATS):
        raise InvalidArgument("angle_step", f"must be a number > 0 and <= 0.001 whose sweep "
                                            f"holds at most {MOST_FLOATS} angles", angle_step)
    lines = (q1, q2, q3)
    if _parallel(q1, q2, tol) and _parallel(q2, q3, tol) and _parallel(q1, q3, tol):
        raise AllParallel("all three lines are parallel")

    norms = [ln.normal_form() for ln in lines]
    # Pick two lines with independent normals for the translation solve.
    pair = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = norms[i][0] * norms[j][1] - norms[i][1] * norms[j][0]
        if abs(det) > 1e-9:
            pair = (i, j)
            break
    i, j = pair
    k = ({0, 1, 2} - {i, j}).pop()
    ni, nj, nk = norms[i], norms[j], norms[k]
    det = ni[0] * nj[1] - ni[1] * nj[0]

    offsets = {
        "ccw": (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, HALF_SQRT3)),
        "cw": (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, -HALF_SQRT3)),
    }

    results = []
    n_steps = int(math.ceil(TWO_PI / angle_step))
    phis, cos_p, sin_p = _angle_table(n_steps)

    for orientation, verts in offsets.items():
        # At pose (cos, sin) = (c, s): the translation that pins vertices i
        # and j to their lines, and the rotated vertices.
        def place(c, s):
            rot = [(c * v.x - s * v.y, s * v.x + c * v.y) for v in verts]
            bi = ni[2] - (ni[0] * rot[i][0] + ni[1] * rot[i][1])
            bj = nj[2] - (nj[0] * rot[j][0] + nj[1] * rot[j][1])
            return (bi * nj[1] - bj * ni[1]) / det, (bj * ni[0] - bi * nj[0]) / det, rot

        def residual(c, s):
            tx, ty, rot = place(c, s)
            return nk[0] * (tx + rot[k][0]) + nk[1] * (ty + rot[k][1]) - nk[2]

        def triangle_at(phi: float):
            tx, ty, rot = place(math.cos(phi), math.sin(phi))
            return tuple(Point(tx + x, ty + y) for x, y in rot)

        alpha = residual(0.0, 0.0)
        resid = alpha + (residual(1.0, 0.0) - alpha) * cos_p
        resid += (residual(0.0, 1.0) - alpha) * sin_p
        plateau = np.abs(resid) < 1e-10
        if plateau.mean() > 0.5:
            stride = max(1, n_steps // 400)
            for idx in np.flatnonzero(plateau)[::stride]:
                results.append(triangle_at(float(phis[idx])))
            continue

        brackets = [(float(phis[idx]), float(phis[idx]) + TWO_PI / n_steps)
                    for idx in np.flatnonzero(resid[:-1] * resid[1:] < 0.0)]
        if resid[-1] * resid[0] < 0.0:  # closing wrap-around interval
            brackets.append((float(phis[-1]), TWO_PI))
        roots = [float(phis[idx]) for idx in np.flatnonzero(resid == 0.0)]
        for lo, hi in brackets:
            flo = residual(math.cos(lo), math.sin(lo))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = residual(math.cos(mid), math.sin(mid))
                if hi - lo < 1e-12:
                    break
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi) % TWO_PI)
        for phi in roots:
            results.append(triangle_at(phi))

    return dedup_triangles(results, decimals=6)
