import copy
import hashlib
import importlib.util
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotri.geom import DEFAULT_TOL, GeometryError, InvalidArgument, Point, Region, UnitVector
from monotri.colorings import (
    Color,
    PieceTable,
    HalfPlaneColoring,
    MalformedProfile,
    PolygonalColoring,
    PolygonTables,
    BoundaryPiece,
    SchemaError,
    StripColoring,
    UnresolvedFace,
    ZebraColoring,
    ZebraProfile,
    all_black_coloring,
    check_zebra_conditions,
    coloring_from_dict,
    l_shape_coloring,
)
from monotri.geom import DegenerateSegment, Segment, distance
from scalar_oracles import first_crossing, locate, piece_distance, table_of

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0

ZIGZAG = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
SAWTOOTH = ZebraProfile(((0.0, 0.0), (0.5, 0.8), (1.0, 0.0)))


def one_point_distance(coloring, p: Point) -> float:
    """``distance`` of the one point ``p``."""
    return float(coloring.distance(np.array([p.x]), np.array([p.y]))[0])


def curve_index_at(zc: ZebraColoring, p: Point, tol: float = DEFAULT_TOL):
    """The index of the first curve within ``tol`` of ``p``, None if none is."""
    _, on_curve, idx, _ = locate(zc, np.array([p.x]), np.array([p.y]), tol)
    return int(idx[0]) if bool(on_curve[0]) else None


def sample_d_condition(zc, n_pairs=10000, seed=7, tol=1e-9):
    """Brute-force oracle for condition (d): sample pairs A on L0, B on L1
    and check the biconditional |AB| > 1 <-> angle(AB, x_hat) < pi/3."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, n_pairs)
    betas = alphas + rng.uniform(-2.0, 2.0, n_pairs)
    # curve_points is curve_point over an array, bit for bit
    ax, ay = (c.tolist() for c in zc.curve_points(0, alphas))
    bx, by = (c.tolist() for c in zc.curve_points(1, betas))
    violations = []
    for A, B in zip(map(Point, ax, ay), map(Point, bx, by)):
        dx, dy = B.x - A.x, B.y - A.y
        r = math.hypot(dx, dy)
        along = dx * zc.x_hat.dx + dy * zc.x_hat.dy
        across = -dx * zc.x_hat.dy + dy * zc.x_hat.dx
        theta = math.atan2(abs(across), abs(along))
        if (r > 1 + tol and theta >= math.pi / 3 + tol) or \
           (r < 1 - tol and theta <= math.pi / 3 - tol):
            violations.append((A, B, r, theta))
    return violations


class TestStripColoring:
    def test_examples(self):
        sc = StripColoring(1.0, "upper-closed")
        assert sc.color_at(Point(0, 0.2)) is Color.BLACK
        assert sc.color_at(Point(5.3, 1.0)) is Color.WHITE
        assert sc.color_at(Point(0, 0)) is Color.WHITE

    def test_closure_rules(self):
        up = StripColoring(1.0, "upper-closed")
        lo = StripColoring(1.0, "lower-closed")
        top = SQRT3 / 2
        assert up.color_at(Point(0, top)) is Color.BLACK
        assert lo.color_at(Point(0, top)) is Color.WHITE
        assert up.color_at(Point(0, 0.0)) is Color.WHITE
        assert lo.color_at(Point(0, 0.0)) is Color.BLACK

    def test_scaled(self):
        sc = StripColoring(2.0)
        assert sc.color_at(Point(0, 0.4)) is Color.BLACK
        assert sc.color_at(Point(0, 2.0)) is Color.WHITE  # 2.0 > sqrt(3)

    def test_black_density_half(self):
        sc = StripColoring(1.0)
        rng = np.random.default_rng(2024)
        xs = rng.uniform(0, 100, 10 ** 5)
        ys = rng.uniform(0, 100, 10 ** 5)
        frac = sc.resolve(xs, ys)[0].mean()
        assert abs(frac - 0.5) < 0.01

    def test_boundary_distance(self):
        sc = StripColoring(1.0)
        assert one_point_distance(sc, Point(3.0, 0.1)) == pytest.approx(0.1)
        assert one_point_distance(sc, Point(-1.0, SQRT3 / 2)) == pytest.approx(0.0, abs=1e-12)


class TestZebraProfileValidation:
    def test_not_periodic(self):
        with pytest.raises(MalformedProfile):
            ZebraProfile(((0.0, 0.0), (1.0, 0.5)))

    def test_not_increasing(self):
        with pytest.raises(MalformedProfile):
            ZebraProfile(((0.0, 0.0), (0.5, 0.1), (0.5, 0.2), (1.0, 0.0)))

    def test_wrong_span(self):
        with pytest.raises(MalformedProfile):
            ZebraProfile(((0.1, 0.0), (1.0, 0.0)))

    def test_fake_interior_vertex(self):
        with pytest.raises(MalformedProfile):
            ZebraProfile(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)))

    def test_amplitude_cap(self):
        with pytest.raises(MalformedProfile):
            ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.9), (1.0, 0.0))))

    def test_one_period_exactly(self):
        """u runs from exactly 0.0 to exactly 1.0 and the last v is the first:
        ends off by as little as an ulp made each curve jump at every integer u."""
        for vertices, message in (
                (((-2.0 ** -60, 0.0), (0.5, 0.2), (1.0, 0.0)), "span u = 0 to u = 1"),
                (((0.0, 0.0), (0.5, 0.2), (1.0 - 2.0 ** -53, 0.0)), "span u = 0 to u = 1"),
                (((0.0, 0.0), (0.5, 0.2), (1.0 + 2.0 ** -52, 0.0)), "span u = 0 to u = 1"),
                (((0.0, 0.0), (0.5, 0.2), (1.0, 2.0 ** -60)), "not periodic")):
            with pytest.raises(MalformedProfile, match=message):
                ZebraProfile(vertices)
        steep = ZebraProfile(((0.0, 0.0), (0.5, 0.2), (1.0 - 1.1e-9, 1e-10), (1.0, 0.0)))
        below, at = steep.values(np.array([1.0 - 2.0 ** -53, 1.0])).tolist()
        assert at == 0.0 and 0.0 < below < 1e-16


def curve_segments(zc: ZebraColoring, i: int, window: Region) -> list[Segment]:
    """The pieces of the ``boundary_segments`` table that lie on L_i, as segments."""
    table = zc.boundary_segments(window)
    segs = [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in
            zip(table.ax.tolist(), table.ay.tolist(), table.bx.tolist(), table.by.tolist())]
    return [seg for seg in segs if curve_index_at(
        zc, Point(0.5 * (seg.p.x + seg.q.x), 0.5 * (seg.p.y + seg.q.y))) == i]


class TestZebraColoring:
    def test_flat_examples(self):
        flat = ZebraColoring()
        assert flat.color_at(Point(0.3, 0.4)) is Color.BLACK
        assert flat.color_at(Point(0.3, 1.0)) is Color.WHITE
        assert flat.color_at(Point(7.25, 0.0)) is Color.BLACK  # on L0, even

    def test_flat_curve_is_single_segment(self):
        flat = ZebraColoring()
        segs = curve_segments(flat, 0, Region(-1, -1, 1, 1))
        assert len(segs) == 1
        (p, q) = segs[0].p, segs[0].q
        assert {round(p.x, 9), round(q.x, 9)} == {-1.0, 1.0}
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_flat_curve_index_two(self):
        flat = ZebraColoring()
        segs = curve_segments(flat, 2, Region(-1, -1, 2, 2))
        assert len(segs) == 1
        assert segs[0].p.y == pytest.approx(SQRT3)

    def test_zigzag_curve_echoes_profile(self):
        zc = ZebraColoring(ZIGZAG)
        segs = curve_segments(zc, 0, Region(0, -1, 1, 1))
        assert len(segs) == 2
        corners = sorted({(round(s.p.x, 6), round(s.p.y, 6)) for s in segs} |
                         {(round(s.q.x, 6), round(s.q.y, 6)) for s in segs})
        assert (0.5, 0.1) in corners

    def test_periodicity(self):
        rng = np.random.default_rng(5)
        for prof in (ZIGZAG, ZebraProfile(((0, 0), (0.3, 0.07), (0.8, -0.05), (1, 0)))):
            zc = ZebraColoring(prof, x_hat=UnitVector.from_angle(0.3))
            xs = rng.uniform(-5, 5, 10 ** 4)
            ys = rng.uniform(-5, 5, 10 ** 4)
            a = zc.resolve(xs, ys)[0]
            b = zc.resolve(xs + zc.x_hat.dx, ys + zc.x_hat.dy)[0]
            assert (a == b).all()

    def test_anti_periodicity_off_boundary(self):
        rng = np.random.default_rng(6)
        zc = ZebraColoring(ZIGZAG)
        xs = rng.uniform(-5, 5, 10 ** 4)
        ys = rng.uniform(-5, 5, 10 ** 4)
        off = ~zc.resolve(xs, ys, 1e-7)[1]
        # z = x_hat/2 + (sqrt(3)/2) times the ccw quarter turn of x_hat
        zx = 0.5 * zc.x_hat.dx - HALF_SQRT3 * zc.x_hat.dy
        zy = 0.5 * zc.x_hat.dy + HALF_SQRT3 * zc.x_hat.dx
        off &= ~zc.resolve(xs + zx, ys + zy, 1e-7)[1]
        a = zc.resolve(xs, ys)[0]
        b = zc.resolve(xs + zx, ys + zy)[0]
        assert (a[off] != b[off]).all()

    def test_flat_matches_strip_off_boundary(self):
        flat = ZebraColoring()
        sc = StripColoring(1.0, "upper-closed")
        rng = np.random.default_rng(7)
        xs = rng.uniform(-50, 50, 10 ** 5)
        ys = rng.uniform(-50, 50, 10 ** 5)
        assert (flat.resolve(xs, ys)[0] == sc.resolve(xs, ys)[0]).all()

    def test_boundary_parity_coloring(self):
        zc = ZebraColoring(ZIGZAG, boundary_parity="even-black")
        p0 = zc.curve_point(0, 0.3)
        p1 = zc.curve_point(1, 0.3)
        assert zc.color_at(p0) is Color.BLACK
        assert zc.color_at(p1) is Color.WHITE

    def test_scalar_matches_vectorized(self):
        zc = ZebraColoring(ZIGZAG, x_hat=UnitVector.from_angle(-0.2))
        rng = np.random.default_rng(8)
        xs = rng.uniform(-3, 3, 200)
        ys = rng.uniform(-3, 3, 200)
        mask = zc.resolve(xs, ys)[0]
        for x, y, m in zip(xs, ys, mask):
            assert (zc.color_at(Point(float(x), float(y))) is Color.BLACK) == bool(m)

    def test_rotated_frame(self):
        zc = ZebraColoring(x_hat=UnitVector.from_angle(math.pi / 5))
        p = zc.curve_point(3, 0.42)
        assert curve_index_at(zc, p) == 3
        assert one_point_distance(zc, p) < 1e-12


class TestTwin:
    def test_flip_changes_only_boundary(self):
        zc = ZebraColoring(ZIGZAG, boundary_parity="even-black")
        tw = zc.twin("even-white")
        rng = np.random.default_rng(9)
        xs = rng.uniform(-3, 3, 5000)
        ys = rng.uniform(-3, 3, 5000)
        off = ~zc.resolve(xs, ys, 1e-7)[1]
        a = zc.resolve(xs, ys)[0]
        b = tw.resolve(xs, ys)[0]
        assert (a[off] == b[off]).all()
        p = zc.curve_point(0, 0.25)
        assert zc.color_at(p) is not tw.color_at(p)

    def test_involution(self):
        zc = ZebraColoring(ZIGZAG, boundary_parity="even-black")
        assert zc.twin("even-white").twin("even-black") == zc

    def test_flat_twin_differs_exactly_on_lines(self):
        # flipping the boundary parity of the flat zebra changes colors
        # exactly on the lines y = i * sqrt(3)/2
        zc = ZebraColoring()
        tw = zc.twin("even-white")
        rng = np.random.default_rng(10)
        for _ in range(500):
            x = float(rng.uniform(-5, 5))
            i = int(rng.integers(-4, 5))
            on_line = Point(x, i * SQRT3 / 2)
            assert zc.color_at(on_line) is not tw.color_at(on_line)
            off_line = Point(x, i * SQRT3 / 2 + float(rng.uniform(0.01, 0.8)))
            assert zc.color_at(off_line) is tw.color_at(off_line)

    def test_preserves_condition_verdicts(self):
        for prof in (ZIGZAG, SAWTOOTH):
            zc = ZebraColoring(prof)
            a = check_zebra_conditions(zc)
            b = check_zebra_conditions(zc.twin("even-white"))
            assert a.d_ok == b.d_ok


class TestZebraConditions:
    def test_flat_passes(self):
        rep = check_zebra_conditions(ZebraColoring())
        assert rep.all_ok

    def test_zigzag_oracle_then_exact(self):
        zc = ZebraColoring(ZIGZAG)
        assert sample_d_condition(zc) == []  # oracle first
        rep = check_zebra_conditions(zc)
        assert rep.all_ok and rep.witness is None

    def test_sawtooth_fails_with_witness(self):
        zc = ZebraColoring(SAWTOOTH)
        violations = sample_d_condition(zc)
        assert violations  # oracle confirms the profile is bad
        rep = check_zebra_conditions(zc)
        assert not rep.d_ok and rep.witness is not None
        w = rep.witness
        # the witness violates the biconditional on its own terms
        assert (w.dist > 1 and w.theta >= math.pi / 3) or \
            (w.dist <= 1 and w.theta < math.pi / 3)
        # and its endpoints really lie on consecutive curves
        assert curve_index_at(zc, w.A) == 0
        assert curve_index_at(zc, w.B) == 1

    def test_checker_agrees_with_oracle_on_varied_profiles(self):
        profiles = [
            ((0, 0), (1, 0)),
            ((0, 0), (0.5, 0.1), (1, 0)),
            ((0, 0), (0.25, 0.12), (0.75, -0.12), (1, 0)),
            ((0, 0), (0.5, 0.3), (1, 0)),
            ((0, 0), (0.5, 0.45), (1, 0)),
            ((0, 0), (0.2, 0.2), (0.7, -0.1), (1, 0)),
        ]
        for prof in profiles:
            zc = ZebraColoring(ZebraProfile(prof))
            oracle_bad = bool(sample_d_condition(zc, n_pairs=4000))
            exact_bad = not check_zebra_conditions(zc).d_ok
            assert oracle_bad == exact_bad, prof

    def test_rotated_frame_same_verdicts(self):
        for prof, ok in ((ZIGZAG, True), (SAWTOOTH, False)):
            zc = ZebraColoring(prof, x_hat=UnitVector.from_angle(1.1))
            assert check_zebra_conditions(zc).d_ok == ok

    def test_checker_vs_oracle_on_random_profiles(self):
        # random monotone profiles in random frames; the exact checker must
        # never miss a violation the sampler sees, and every failure witness
        # must itself violate the biconditional
        rng = np.random.default_rng(5150)
        trials = 0
        while trials < 120:
            n_interior = int(rng.integers(1, 4))
            us = np.sort(rng.uniform(0.05, 0.95, n_interior))
            vs = rng.uniform(-0.42, 0.42, n_interior)
            if n_interior > 1 and np.diff(us).min() < 0.05:
                continue
            prof = ((0.0, 0.0),) + tuple(zip(map(float, us), map(float, vs))) \
                + ((1.0, 0.0),)
            try:
                zc = ZebraColoring(
                    ZebraProfile(prof),
                    x_hat=UnitVector.from_angle(float(rng.uniform(0, 2 * math.pi))))
            except MalformedProfile:
                continue
            trials += 1
            oracle_bad = bool(sample_d_condition(zc, n_pairs=3000, seed=trials))
            rep = check_zebra_conditions(zc)
            if oracle_bad:
                assert not rep.d_ok, prof
            if not rep.d_ok:
                w = rep.witness
                assert (w.dist > 1 + 1e-9 and w.theta >= math.pi / 3 + 1e-9) or \
                    (w.dist < 1 - 1e-9 and w.theta <= math.pi / 3 - 1e-9), prof


def profile_value(profile: ZebraProfile, u: float) -> float:
    return float(profile.values(np.array([u]))[0])


def breakpoints_in(profile: ZebraProfile, u_lo: float, u_hi: float) -> list[float]:
    """Parameters of all breakpoints (period images) in [u_lo, u_hi]."""
    base = [u for u, _ in profile.vertices[:-1]]  # u = 1 is the next period's 0
    return sorted(u + m for m in range(math.floor(u_lo) - 1, math.ceil(u_hi) + 2)
                  for u in base if u_lo <= u + m <= u_hi)


def knot_intervals(profile: ZebraProfile, lo: float, hi: float) -> list[tuple[float, float]]:
    """Consecutive linear sub-intervals of [lo, hi] split at profile breakpoints."""
    knots = [lo] + breakpoints_in(profile, lo + 1e-12, hi - 1e-12) + [hi]
    return [(k0, k1) for k0, k1 in zip(knots, knots[1:]) if k1 - k0 > 1e-12]


def lens_violation(profile: ZebraProfile, alpha: float,
                   tol: float) -> tuple[float, float] | None:
    """(alpha, beta) where L_1 breaks the lens containment around L_0(alpha).

    The portion of L_1 between the lens corners must fill the closed lens of
    unit disks around A and A' = A + sqrt(3) y_hat; the rest stays out of it.
    """
    fa = profile_value(profile, alpha)
    A = (alpha, fa)
    A2 = (alpha, fa + SQRT3)
    # Between-corner portion: beta in [alpha - 1, alpha]. The lens is
    # convex, so breakpoint membership decides the whole polyline.
    betas = [alpha - 1.0] + breakpoints_in(profile, alpha - 1.0 + 1e-12,
                                           alpha - 1e-12) + [alpha]
    for beta in betas:
        bx, by = beta + 0.5, profile_value(profile, beta) + HALF_SQRT3
        if math.hypot(bx - A[0], by - A[1]) > 1.0 + tol or \
           math.hypot(bx - A2[0], by - A2[1]) > 1.0 + tol:
            return (alpha, beta)
    # Remainder of one-plus period on each side must avoid the open lens.
    outer = knot_intervals(profile, alpha - 2.5, alpha - 1.0) + \
        knot_intervals(profile, alpha, alpha + 1.5)
    for b_lo, b_hi in outer:
        p0 = (b_lo + 0.5, profile_value(profile, b_lo) + HALF_SQRT3)
        p1 = (b_hi + 0.5, profile_value(profile, b_hi) + HALF_SQRT3)
        iv = interval_in_disk(p0, p1, A)
        iv2 = interval_in_disk(p0, p1, A2)
        if iv and iv2:
            lo, hi = max(iv[0], iv2[0]), min(iv[1], iv2[1])
            if hi > lo:
                tm = 0.5 * (lo + hi)
                mx = p0[0] + tm * (p1[0] - p0[0])
                my = p0[1] + tm * (p1[1] - p0[1])
                if math.hypot(mx - A[0], my - A[1]) < 1.0 - tol and \
                   math.hypot(mx - A2[0], my - A2[1]) < 1.0 - tol:
                    return (alpha, b_lo + tm * (b_hi - b_lo))
    return None


def interval_in_disk(p0, p1, center) -> tuple[float, float] | None:
    """Parameter interval of segment p0-p1 inside the unit disk around center."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    fx, fy = p0[0] - center[0], p0[1] - center[1]
    qa = dx * dx + dy * dy
    qb = 2.0 * (fx * dx + fy * dy)
    qc = fx * fx + fy * fy - 1.0
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    lo = max((-qb - root) / (2.0 * qa), 0.0)
    hi = min((-qb + root) / (2.0 * qa), 1.0)
    if hi <= lo:
        return None
    return (lo, hi)


def lens_oracle_cases(n_cases=450, seed=1975):
    """Zebra colorings with amplitude at most 0.1, each with a tolerance.

    Even cases draw breakpoints and heights uniformly, odd cases put the
    breakpoints on k/16 and the heights on k/128, where tangencies are exact.
    Every frame is random and every tolerance is 1e-9 or 1e-3.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n_cases:
        n_interior = int(rng.integers(1, 7))
        if len(cases) % 2:
            us = np.sort(rng.choice(np.arange(1, 16), n_interior, replace=False)) / 16.0
            vs = rng.integers(-6, 7, n_interior) / 128.0
        else:
            us = np.sort(rng.uniform(0.0, 1.0, n_interior))
            vs = rng.uniform(-0.05, 0.05, n_interior)
        prof = ((0.0, 0.0),) + tuple(zip(map(float, us), map(float, vs))) + ((1.0, 0.0),)
        x_hat = UnitVector.from_angle(float(rng.uniform(0, 2 * math.pi)))
        tol = (1e-9, 1e-3)[int(rng.integers(0, 2))]
        try:
            cases.append((ZebraColoring(ZebraProfile(prof), x_hat=x_hat), tol))
        except MalformedProfile:
            continue
    return cases


class TestLensOracle:
    """The parallelogram test alone decides (d). Whenever it passes, the
    pointwise lens containment, the equivalent form of (d), must hold at every
    breakpoint and piece midpoint alpha of L_0."""

    # sha256 of every case's (d_ok, witness, pairs_checked), recorded while
    # the checker still ran the lens pass after the parallelogram test
    VERDICTS = "2fd128c86989f2f2b74e2dc5dabc95ba484df1e7e5a072b7708c65fd35f51ff0"

    def test_parallelogram_pass_implies_lens_containment(self):
        digest = hashlib.sha256()
        passing, disagreements = 0, []
        for zc, tol in lens_oracle_cases():
            rep = check_zebra_conditions(zc, tol)
            w = rep.witness
            witness = None if w is None else (w.A.x, w.A.y, w.B.x, w.B.y, w.dist, w.theta)
            digest.update(repr((rep.d_ok, witness, rep.pairs_checked)).encode())
            if not rep.d_ok:
                continue
            passing += 1
            us = [float(u) for u in zc.profile.tables.us]
            alphas = us[:-1] + [0.5 * (a + b) for a, b in zip(us, us[1:])]
            for alpha in alphas:
                pair = lens_violation(zc.profile, alpha, tol)
                if pair is not None:
                    disagreements.append((zc.profile.vertices, tol, pair))
        assert disagreements == []
        assert passing >= 200
        assert digest.hexdigest() == self.VERDICTS


class TestHalfPlane:
    def test_examples(self):
        hp = HalfPlaneColoring()
        assert hp.color_at(Point(0, 1)) is Color.BLACK
        assert hp.color_at(Point(0, -1)) is Color.WHITE
        assert hp.color_at(Point(3, 0)) is Color.BLACK  # boundary is closed side

    def test_boundary_orientation_white_left(self):
        hp = HalfPlaneColoring()  # black above, white below
        pieces = hp.boundary_segments(Region(-2, -2, 2, 2))
        assert len(pieces) == 1
        d = UnitVector.normalized(float(pieces.ex[0]), float(pieces.ey[0]))
        # white below means walking along -x
        assert d.dx == pytest.approx(-1.0) and d.dy == pytest.approx(0.0, abs=1e-12)


class TestPolygonal:
    def test_l_shape_faces(self):
        pc = l_shape_coloring()
        assert pc.color_at(Point(2, 3)) is Color.BLACK
        assert pc.color_at(Point(-2, 3)) is Color.WHITE
        assert pc.color_at(Point(2, -3)) is Color.WHITE
        assert pc.color_at(Point(-2, -3)) is Color.WHITE
        assert pc.color_at(Point(3, 0)) is Color.BLACK  # on the boundary ray

    def test_face_constancy(self):
        pc = l_shape_coloring()
        rng = np.random.default_rng(11)
        inside = [Point(float(x), float(y))
                  for x, y in zip(rng.uniform(0.2, 9, 100), rng.uniform(0.2, 9, 100))]
        assert all(pc.color_at(p) is Color.BLACK for p in inside)
        xs = rng.uniform(-9, 9, 300)
        ys = rng.uniform(-9, 9, 300)
        outside = [Point(float(x), float(y)) for x, y in zip(xs, ys)
                   if x < -0.01 or y < -0.01]
        assert all(pc.color_at(p) is Color.WHITE for p in outside[:100])

    def test_square_island(self):
        square = [
            ((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0)),
        ]
        pieces = tuple(
            BoundaryPiece(Segment(Point(*pq[0]), Point(*pq[1])), Color.BLACK)
            for pq in square)
        pc = PolygonalColoring(
            pieces,
            ((Point(0.5, 0.5), Color.BLACK), (Point(2.5, 2.5), Color.WHITE)),
            Region(-4, -4, 4, 4))
        rng = np.random.default_rng(12)
        for _ in range(100):
            x, y = rng.uniform(0.01, 0.99, 2)
            assert pc.color_at(Point(float(x), float(y))) is Color.BLACK
        assert pc.color_at(Point(3, 3)) is Color.WHITE
        assert pc.color_at(Point(-1, 0.5)) is Color.WHITE
        assert pc.color_at(Point(0.5, 0.0)) is Color.BLACK  # boundary color

    def test_all_black(self):
        pc = all_black_coloring()
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = Point(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            assert pc.color_at(p) is Color.BLACK

    def test_unresolved_face(self):
        # every seed's sight line passes exactly through a boundary vertex
        square = [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)),
                  ((0, 1), (0, 0))]
        pieces = tuple(
            BoundaryPiece(Segment(Point(*pq[0]), Point(*pq[1])), Color.BLACK)
            for pq in square)
        pc = PolygonalColoring(
            pieces, ((Point(0.5, 0.5), Color.BLACK),), Region(-4, -4, 4, 4))
        with pytest.raises(UnresolvedFace):
            pc.color_at(Point(-0.5, -0.5))  # aligned with the (0,0) corner

    def test_half_plane_as_polygonal(self):
        # y >= 0 black, represented by a single full-line boundary piece
        pc = PolygonalColoring(
            (BoundaryPiece(Segment(Point(8, 0), Point(-8, 0)), Color.BLACK,
                           ray_start=True, ray_end=True),),
            ((Point(0.0, 1.0), Color.BLACK), (Point(0.0, -1.0), Color.WHITE)),
            Region(-8, -8, 8, 8))
        assert pc.color_at(Point(0, 1)) is Color.BLACK
        assert pc.color_at(Point(0, -1)) is Color.WHITE
        assert pc.color_at(Point(3, 0)) is Color.BLACK  # boundary piece color
        # agrees with the dedicated family off the boundary
        hp = HalfPlaneColoring()
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = Point(float(rng.uniform(-7, 7)), float(rng.uniform(-7, 7)))
            if abs(p.y) > 1e-6:
                assert pc.color_at(p) is hp.color_at(p)


class TestSerialization:
    @pytest.mark.parametrize("doc", [
        {"type": "strip", "scale": 1.0, "boundary_rule": "upper-closed"},
        {"type": "strip", "scale": 0.5, "boundary_rule": "lower-closed"},
        {"type": "zebra", "profile": [[0, 0], [0.5, 0.1], [1, 0]],
         "x_hat": [1, 0], "parity_rule": "even-black", "boundary_parity": "even-black"},
        {"type": "halfplane", "normal": [0, 1], "offset": 0.0,
         "closed_color": "black"},
    ])
    def test_round_trip_queries(self, doc):
        first = coloring_from_dict(doc)
        second = coloring_from_dict(first.to_dict())
        rng = np.random.default_rng(14)
        xs = rng.uniform(-10, 10, 10 ** 4)
        ys = rng.uniform(-10, 10, 10 ** 4)
        assert (first.resolve(xs, ys)[0] == second.resolve(xs, ys)[0]).all()

    def test_polygonal_round_trip(self):
        pc = l_shape_coloring()
        again = coloring_from_dict(pc.to_dict())
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = Point(float(rng.uniform(-9, 9)), float(rng.uniform(-9, 9)))
            assert pc.color_at(p) is again.color_at(p)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            coloring_from_dict({"type": "plaid"})


def perfbench_convex_face(monkeypatch):
    """The benchmark's ``convex_face`` builder, from ``perfbench/jobs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its dataclasses look it up
    spec.loader.exec_module(jobs)
    return jobs.convex_face


class TestSeedAgreement:
    """Seeds whose colors the boundary crossings between them contradict,
    or that no chain of unambiguous sight lines joins to seed 0, are refused."""

    def test_contradicting_seed_is_refused(self):
        # without the check, (1.1, 1.1) came out black and (2.9, 2.9) white,
        # in one open quadrant
        pc = l_shape_coloring()
        seeds = pc.seeds + ((Point(3.0, 3.0), Color.WHITE),)
        with pytest.raises(InvalidArgument, match="^seeds .*seeds 0 and 2 do not") as err:
            PolygonalColoring(pc.pieces, seeds, pc.window)
        assert err.value.param == "seeds"
        doc = pc.to_dict()
        doc["seeds"].append([3.0, 3.0, "white"])
        with pytest.raises(InvalidArgument, match="^seeds "):
            coloring_from_dict(doc)

    def test_seed_without_an_unambiguous_chain_is_refused(self):
        # the line x = 1 in two pieces that meet on the seeds' sight line;
        # every bent line's corner lies on the line too
        pieces = (BoundaryPiece(Segment(Point(1.0, 0.0), Point(1.0, 5.0)), Color.BLACK,
                                ray_end=True),
                  BoundaryPiece(Segment(Point(1.0, 0.0), Point(1.0, -5.0)), Color.BLACK,
                                ray_end=True))
        seeds = ((Point(0.0, 0.0), Color.BLACK), (Point(2.0, 0.0), Color.WHITE))
        with pytest.raises(InvalidArgument, match="^seeds .*seed 1 is not"):
            PolygonalColoring(pieces, seeds, Region(-8.0, -8.0, 8.0, 8.0))
        # a third seed off the line links seed 1 through it
        third = ((Point(0.0, 3.0), Color.BLACK),)
        PolygonalColoring(pieces, third + seeds[::-1], Region(-8.0, -8.0, 8.0, 8.0))

    def test_coordinates_past_2_197_are_refused(self):
        """A seed or piece end (a ray side's stored end too) with a coordinate
        of magnitude above 2^197 is refused, naming ``seeds`` or
        ``segments``: one seed as well as two. At 2^197 the seed check's
        bent lines construct without an overflow warning."""
        line = (BoundaryPiece(Segment(Point(-8.0, 0.0), Point(8.0, 0.0)), Color.BLACK,
                              ray_start=True, ray_end=True),)
        window = Region(-8.0, -8.0, 8.0, 8.0)
        past = (2.0 ** 197 * (1.0 + 2.0 ** -52), -2.0 ** 198, 1e300, 2.0 ** 500)
        for far in past:
            with pytest.raises(InvalidArgument, match="^seeds must have coordinates of "
                                                      "magnitude at most 2\\^197, but seed 1 "
                                                      "does not, got ") as err:
                PolygonalColoring(line, ((Point(0.0, 1.0), Color.WHITE),
                                         (Point(far, -abs(far)), Color.BLACK)), window)
            assert err.value.param == "seeds"
            with pytest.raises(InvalidArgument, match="^seeds .* seed 0 does not"):
                PolygonalColoring(line, ((Point(0.0, far), Color.WHITE),), window)
            for ray_start in (False, True):
                far_piece = (BoundaryPiece(Segment(Point(far, 0.0), Point(8.0, 0.0)),
                                           Color.BLACK, ray_start=ray_start, ray_end=True),)
                with pytest.raises(InvalidArgument, match="^segments .* segment 0 does not") \
                        as err:
                    PolygonalColoring(far_piece, ((Point(0.0, 1.0), Color.WHITE),
                                                  (Point(0.0, -1.0), Color.BLACK)), window)
                assert err.value.param == "segments"
        edge = 2.0 ** 197
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PolygonalColoring(line, ((Point(0.0, 1.0), Color.WHITE),
                                     (Point(edge, -edge), Color.BLACK)), window)
            PolygonalColoring((BoundaryPiece(Segment(Point(-edge, edge), Point(8.0, 0.0)),
                                             Color.BLACK, ray_end=True),),
                              ((Point(edge, edge), Color.WHITE),
                               (Point(-edge, -edge), Color.BLACK)), window)

    def test_crossing_pieces_are_refused(self):
        cross = (BoundaryPiece(Segment(Point(-1.0, 0.0), Point(1.0, 0.0)), Color.BLACK),
                 BoundaryPiece(Segment(Point(0.0, -1.0), Point(0.0, 1.0)), Color.BLACK))
        with pytest.raises(GeometryError, match="^boundary segments 0 and 1 intersect away "
                                                "from their endpoints$"):
            PolygonalColoring(cross, ((Point(0.5, 0.5), Color.BLACK),),
                              Region(-4.0, -4.0, 4.0, 4.0))

    def test_agreeing_seeds_construct(self, monkeypatch):
        # sight lines through a corner take a bent line: the L-shape's seeds,
        # the island's across its corner (1, 1), the hexagon's along y = 0
        l_shape_coloring()
        all_black_coloring()
        square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
        pieces = tuple(BoundaryPiece(Segment(square[k], square[(k + 1) % 4]), Color.BLACK)
                       for k in range(4))
        PolygonalColoring(pieces, ((Point(0.5, 0.5), Color.BLACK),
                                   (Point(2.5, 2.5), Color.WHITE)), Region(-4, -4, 4, 4))
        hexagon_face()
        convex_face = perfbench_convex_face(monkeypatch)
        for seed in range(100):
            convex_face(np.random.default_rng(seed))


def test_piece_distance_far_out():
    """The scalar oracle's least distance from the L-shape at (+-1e308, 1e308)
    is 1e308, from (0, 1e308) on its y ray; the projections there overflow
    unscaled."""
    pieces = l_shape_coloring().pieces
    assert [piece_distance(pc, Point(-1e308, 1e308)) for pc in pieces] == [
        math.hypot(1e308, 1e308), 1e308]
    assert [piece_distance(pc, Point(1e308, 1e308)) for pc in pieces] == [1e308, 1e308]


@st.composite
def bounded_segments(draw) -> list[Segment]:
    """Two to seven segments. The first lies on the integer grid of [-3, 3]^2;
    each later one is drawn against an earlier one: on the grid (so ends are
    shared), as a T-junction with an end within 2e-9 of the earlier line, as
    a near-parallel segment through a point of that line at an angle of
    1e-12 to 1e-6, half of them near the parallel bound of 1e-9, or
    collinear with it, overlapping or not."""
    coord = st.integers(-3, 3).map(float)
    segs = []
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("grid", "t-junction", "near-parallel", "collinear"))
                    if segs else st.just("grid"))
        if kind == "grid":
            p, q = (draw(coord), draw(coord)), (draw(coord), draw(coord))
        else:
            base = draw(st.sampled_from(segs))
            ax, ay, ex, ey = base.p.x, base.p.y, base.q.x - base.p.x, base.q.y - base.p.y
            f = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(-0.25, 1.25))
            cx, cy = ax + f * ex, ay + f * ey
            if kind == "t-junction":
                off = draw(st.floats(-2e-9, 2e-9)) / math.hypot(ex, ey)
                p = (cx - off * ey, cy + off * ex)
                q = (p[0] + draw(coord), p[1] + draw(coord))
            elif kind == "near-parallel":
                angle = draw(st.sampled_from((1.0, -1.0))) * draw(
                    st.floats(-12.0, -6.0).map(lambda e: 10.0 ** e) | st.floats(0.5e-9, 2e-9))
                dx = ex * math.cos(angle) - ey * math.sin(angle)
                dy = ex * math.sin(angle) + ey * math.cos(angle)
                g = draw(st.floats(0.0, 1.0))
                p, q = (cx - g * dx, cy - g * dy), (cx + (1.0 - g) * dx, cy + (1.0 - g) * dy)
            else:
                h = draw(st.floats(-0.25, 1.25))
                p, q = (cx, cy), (ax + h * ex, ay + h * ey)
        try:
            segs.append(Segment(Point(*p), Point(*q)))
        except DegenerateSegment:
            pass
    assume(len(segs) >= 2)
    return segs


class TestCrossingPass:
    """``PolygonTables.first_crossing``, one array pass over the piece pairs,
    against the scalar loop it replaced (``scalar_oracles.first_crossing``)."""

    @settings(max_examples=400, deadline=None)
    @given(bounded_segments())
    def test_bounded_pieces_take_the_scalar_verdict(self, segs):
        # no vertex ids: ends that nearly meet are the crossing test's to judge
        tables = PolygonTables(table_of(segs), ((Point(100.0, 100.0), Color.BLACK),))
        assert tables.first_crossing() == first_crossing(segs)

    def test_crossing_rays_are_refused(self):
        """The ray y = 0, x >= 0 crosses the segment x = 5 at (5, 0); the
        scalar loop took every piece as bounded, and let it construct."""
        pieces = (BoundaryPiece(Segment(Point(0.0, 0.0), Point(1.0, 0.0)), Color.BLACK,
                                ray_end=True),
                  BoundaryPiece(Segment(Point(5.0, -1.0), Point(5.0, 1.0)), Color.BLACK),
                  BoundaryPiece(Segment(Point(0.0, 0.0), Point(-1.0, 0.0)), Color.BLACK,
                                ray_end=True))
        assert first_crossing([pc.seg for pc in pieces]) is None
        with pytest.raises(GeometryError, match="^boundary segments 0 and 1 intersect away "
                                                "from their endpoints$"):
            PolygonalColoring(pieces, ((Point(2.0, 1.0), Color.WHITE),
                                       (Point(2.0, -1.0), Color.BLACK)),
                              Region(-8.0, -8.0, 8.0, 8.0))


FAR = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((1.0, -1.0)),
                st.floats(-300.0, 300.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(FAR, FAR, FAR, FAR, st.booleans(), st.booleans()),
                min_size=1, max_size=2),
       st.lists(st.tuples(FAR, FAR, st.sampled_from(("black", "white"))), min_size=1, max_size=2),
       st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), min_size=1, max_size=8))
def test_far_documents_never_warn(segments, seeds, points):
    """One- and two-piece documents with coordinates log-uniform in
    +-[1e-300, 1e300] construct, or are refused naming ``segments`` or
    ``seeds`` (or as crossing, or with a seed on the boundary); those that
    construct answer ``resolve`` and ``distance`` in [-4, 4]^2. Nothing
    warns."""
    doc = {"type": "polygonal",
           "segments": [{"p": [px, py], "q": [qx, qy], "ray_start": rs, "ray_end": re}
                        for px, py, qx, qy, rs, re in segments],
           "boundary_colors": ["black"] * len(segments), "seeds": [list(s) for s in seeds]}
    xs, ys = (np.array(c) for c in zip(*points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            coloring = coloring_from_dict(doc)
        except DegenerateSegment:
            assume(False)
        except InvalidArgument as err:
            assert err.param in ("segments", "seeds")
            return
        except GeometryError as err:
            assert re.search("intersect away from their endpoints|lies on the boundary", str(err))
            return
        coloring.resolve(xs, ys)
        coloring.distance(xs, ys)


def test_default_window_is_never_empty():
    """Without a window, a document's ends are padded by 1, or by an ulp
    where adding 1 rounds away: a vertical piece at x = 1e20 was refused,
    as an empty ``region``."""
    for (x, y), want in (((1e20, 0.0), (math.nextafter(1e20, -math.inf), -1.0,
                                        math.nextafter(1e20, math.inf), 2.0)),
                         ((16.0, 0.0), (15.0, -1.0, 17.0, 2.0))):
        doc = {"type": "polygonal", "segments": [{"p": [x, y], "q": [x, y + 1.0]}],
               "boundary_colors": ["black"], "seeds": [[0.0, 0.0, "white"]]}
        window = coloring_from_dict(doc).window
        assert (window.x0, window.y0, window.x1, window.y1) == want


class TestNearJoints:
    """Piece ends meet where they are equal; ends of two pieces that lie
    within 10 ``DEFAULT_TOL`` without being equal are refused, naming
    ``segments``, since no tolerance decides whether they meet."""

    def test_near_ends_are_refused(self):
        pc = l_shape_coloring()
        y_ray = pc.pieces[1]
        for off in (1e-12, 9.9e-9):
            moved = BoundaryPiece(Segment(Point(off, 0.0), y_ray.seg.q), y_ray.color,
                                  ray_end=True)
            with pytest.raises(InvalidArgument, match="^segments .*segments 0 and 1 do not") \
                    as err:
                PolygonalColoring((pc.pieces[0], moved), pc.seeds, pc.window)
            assert err.value.param == "segments"
        doc = pc.to_dict()
        doc["segments"][1]["p"] = [1e-12, 0.0]
        with pytest.raises(InvalidArgument, match="^segments "):
            coloring_from_dict(doc)

    def test_ends_match_the_pairwise_rule(self):
        """On grids of ends, half of them on one vertical line as +0.0 or
        -0.0, some moved by up to 2e-8: the table refuses exactly the piece
        lists with bounded ends of two pieces within 1e-8 that are not equal,
        and otherwise its vertices are the runs of equal bounded ends."""
        rng = np.random.default_rng(81)
        refused = 0
        for trial in range(200):
            pts = rng.integers(-3, 4, (16, 2)).astype(float)
            pts[:8, 0] = 0.0 if trial % 2 else -0.0
            if trial % 3 == 0:
                pts[rng.integers(16)] += rng.uniform(-2e-8, 2e-8, 2)
            pieces = tuple(BoundaryPiece(Segment(Point(*pts[i]), Point(*pts[j])), Color.BLACK,
                                         bool(rng.uniform() < 0.2), bool(rng.uniform() < 0.2))
                           for i, j in rng.integers(0, 16, (12, 2)) if (pts[i] != pts[j]).any())
            ends = [(2 * k + j, p) for k, pc in enumerate(pieces)
                    for j, (p, ray) in enumerate(((pc.seg.p, pc.ray_start), (pc.seg.q, pc.ray_end)))
                    if not ray]
            if any(p != q and distance(p, q) <= 1e-8 and e // 2 != f // 2
                   for e, p in ends for f, q in ends):
                refused += 1
                with pytest.raises(InvalidArgument, match="^segments "):
                    PieceTable.of(pieces)
                continue
            runs = {}  # the first end equal to each end, and the ends equal to it
            for e, p in ends:
                runs.setdefault(next(f for f, q in ends if q == p), []).append(e)
            table = PieceTable.of(pieces)
            ids = np.stack((table.v0, table.v1), axis=1).ravel()
            assert [(x.hex(), y.hex(), np.flatnonzero(ids == m).tolist()) for m, (x, y)
                    in enumerate(zip(table.vx.tolist(), table.vy.tolist()))] == \
                [(dict(ends)[r].x.hex(), dict(ends)[r].y.hex(), members)
                 for r, members in sorted(runs.items()) if len(members) >= 2]
        assert 0 < refused < 200

    def test_equal_and_apart_ends_construct(self):
        pc = l_shape_coloring()
        y_ray = pc.pieces[1]
        for start in ((-0.0, 0.0), (0.0, -0.0), (0.0, 1.1e-8)):
            moved = BoundaryPiece(Segment(Point(*start), y_ray.seg.q), y_ray.color, ray_end=True)
            table = PolygonalColoring((pc.pieces[0], moved), pc.seeds, pc.window).tables.pieces
            joined = start[1] == 0.0
            assert table.vx.tolist() == ([0.0] if joined else [])
            assert (table.v1[0], table.v0[1]) == ((0, 0) if joined else (-1, -1))
        # a ray side's stored end is no end: the L-shape stored with its rays'
        # ends 2e-9 from the corner, 2.8e-9 apart, constructs
        short = (BoundaryPiece(Segment(Point(2e-9, 0.0), Point(0.0, 0.0)), Color.BLACK,
                               ray_start=True),
                 BoundaryPiece(Segment(Point(0.0, 0.0), Point(0.0, 2e-9)), Color.BLACK,
                               ray_end=True))
        table = PolygonalColoring(short, pc.seeds, pc.window).tables.pieces
        assert table.vx.tolist() == [0.0] and (table.v1[0], table.v0[1]) == (0, 0)
        # rays count as pieces: the ray x = 16, y <= 5 crosses the x ray at (16, 0)
        down = BoundaryPiece(Segment(Point(16.0, 1e-12), Point(16.0, 5.0)), Color.BLACK,
                             ray_start=True)
        with pytest.raises(GeometryError, match="^boundary segments 0 and 2 intersect "):
            PolygonalColoring(pc.pieces + (down,), pc.seeds, pc.window)


def hexagon_face() -> PolygonalColoring:
    """A black regular hexagon of radius 1 about the origin, white outside."""
    ccw = [Point(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    pieces = tuple(BoundaryPiece(Segment(ccw[-k], ccw[-k - 1]), Color.BLACK) for k in range(6))
    return PolygonalColoring(pieces, ((Point(0.0, 0.0), Color.BLACK),
                                      (Point(2.5, 0.5), Color.WHITE)), Region(-3, -3, 3, 3))


SCHEMA_DOCS = [
    StripColoring(0.5, "lower-closed").to_dict(),
    ZebraColoring(ZIGZAG, UnitVector.from_angle(0.7), "even-white", "even-black").to_dict(),
    HalfPlaneColoring(UnitVector.from_angle(2.0), 0.3, Color.WHITE).to_dict(),
    l_shape_coloring().to_dict(),
    hexagon_face().to_dict(),
]


def field_paths(node, prefix=()):
    """The key/index path of every field of a JSON document, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


DELETE = object()


class TestSchema:
    def test_documents_round_trip(self):
        for doc in SCHEMA_DOCS:
            assert coloring_from_dict(copy.deepcopy(doc)).to_dict() == doc

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([(doc, path) for doc in SCHEMA_DOCS for path in field_paths(doc)]),
           st.sampled_from([math.nan, math.inf, -math.inf, "x", True, False, None, [], DELETE]))
    def test_one_bad_field_raises_a_named_error_or_builds(self, doc_path, value):
        doc, path = doc_path
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            coloring = coloring_from_dict(doc)
        except (SchemaError, MalformedProfile, GeometryError):
            return
        assert coloring_from_dict(coloring.to_dict()) == coloring
