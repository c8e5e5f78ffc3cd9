import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri.geom import GeometryError, Point, Region, UnitVector
from monotri.colorings import (
    Color,
    HalfPlaneColoring,
    MalformedProfile,
    PolygonalColoring,
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
from monotri.geom import Segment

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0

ZIGZAG = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
SAWTOOTH = ZebraProfile(((0.0, 0.0), (0.5, 0.8), (1.0, 0.0)))


def sample_d_condition(zc, n_pairs=10000, seed=7, tol=1e-9):
    """Brute-force oracle for condition (d): sample pairs A on L0, B on L1
    and check the biconditional |AB| > 1 <-> angle(AB, x_hat) < pi/3."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, n_pairs)
    betas = alphas + rng.uniform(-2.0, 2.0, n_pairs)
    violations = []
    for a, b in zip(alphas, betas):
        A = zc.curve_point(0, float(a))
        B = zc.curve_point(1, float(b))
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
        frac = sc.black_mask(xs, ys).mean()
        assert abs(frac - 0.5) < 0.01

    def test_boundary_distance(self):
        sc = StripColoring(1.0)
        assert sc.boundary_distance(Point(3.0, 0.1)) == pytest.approx(0.1)
        assert sc.boundary_distance(Point(-1.0, SQRT3 / 2)) == pytest.approx(0.0, abs=1e-12)


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


class TestZebraColoring:
    def test_flat_examples(self):
        flat = ZebraColoring()
        assert flat.color_at(Point(0.3, 0.4)) is Color.BLACK
        assert flat.color_at(Point(0.3, 1.0)) is Color.WHITE
        assert flat.color_at(Point(7.25, 0.0)) is Color.BLACK  # on L0, even

    def test_flat_curve_is_single_segment(self):
        flat = ZebraColoring()
        segs = flat.zebra_curve(0, Region(-1, -1, 1, 1))
        assert len(segs) == 1
        (p, q) = segs[0].p, segs[0].q
        assert {round(p.x, 9), round(q.x, 9)} == {-1.0, 1.0}
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_flat_curve_index_two(self):
        flat = ZebraColoring()
        segs = flat.zebra_curve(2, Region(-1, -1, 2, 2))
        assert len(segs) == 1
        assert segs[0].p.y == pytest.approx(SQRT3)

    def test_zigzag_curve_echoes_profile(self):
        zc = ZebraColoring(ZIGZAG)
        segs = zc.zebra_curve(0, Region(0, -1, 1, 1))
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
            a = zc.black_mask(xs, ys)
            b = zc.black_mask(xs + zc.x_hat.dx, ys + zc.x_hat.dy)
            assert (a == b).all()

    def test_anti_periodicity_off_boundary(self):
        rng = np.random.default_rng(6)
        zc = ZebraColoring(ZIGZAG)
        xs = rng.uniform(-5, 5, 10 ** 4)
        ys = rng.uniform(-5, 5, 10 ** 4)
        off = ~zc.boundary_mask(xs, ys, 1e-7)
        zx, zy = zc.z_step
        off &= ~zc.boundary_mask(xs + zx, ys + zy, 1e-7)
        a = zc.black_mask(xs, ys)
        b = zc.black_mask(xs + zx, ys + zy)
        assert (a[off] != b[off]).all()

    def test_flat_matches_strip_off_boundary(self):
        flat = ZebraColoring()
        sc = StripColoring(1.0, "upper-closed")
        rng = np.random.default_rng(7)
        xs = rng.uniform(-50, 50, 10 ** 5)
        ys = rng.uniform(-50, 50, 10 ** 5)
        assert (flat.black_mask(xs, ys) == sc.black_mask(xs, ys)).all()

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
        mask = zc.black_mask(xs, ys)
        for x, y, m in zip(xs, ys, mask):
            assert (zc.color_at(Point(float(x), float(y))) is Color.BLACK) == bool(m)

    def test_rotated_frame(self):
        zc = ZebraColoring(x_hat=UnitVector.from_angle(math.pi / 5))
        p = zc.curve_point(3, 0.42)
        assert zc.curve_index_at(p) == 3
        assert zc.boundary_distance(p) < 1e-12


class TestTwin:
    def test_flip_changes_only_boundary(self):
        zc = ZebraColoring(ZIGZAG, boundary_parity="even-black")
        tw = zc.twin("even-white")
        rng = np.random.default_rng(9)
        xs = rng.uniform(-3, 3, 5000)
        ys = rng.uniform(-3, 3, 5000)
        off = ~zc.boundary_mask(xs, ys, 1e-7)
        a = zc.black_mask(xs, ys)
        b = tw.black_mask(xs, ys)
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
        assert zc.curve_index_at(w.A) == 0
        assert zc.curve_index_at(w.B) == 1

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


def knot_intervals(profile: ZebraProfile, lo: float, hi: float) -> list[tuple[float, float]]:
    """Consecutive linear sub-intervals of [lo, hi] split at profile breakpoints."""
    knots = [lo] + profile.breakpoints_in(lo + 1e-12, hi - 1e-12) + [hi]
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
    betas = [alpha - 1.0] + profile.breakpoints_in(alpha - 1.0 + 1e-12,
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
        d = pieces[0].seg.direction
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
        assert (first.black_mask(xs, ys) == second.black_mask(xs, ys)).all()

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
