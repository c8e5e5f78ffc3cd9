import itertools
import math

import numpy as np
import pytest

from monotri.geom import (DEFAULT_TOL, GeometryError, Infeasible, Point, RigidMotion,
                          distance, third_vertex)
from monotri.forcing import (
    _EDGES,
    ConstructionInconsistent,
    DegenerateSides,
    EightPointConfig,
    LABELS,
    _check_spec_sides,
    build_config,
    classify_triples,
    forcing_check_i,
    forcing_check_ii,
)


def spec_stream(n, seed=20250808):
    """Random (a, b, c) satisfying the degenerate triangle inequality,
    kept away from multiset collisions the classifier refuses."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b = rng.uniform(0.1, 5.0, 2)
        c = rng.uniform(abs(a - b), a + b)
        c = min(max(c, abs(a - b)), a + b)
        sides = (float(a), float(b), float(c))
        gaps = [abs(x - y) for x, y in ((a, b), (b, c), (a, c)) if x != y]
        if gaps and min(gaps) < 1e-6:
            continue
        out.append(sides)
    return out


def mirror_search_config(a, b, c, tol=DEFAULT_TOL):
    """The configuration by search: D below AB first, then both mirror images
    of B', C' and of D', A', and the first assignment whose 18 constraint
    edges all hold within ``tol * (1 + max side)`` wins."""
    _check_spec_sides(a, b, c, tol)
    scale = 1.0 + max(a, b, c)
    A, B = Point(0.0, 0.0), Point(a, 0.0)
    C = third_vertex(A, B, a, a, a, "ccw", tol)
    for d_orient in ("cw", "ccw"):
        D = third_vertex(A, B, a, b, c, d_orient, tol)
        for bp_o, cp_o in itertools.product(("ccw", "cw"), repeat=2):
            try:
                Bp = third_vertex(A, D, b, b, b, bp_o, tol)
                Cp = third_vertex(B, D, c, c, c, cp_o, tol)
            except GeometryError:
                continue
            if abs(distance(Bp, C) - c) > tol * scale or abs(distance(Bp, Cp) - a) > tol * scale:
                continue
            for dp_o, ap_o in itertools.product(("ccw", "cw"), repeat=2):
                try:
                    Dp = third_vertex(Bp, C, c, c, c, dp_o, tol)
                    Ap = third_vertex(Bp, Cp, a, a, a, ap_o, tol)
                except GeometryError:
                    continue
                points = {"A": A, "B": B, "C": C, "D": D,
                          "A'": Ap, "B'": Bp, "C'": Cp, "D'": Dp}
                if all(abs(distance(points[u], points[v]) - (a, b, c)[k]) <= tol * scale
                       for u, v, k in _EDGES):
                    return points
    raise ConstructionInconsistent(f"no mirror assignment for {(a, b, c)}")


def construction_stream(n, seed=28):
    """Side triples from 1e-3 to 1e3: a and b log-uniform, c inside the
    triangle inequality, on either tight end, or a few ulps to a tolerance
    past one of them, and now and then a side repeated."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        lo, hi = abs(a - b), a + b
        mode = rng.integers(6)
        if mode == 0:
            c = rng.uniform(lo, hi)
        elif mode == 1:
            c = hi
        elif mode == 2:
            c = lo
        elif mode == 3:
            c = hi + (1.0 + hi) * DEFAULT_TOL * rng.uniform(-2.0, 2.0)
        elif mode == 4:
            c = lo + (1.0 + hi) * DEFAULT_TOL * rng.uniform(-2.0, 2.0)
        else:
            c = rng.choice((a, b))
        out.append((float(a), float(b), float(c)))
    return out


# Each part's fixed colors, free points and target multisets, as the
# forcing_check_i and forcing_check_ii docstrings state them.
PARTS = {
    "i": ({"A": "black", "B": "black", "C": "black"}, ("D", "A'", "B'", "C'", "D'"),
          lambda a, b, c: [(a, b, c)]),
    "ii": ({"B": "white", "A": "white", "D": "white"}, ("B'", "C", "C'", "A'", "D'"),
           lambda a, b, c: [(a, a, a), (b, b, b), (c, c, c)]),
}


def oracle_sides(cfg):
    """Each triple's sorted side lengths, measured triple by triple."""
    sides = {}
    for trio in itertools.combinations(LABELS, 3):
        p, q, r = (cfg.points[t] for t in trio)
        sides[frozenset(trio)] = tuple(sorted((distance(p, q), distance(q, r), distance(r, p))))
    return sides


def oracle_check(part, a, b, c, tol=DEFAULT_TOL):
    """The forcing check from its definition: every coloring of the free
    points, as a dict, must hold a monochromatic triple whose sorted sides
    match a target's within ``tol * (1 + its largest side)``; the first
    such triple, targets in order, is the coloring's log entry."""
    fixed, free, targets = PARTS[part]
    sides = oracle_sides(build_config(a, b, c, tol))
    matches = []
    for multiset in targets(a, b, c):
        want = tuple(sorted(multiset))
        for key, got in sides.items():
            if all(abs(g - w) <= tol * (1.0 + max(want)) for g, w in zip(got, want)):
                matches.append((tuple(sorted(key)), want))
    log = []
    for bits in range(2 ** len(free)):
        colors = dict(fixed)
        for i, label in enumerate(free):
            colors[label] = "white" if (bits >> i) & 1 else "black"
        hits = [(labels, want) for labels, want in matches
                if len({colors[t] for t in labels}) == 1]
        if not hits:
            return {"verified": False, "tested_colorings": 2 ** len(free),
                    "counterexample": colors, "log": log}
        labels, want = hits[0]
        log.append({"coloring": colors, "triple": labels, "multiset": list(want),
                    "color": colors[labels[0]]})
    return {"verified": True, "tested_colorings": 2 ** len(free), "counterexample": None,
            "log": log}


class TestBuildConfig:
    def test_unit_config_on_lattice(self):
        cfg = build_config(1, 1, 1)
        assert max(cfg.constraint_errors()) < 1e-9
        # all eight points on the side-1 triangular lattice: every pairwise
        # distance squared is an integer multiple-free lattice norm
        lattice_norms = {0.0, 1.0, math.sqrt(3), 2.0, math.sqrt(7), 3.0}
        for i, p in enumerate(LABELS):
            for q in LABELS[i + 1:]:
                d = distance(cfg.points[p], cfg.points[q])
                assert any(abs(d - v) < 1e-9 for v in lattice_norms), d

    def test_constraints_reverified(self):
        cfg = build_config(2, 2, 3)
        assert max(cfg.constraint_errors()) < 1e-9

    def test_bad_is_abc_triple(self):
        cfg = build_config(2, 2, 3)
        assert distance(cfg.points["B"], cfg.points["A"]) == pytest.approx(2.0)
        assert distance(cfg.points["A"], cfg.points["D"]) == pytest.approx(2.0)
        assert distance(cfg.points["D"], cfg.points["B"]) == pytest.approx(3.0)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            build_config(1, 1, 3)

    def test_degenerate_sides_rejected(self):
        with pytest.raises(DegenerateSides):
            build_config(1.0, 1.0 + 1e-12, 1.5)

    def test_degenerate_collinear_spec(self):
        cfg = build_config(1, 1, 2)
        assert max(cfg.constraint_errors()) < 1e-9

    def test_construction_is_the_mirror_search(self):
        """Over 12,000 triples the direct construction places the points the
        search places, bit for bit, and refuses the triples it refuses, with
        the same exception type."""
        placed, refused = 0, set()
        for sides in construction_stream(12_000):
            try:
                want = mirror_search_config(*sides)
            except GeometryError as refusal:
                with pytest.raises(GeometryError) as raised:
                    build_config(*sides)
                assert type(raised.value) is type(refusal), sides
                refused.add(type(refusal))
                continue
            got = build_config(*sides).points
            assert (np.array([(got[t].x, got[t].y) for t in LABELS]).tobytes()
                    == np.array([(want[t].x, want[t].y) for t in LABELS]).tobytes()), sides
            placed += 1
        assert 5_000 < placed < 12_000
        assert refused == {Infeasible, ConstructionInconsistent}


class TestClassifyTriples:
    def test_all_56_triples(self):
        cls = classify_triples(build_config(2, 2, 3))
        assert len(cls.triples) == 56

    def test_constraint_triangles_examples(self):
        cfg = build_config(2, 2, 3)
        cls = classify_triples(cfg)
        assert cls.triples[frozenset(("A", "B", "C"))] == \
            pytest.approx((2.0, 2.0, 2.0))
        assert cls.triples[frozenset(("B", "A", "D"))] == \
            pytest.approx((2.0, 2.0, 3.0))
        assert cls.triples[frozenset(("A", "D", "B'"))] == \
            pytest.approx((2.0, 2.0, 2.0))

    def test_defining_multisets_present(self):
        for sides in ((2, 2, 3), (1.3, 2.1, 2.9)):
            a, b, c = sides
            cls = classify_triples(build_config(a, b, c))
            assert len(cls.matching((a, a, a))) >= 2
            assert len(cls.matching((b, b, b))) >= 2
            assert len(cls.matching((c, c, c))) >= 2

    def test_rigid_motion_invariance(self):
        cfg = build_config(1.3, 2.1, 2.9)
        cls = classify_triples(cfg)
        motion = RigidMotion(0.83, (4.2, -1.7))
        moved = EightPointConfig({k: motion.apply(p) for k, p in cfg.points.items()},
                                 cfg.sides)
        cls2 = classify_triples(moved)
        for key in cls.triples:
            assert cls.triples[key] == pytest.approx(cls2.triples[key], abs=1e-9)


class TestForcingChecks:
    @pytest.mark.parametrize("sides", [(1, 1, 1), (2, 2, 3), (1, 1, 2),
                                       (3, 4, 5), (1, 2, 3)])
    def test_part_i_verified(self, sides):
        verdict = forcing_check_i(*sides)
        assert verdict.verified
        assert verdict.tested_colorings == 32
        assert verdict.counterexample is None
        assert len(verdict.forced_triples_log) == 32

    @pytest.mark.parametrize("sides", [(1, 1, 1), (2, 2, 3), (1, 1, 2),
                                       (3, 4, 5), (1, 2, 3)])
    def test_part_ii_verified(self, sides):
        verdict = forcing_check_ii(*sides)
        assert verdict.verified
        assert verdict.tested_colorings == 32

    def test_logged_triples_are_valid(self):
        a, b, c = 1.3, 2.1, 2.9
        cfg = build_config(a, b, c)
        cls = classify_triples(cfg)
        verdict = forcing_check_i(a, b, c)
        want = tuple(sorted((a, b, c)))
        for entry in verdict.forced_triples_log:
            colors = entry["coloring"]
            labels = entry["triple"]
            assert colors[labels[0]] == colors[labels[1]] == colors[labels[2]]
            got = cls.triples[frozenset(labels)]
            assert got == pytest.approx(want, abs=1e-9)

    def test_all_white_extension_follows_proof_chain(self):
        # the proof-critical coloring: A, B, C black and everything else white
        a, b, c = 1.3, 2.1, 2.9
        verdict = forcing_check_i(a, b, c)
        entry = next(e for e in verdict.forced_triples_log
                     if all(e["coloring"][l] == "white"
                            for l in ("D", "A'", "B'", "C'", "D'")))
        assert entry["color"] == "white"
        assert sorted(entry["multiset"]) == sorted([a, b, c])

    def test_part_ii_targets_equilateral(self):
        a, b, c = 1.3, 2.1, 2.9
        cfg = build_config(a, b, c)
        cls = classify_triples(cfg)
        verdict = forcing_check_ii(a, b, c)
        for entry in verdict.forced_triples_log:
            ms = tuple(entry["multiset"])
            assert ms in (pytest.approx((a, a, a)), pytest.approx((b, b, b)),
                          pytest.approx((c, c, c)))

    def test_200_random_specs(self):
        for a, b, c in spec_stream(200):
            assert forcing_check_i(a, b, c).verified, (a, b, c)
            assert forcing_check_ii(a, b, c).verified, (a, b, c)


# distinct sides near 1e-150 collide within tolerance (DegenerateSides)
ORACLE_SIDES = spec_stream(200) + [(1, 1, 2), (1, 2, 3), (1e-150, 1e-150, 1e-150),
                                   (1e150, 1e150, 1e150), (1e150, 2e150, 2.5e150)]


class TestForcingOracle:
    """The checks and the classification against the brute force above."""

    @pytest.mark.parametrize("part, check", [("i", forcing_check_i), ("ii", forcing_check_ii)])
    def test_verdicts_match_the_oracle(self, part, check):
        for sides in ORACLE_SIDES:
            assert check(*sides).to_dict() == oracle_check(part, *sides), sides

    def test_classification_is_the_per_triple_distances(self):
        for sides in ORACLE_SIDES:
            cfg = build_config(*sides)
            got = classify_triples(cfg).triples
            want = oracle_sides(cfg)
            assert list(got) == list(want)
            # bit for bit: the same floats, not merely equal ones
            assert [np.array(v).tobytes() for v in got.values()] == \
                [np.array(v).tobytes() for v in want.values()], sides
