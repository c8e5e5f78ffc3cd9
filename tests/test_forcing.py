import math

import numpy as np
import pytest

from monotri.geom import Infeasible, RigidMotion, distance
from monotri.forcing import (
    DegenerateSides,
    EightPointConfig,
    LABELS,
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
