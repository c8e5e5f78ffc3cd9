"""Eight-point forcing configuration and its exhaustive verification.

The configuration consists of labeled points A, B, C, D, A', B', C', D'
tied together by six equilateral constraint triangles: ABC and A'B'C' with
side a, ADB' and A'D'B with side b, BDC' and B'D'C with side c. Fixing the
colors of one triangle and enumerating all 32 two-colorings of the five
remaining free points shows that every coloring of the plane containing a
monochromatic (a,a,a) triangle contains a monochromatic triangle with side
multiset {a,b,c} (part i), and that containing any (a,b,c) triangle forces
a monochromatic equilateral triangle at one of the three sizes (part ii).

The construction is fixed by the constraints, not by coordinates: points
are placed greedily (A, B, C, then D, then B', C', then A', D') trying both
mirror images at each step, preferring D in the lower half-plane, and the
result is accepted only if all six constraint triangles re-verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .geom import (
    DEFAULT_TOL,
    GeometryError,
    Infeasible,
    InvalidArgument,
    Point,
    check_sides,
    check_tol,
    distance,
    third_vertex,
)

LABELS = ("A", "B", "C", "D", "A'", "B'", "C'", "D'")

# The six equilateral constraint triangles and their side (by spec letter).
CONSTRAINTS = (
    (("A", "B", "C"), "a"),
    (("A'", "B'", "C'"), "a"),
    (("A", "D", "B'"), "b"),
    (("A'", "D'", "B"), "b"),
    (("B", "D", "C'"), "c"),
    (("B'", "D'", "C"), "c"),
)


class ConstructionInconsistent(GeometryError):
    """No mirror-choice assignment satisfies all six constraints."""


class DegenerateSides(InvalidArgument):
    """Two distinct side values collide within tolerance; matching would be unsafe."""


@dataclass(frozen=True)
class EightPointConfig:
    points: dict[str, Point]
    sides: tuple[float, float, float]

    def side(self, letter: str) -> float:
        return self.sides[{"a": 0, "b": 1, "c": 2}[letter]]

    def constraint_errors(self) -> list[float]:
        """Deviation of each constraint triangle edge from its stated side."""
        errs = []
        for (p, q, r), letter in CONSTRAINTS:
            s = self.side(letter)
            for u, v in ((p, q), (q, r), (r, p)):
                errs.append(abs(distance(self.points[u], self.points[v]) - s))
        return errs


def _check_spec_sides(a: float, b: float, c: float, tol: float) -> None:
    check_tol(tol)
    check_sides(a, b, c, tol)
    scale = 1.0 + max(a, b, c)
    for x, y in ((a, b), (b, c), (a, c)):
        if x != y and abs(x - y) <= tol * scale:
            raise DegenerateSides("sides", f"must not hold distinct values {x} and {y} "
                                           "within tolerance: triples could not be classified",
                                  (a, b, c))


def build_config(a: float, b: float, c: float,
                 tol: float = DEFAULT_TOL) -> EightPointConfig:
    """Construct the eight-point configuration for sides (a, b, c).

    A = (0,0), B = (a,0), C the ccw apex; D sits at distances b from A and
    c from B (so B, A, D realizes the (a,b,c) side multiset), preferring
    the lower half-plane. The remaining points complete the six equilateral
    constraints; both mirror images are tried at every step and the first
    fully consistent assignment wins.
    """
    _check_spec_sides(a, b, c, tol)
    scale = 1.0 + max(a, b, c)
    A = Point(0.0, 0.0)
    B = Point(a, 0.0)
    C = third_vertex(A, B, a, a, a, "ccw", tol)

    def consistent(cfg: EightPointConfig) -> bool:
        return max(cfg.constraint_errors()) <= tol * scale

    # D below AB first: (A, B, D) clockwise puts D in the lower half-plane.
    for d_orient in ("cw", "ccw"):
        D = third_vertex(A, B, a, b, c, d_orient, tol)
        for bp_o, cp_o in itertools.product(("ccw", "cw"), repeat=2):
            try:
                Bp = third_vertex(A, D, b, b, b, bp_o, tol)
                Cp = third_vertex(B, D, c, c, c, cp_o, tol)
            except (Infeasible, GeometryError):
                continue
            # B'D'C needs |B'C| = c; A'B'C' needs |B'C'| = a.
            if abs(distance(Bp, C) - c) > tol * scale:
                continue
            if abs(distance(Bp, Cp) - a) > tol * scale:
                continue
            for dp_o, ap_o in itertools.product(("ccw", "cw"), repeat=2):
                try:
                    Dp = third_vertex(Bp, C, c, c, c, dp_o, tol)
                    Ap = third_vertex(Bp, Cp, a, a, a, ap_o, tol)
                except (Infeasible, GeometryError):
                    continue
                cfg = EightPointConfig(
                    {"A": A, "B": B, "C": C, "D": D,
                     "A'": Ap, "B'": Bp, "C'": Cp, "D'": Dp},
                    (a, b, c))
                if consistent(cfg):
                    return cfg
    raise ConstructionInconsistent(
        f"no mirror assignment satisfies the six constraints for {(a, b, c)}")


@dataclass(frozen=True)
class TripleClassification:
    """Side-length multiset of every unordered point triple."""

    triples: dict[frozenset, tuple[float, float, float]]

    def matching(self, multiset: tuple[float, float, float],
                 tol: float = DEFAULT_TOL) -> list[frozenset]:
        want = tuple(sorted(multiset))
        scale = 1.0 + max(want)
        out = []
        for key, got in self.triples.items():
            if all(abs(g - w) <= tol * scale for g, w in zip(got, want)):
                out.append(key)
        return out


def classify_triples(cfg: EightPointConfig) -> TripleClassification:
    triples = {}
    for trio in itertools.combinations(LABELS, 3):
        p, q, r = (cfg.points[t] for t in trio)
        dists = tuple(sorted((distance(p, q), distance(q, r), distance(r, p))))
        triples[frozenset(trio)] = dists
    return TripleClassification(triples)


@dataclass(frozen=True)
class ForcingVerdict:
    verified: bool
    tested_colorings: int
    counterexample: Optional[dict[str, str]]
    forced_triples_log: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "verified": self.verified,
            "tested_colorings": self.tested_colorings,
            "counterexample": self.counterexample,
            "log": list(self.forced_triples_log),
        }


def _enumerate(cfg: EightPointConfig, fixed: dict[str, str],
               free: tuple[str, ...], targets: list[tuple[float, float, float]],
               tol: float) -> ForcingVerdict:
    classification = classify_triples(cfg)
    target_triples = []
    for multiset in targets:
        for key in classification.matching(multiset, tol):
            target_triples.append((key, tuple(sorted(multiset))))
    log = []
    counterexample = None
    for bits in range(2 ** len(free)):
        colors = dict(fixed)
        for i, label in enumerate(free):
            colors[label] = "white" if (bits >> i) & 1 else "black"
        hit = None
        for key, multiset in target_triples:
            labels = tuple(sorted(key))
            if colors[labels[0]] == colors[labels[1]] == colors[labels[2]]:
                hit = {"coloring": dict(colors), "triple": labels,
                       "multiset": list(multiset), "color": colors[labels[0]]}
                break
        if hit is None:
            counterexample = dict(colors)
            break
        log.append(hit)
    return ForcingVerdict(counterexample is None, 2 ** len(free),
                          counterexample, tuple(log))


def forcing_check_i(a: float, b: float, c: float,
                    tol: float = DEFAULT_TOL) -> ForcingVerdict:
    """All-black A, B, C force a monochromatic {a, b, c} triple.

    Enumerates all 32 colorings of the remaining five points; verified means
    every one of them contains a monochromatic triple whose sorted side
    multiset is {a, b, c}.
    """
    cfg = build_config(a, b, c, tol)
    return _enumerate(cfg,
                      {"A": "black", "B": "black", "C": "black"},
                      ("D", "A'", "B'", "C'", "D'"),
                      [(a, b, c)], tol)


def forcing_check_ii(a: float, b: float, c: float,
                     tol: float = DEFAULT_TOL) -> ForcingVerdict:
    """All-white B, A, D force a monochromatic equilateral triple.

    B, A, D realizes the (a, b, c) multiset by construction; enumerates the
    32 colorings of the other five points, each of which must contain a
    monochromatic (x, x, x) triple for some x in {a, b, c}.
    """
    cfg = build_config(a, b, c, tol)
    return _enumerate(cfg,
                      {"B": "white", "A": "white", "D": "white"},
                      ("B'", "C", "C'", "A'", "D'"),
                      [(a, a, a), (b, b, b), (c, c, c)], tol)
