"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and scale with fixed seeds;
criterion 9 re-runs the randomized/scan criteria and requires byte-identical
JSON. Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from monotri.geom import Point, Region, TriangleSpec, distance
from monotri.colorings import (
    Color,
    HalfPlaneColoring,
    StripColoring,
    ZebraColoring,
    ZebraProfile,
    check_zebra_conditions,
    coloring_from_dict,
    l_shape_coloring,
)
from monotri.scan import (
    ScanGrid,
    avoidance_scan,
    find_almost_unit,
    find_monochromatic_copy,
    hexagon_probe,
    verify_witness,
)
from monotri.forcing import forcing_check_i, forcing_check_ii
from monotri.lines import AllParallel, Line, solve_unit_triangles, sweep_oracle

SQRT3 = math.sqrt(3.0)
ZIGZAG_PROFILE = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
ZIGZAG_TWIN = ZebraColoring(ZIGZAG_PROFILE, parity_rule="even-black",
                            boundary_parity="even-black")


CRITERION_LINES: list[str] = []


def _report(number: int, ok: bool, elapsed: float, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {verdict} ({elapsed:.1f}s) {detail}"
    CRITERION_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# Criterion bodies (shared between the per-criterion tests and criterion 9)
# ---------------------------------------------------------------------------

def run_criterion_1():
    rng = np.random.default_rng(20250808)
    verified = 0
    total = 200
    produced = 0
    while produced < total:
        a, b = rng.uniform(0.1, 5.0, 2)
        c = float(rng.uniform(abs(a - b), a + b))
        gaps = [abs(x - y) for x, y in ((a, b), (b, c), (a, c)) if x != y]
        if gaps and min(gaps) < 1e-6:
            continue  # classifier refuses colliding distinct sides
        produced += 1
        vi = forcing_check_i(float(a), float(b), float(c))
        vii = forcing_check_ii(float(a), float(b), float(c))
        if vi.verified and vi.tested_colorings == 32 and \
           vii.verified and vii.tested_colorings == 32:
            verified += 1
    doc = {"specs": total, "verified": verified}
    return verified == total, doc, f"{verified}/{total} specs verified 32/32 both parts"


def run_criterion_2():
    grid = ScanGrid(Region(0, 0, 10, 10), 0.06, 36)
    report = avoidance_scan(StripColoring(1.0), TriangleSpec(1, 1, 1), grid)
    ok = report.placements_tested >= 10 ** 6 and report.monochromatic_count == 0
    doc = report.to_dict()
    return ok, doc, (f"{report.placements_tested} placements, "
                     f"{report.monochromatic_count} monochromatic")


def run_criterion_3():
    cond = check_zebra_conditions(ZIGZAG_TWIN)
    slopes = [(v1 - v0) / (u1 - u0)
              for (u0, v0), (u1, v1) in zip(ZIGZAG_PROFILE.vertices,
                                            ZIGZAG_PROFILE.vertices[1:])]
    bent = any(abs(m1 - m2) > 1e-9 for m1, m2 in zip(slopes, slopes[1:]))
    grid = ScanGrid(Region(0, 0, 10, 10), 0.06, 36)
    report = avoidance_scan(ZIGZAG_TWIN, TriangleSpec(1, 1, 1), grid)
    ok = (cond.all_ok and bent and report.placements_tested >= 10 ** 6
          and report.monochromatic_count == 0)
    doc = {"conditions": cond.to_dict(), "non_collinear_profile": bent,
           "scan": report.to_dict()}
    return ok, doc, (f"conditions {'pass' if cond.all_ok else 'fail'}, boundary bent, "
                     f"{report.monochromatic_count} monochromatic in "
                     f"{report.placements_tested}")


def run_criterion_4():
    grid = ScanGrid(Region(0, 0, 3, 3), 0.02, 720)
    doc = {}
    ok = True
    details = []
    for a in (0.5, 0.9, 1.1, 2.0):
        spec = TriangleSpec(a, a, a)
        witness = find_monochromatic_copy(ZIGZAG_TWIN, spec, grid, min_margin=0.01)
        good = witness is not None and witness.margin >= 0.01 and \
            verify_witness(ZIGZAG_TWIN, spec, witness)
        ok = ok and good
        doc[f"a={a}"] = witness.to_dict(spec) if witness else {"result": "exhausted"}
        details.append(f"a={a}:{'found' if good else 'MISSING'}")
    unit = find_monochromatic_copy(ZIGZAG_TWIN, TriangleSpec(1, 1, 1), grid,
                                   min_margin=0.01)
    ok = ok and unit is None
    doc["a=1.0"] = {"result": "exhausted"} if unit is None else \
        unit.to_dict(TriangleSpec(1, 1, 1))
    details.append(f"a=1.0:{'exhausted' if unit is None else 'FOUND'}")
    return ok, doc, " ".join(details)


def run_criterion_5():
    spec = TriangleSpec(1, 1, 1)
    doc = {}
    ok = True
    for name, coloring in (("halfplane", HalfPlaneColoring()),
                           ("l-shape", l_shape_coloring())):
        grid = ScanGrid(Region(0, 0, 4, 4), 0.05, 16)
        witness = find_monochromatic_copy(coloring, spec, grid, min_margin=0.05)
        good = witness is not None and verify_witness(coloring, spec, witness)
        ok = ok and good
        doc[name] = witness.to_dict(spec) if witness else {"result": "exhausted"}
    return ok, doc, "witnesses found on half-plane and L-shape"


def run_criterion_6():
    rng = np.random.default_rng(660)
    n_instances = 1000
    done = 0
    count_mismatch = coord_mismatch = unit_bad = 0
    while done < n_instances:
        lines = []
        for _ in range(3):
            if rng.uniform() < 0.15:
                lines.append(Line.vertical(float(rng.uniform(-2, 2))))
            else:
                lines.append(Line.slope_intercept(float(rng.uniform(-3, 3)),
                                                  float(rng.uniform(-2, 2))))
        try:
            sol = solve_unit_triangles(*lines)
        except AllParallel:
            continue
        if sol.kind != "finite":
            continue
        oracle = sweep_oracle(*lines, angle_step=1e-4)
        done += 1
        if len(oracle) != len(sol.triangles):
            count_mismatch += 1
            continue
        for tri in sol.triangles:
            sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]),
                     distance(tri[2], tri[0]))
            if any(abs(s - 1.0) > 1e-9 for s in sides):
                unit_bad += 1
            key = sorted(tri, key=lambda p: (p.x, p.y))
            best = min((max(distance(a, b) for a, b in
                            zip(key, sorted(ot, key=lambda p: (p.x, p.y))))
                        for ot in oracle), default=math.inf)
            if best > 1e-6:
                coord_mismatch += 1
    degenerate = solve_unit_triangles(
        Line.slope_intercept(-1.0 / SQRT3, 0.0),
        Line.slope_intercept(1.0 / SQRT3, 0.0),
        Line.vertical(0.0))
    ok = (count_mismatch == 0 and coord_mismatch == 0 and unit_bad == 0
          and degenerate.kind == "degenerate-concurrent")
    doc = {"instances": done, "count_mismatches": count_mismatch,
           "coordinate_mismatches": coord_mismatch, "non_unit": unit_bad,
           "degenerate_kind": degenerate.kind}
    return ok, doc, (f"{done} instances agree with sweep oracle; "
                     f"exact pencil -> {degenerate.kind}")


def run_criterion_7():
    rng = np.random.default_rng(770)
    probes = []
    attempts = 0
    while len(probes) < 50 and attempts < 5000:
        attempts += 1
        u = float(rng.uniform(0, 1))
        i = int(rng.integers(-3, 4))
        A = ZIGZAG_TWIN.curve_point(i, u)
        probe = hexagon_probe(ZIGZAG_TWIN, A)
        if not probe.feasible:
            continue
        probes.append(probe)
    all_regular = all(p.regular and p.max_deviation < 1e-6 and
                      len(p.points) == 6 for p in probes)
    hp_probe = hexagon_probe(HalfPlaneColoring(), Point(0.0, 0.0))
    hp_ok = (not hp_probe.regular) and len(hp_probe.points) == 2
    ok = len(probes) == 50 and all_regular and hp_ok
    doc = {"zigzag_probes": [p.to_dict() for p in probes],
           "halfplane": hp_probe.to_dict()}
    max_dev = max((p.max_deviation for p in probes), default=math.inf)
    return ok, doc, (f"50 feasible probes regular (max deviation {max_dev:.2e}); "
                     f"half-plane 2 hits, regular=false")


def run_criterion_8():
    sc = StripColoring(1.0)
    doc = {}
    ok = True
    details = []
    for eps in (0.2, 0.1, 0.05):
        t0 = time.monotonic()
        pair = find_almost_unit(sc, eps, tries=10 ** 6, seed=808)
        elapsed = time.monotonic() - t0
        good = pair is not None
        if good:
            for tri, color in ((pair.black_triangle, Color.BLACK),
                               (pair.white_triangle, Color.WHITE)):
                sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]),
                         distance(tri[2], tri[0]))
                good = good and all(1 - eps <= s <= 1 + eps for s in sides)
                good = good and all(sc.color_at(v) is color for v in tri)
                good = good and all(abs(v.x) <= 3 and abs(v.y) <= 3 for v in tri)
        good = good and elapsed < 60.0
        ok = ok and good
        doc[f"eps={eps}"] = pair.to_dict() if pair else {"result": "failure"}
        details.append(f"eps={eps}:{'ok' if good else 'FAIL'}")
    return ok, doc, " ".join(details)


CRITERIA = {
    1: (run_criterion_1, 5.0),
    2: (run_criterion_2, 60.0),
    3: (run_criterion_3, 90.0),
    4: (run_criterion_4, 120.0),
    5: (run_criterion_5, 10.0),
    6: (run_criterion_6, 120.0),
    7: (run_criterion_7, 10.0),
    8: (run_criterion_8, 3 * 60.0),
}

_first_run_docs: dict[int, str] = {}


def _run(number: int):
    body, limit = CRITERIA[number]
    t0 = time.monotonic()
    ok, doc, detail = body()
    elapsed = time.monotonic() - t0
    _first_run_docs[number] = json.dumps(doc, sort_keys=True)
    _report(number, ok and elapsed < limit, elapsed, detail)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_forcing_exhaustion():
    _run(1)


def test_criterion_2_strip_avoids_unit():
    _run(2)


def test_criterion_3_zebra_counterexample():
    _run(3)


def test_criterion_4_twin_contains_other_equilaterals():
    _run(4)


def test_criterion_5_non_zebra_colorings_contain_unit():
    _run(5)


def test_criterion_6_lines_solver_vs_sweep():
    _run(6)


def test_criterion_7_hexagon_structure():
    _run(7)


def test_criterion_8_almost_unit_on_strip():
    _run(8)


def test_criterion_9_determinism_and_round_trip():
    t0 = time.monotonic()
    identical = True
    for number in (2, 3, 4, 5, 6, 7, 8):
        body, _ = CRITERIA[number]
        if number not in _first_run_docs:  # criterion run standalone
            _, doc, _ = body()
            _first_run_docs[number] = json.dumps(doc, sort_keys=True)
        _, doc, _ = body()
        again = json.dumps(doc, sort_keys=True)
        if again != _first_run_docs[number]:
            identical = False
            print(f"criterion 9: rerun of criterion {number} differs")
    # serialize / parse round-trip preserves point queries
    rng = np.random.default_rng(909)
    xs = rng.uniform(-10, 10, 10 ** 4)
    ys = rng.uniform(-10, 10, 10 ** 4)
    round_trip = True
    for coloring in (StripColoring(1.0), ZIGZAG_TWIN,
                     HalfPlaneColoring(), l_shape_coloring()):
        again = coloring_from_dict(json.loads(json.dumps(coloring.to_dict())))
        (got, _, lost), (want, _, missed) = again.resolve(xs, ys), coloring.resolve(xs, ys)
        if lost.any() or missed.any() or not (got == want).all():
            round_trip = False
    elapsed = time.monotonic() - t0
    _report(9, identical and round_trip, elapsed,
            "criteria 2-8 byte-identical on rerun; round-trip preserves "
            "10^4 point queries")
    assert identical, "criterion 9: JSON output not byte-identical across runs"
    assert round_trip, "criterion 9: serialize/parse round-trip changed queries"
