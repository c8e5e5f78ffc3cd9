"""Seeded job lists for the four workloads, each job with its expected verdict.

A job is a name and a function ``run(wrap) -> (ok, verdict, doc)``. ``wrap``
is applied to every coloring before it reaches the library (the identity,
or the tracing proxy). ``ok`` says whether the verdict is the one the job's
construction implies; ``doc`` is the canonical JSON form of the result and
feeds the workload digest. Library entry points are looked up through their
modules at call time, so a traced pass sees the timed wrappers.

Inputs depend only on the seed; the library receives only these inputs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Callable

import numpy as np

import monotri.colorings as C
import monotri.forcing as F
import monotri.lines as L
import monotri.scan as S
from monotri.colorings import (
    BoundaryPiece,
    Color,
    HalfPlaneColoring,
    PolygonalColoring,
    StripColoring,
    ZebraColoring,
    ZebraProfile,
    l_shape_coloring,
)
from monotri.geom import Point, Region, RigidMotion, Segment, TriangleSpec, UnitVector, distance
from monotri.scan import ScanGrid, ScanWitness

WORKLOADS = ("scan-exhaust", "scan-witness", "checks", "cli")

ZIGZAG = ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))
UNIT = TriangleSpec(1.0, 1.0, 1.0)
TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable
    inputs: object = None  # JSON form of what the job hands the library


def _inputs(coloring=None, spec=None, grid=None, **extra) -> dict:
    doc = dict(extra)
    if coloring is not None:
        doc["coloring"] = coloring.to_dict()
    if spec is not None:
        doc["spec"] = list(spec.sides())
    if grid is not None:
        r = grid.region
        doc["grid"] = [r.x0, r.y0, r.x1, r.y1, grid.position_step, grid.angle_count]
    return doc


def _twin(rng, turn: float = 2 * math.pi) -> ZebraColoring:
    """The zigzag zebra twin (boundary parity even-black), x_hat turned by up to ``turn``."""
    return ZebraColoring(ZIGZAG, x_hat=UnitVector.from_angle(float(rng.uniform(0.0, turn))),
                         parity_rule="even-black", boundary_parity="even-black")


def _grid(rng, side: float, step: float, angles: int, spread: float = 5.0) -> ScanGrid:
    """A square grid whose corner lies within ``spread`` of the origin."""
    x0, y0 = (float(v) for v in rng.uniform(-spread, spread, 2))
    return ScanGrid(Region(x0, y0, x0 + side, y0 + side), step, angles)


def _box(center: Point, half: float, step: float, angles: int) -> ScanGrid:
    return ScanGrid(Region(center.x - half, center.y - half, center.x + half, center.y + half),
                    step, angles)


def convex_face(rng) -> tuple[PolygonalColoring, Point]:
    """A black convex hexagon in a white plane, and its centre.

    Vertices sit near the six directions k*pi/3 at radius 2.2-2.6 around a
    seeded centre; the face holds the disk of radius 1.6 about the centre.
    """
    while True:
        c = Point(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)))
        turn = float(rng.uniform(0.0, math.pi / 3))
        angles = [turn + k * math.pi / 3 + float(rng.uniform(-0.17, 0.17)) for k in range(6)]
        radii = rng.uniform(2.2, 2.6, 6)
        ccw = [Point(c.x + r * math.cos(a), c.y + r * math.sin(a)) for a, r in zip(angles, radii)]
        cw = ccw[::-1]  # clockwise, so the white outside lies on the left
        segs = [Segment(cw[k], cw[(k + 1) % 6]) for k in range(6)]
        if min(_line_distance(c, s) for s in segs) >= 1.6:
            break
    pieces = tuple(BoundaryPiece(s, Color.BLACK if rng.uniform() < 0.5 else Color.WHITE)
                   for s in segs)
    seeds = ((c, Color.BLACK), (Point(c.x + 4.0, c.y), Color.WHITE),
             (Point(c.x - 4.0, c.y + 0.3), Color.WHITE))
    window = Region(c.x - 4.5, c.y - 4.5, c.x + 4.5, c.y + 4.5)
    return PolygonalColoring(pieces, seeds, window), c


def _line_distance(p: Point, seg: Segment) -> float:
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    return abs((p.x - seg.p.x) * dy - (p.y - seg.p.y) * dx) / math.hypot(dx, dy)


# ---------------------------------------------------------------------------
# Scan jobs
# ---------------------------------------------------------------------------

def avoid_job(name, coloring, spec, grid, all_mono: bool) -> Job:
    """Expected: no monochromatic placement, or (inside one face) all of them."""
    def run(wrap):
        report = S.avoidance_scan(wrap(coloring), spec, grid, TOL)
        want = report.placements_tested if all_mono else 0
        ok = (report.placements_tested == grid.placements()
              and report.monochromatic_count == want
              and (not all_mono or report.near_misses == 0))
        verdict = "all-monochromatic" if all_mono else "avoids"
        return ok, verdict, report.to_dict()
    return Job(name, run, _inputs(coloring, spec, grid))


def exhaust_job(name, coloring, spec, grid) -> Job:
    """Expected: the find scan exhausts the grid (the twin avoids the unit triangle)."""
    def run(wrap):
        witness = S.find_monochromatic_copy(wrap(coloring), spec, grid, 0.0, TOL)
        doc = {"result": "exhausted"} if witness is None else witness.to_dict(spec)
        return witness is None, "exhausted", doc
    return Job(name, run, _inputs(coloring, spec, grid))


def witness_job(name, coloring, spec, grid, min_margin, first_black: bool = False) -> Job:
    """Expected: a witness with margin that ``verify_witness`` accepts.

    With ``first_black`` every placement lies inside one black face, so the
    witness must also be the first pose of the grid, and black.
    """
    def run(wrap):
        c = wrap(coloring)
        witness = S.find_monochromatic_copy(c, spec, grid, min_margin, TOL)
        if witness is None:
            return False, "witness", {"result": "exhausted"}
        ok = witness.margin >= min_margin and S.verify_witness(c, spec, witness, TOL)
        if first_black:
            first = (0.0, (float(grid.xs()[0]), float(grid.ys()[0])))
            ok = ok and witness.color is Color.BLACK and \
                (witness.motion.angle, witness.motion.translation) == first
        return ok, "witness", witness.to_dict(spec)
    return Job(name, run, _inputs(coloring, spec, grid, min_margin=min_margin))


def scan_exhaust(rng, tiny: bool) -> list[Job]:
    """Scans that must cover the whole grid: strip and twin, unit triangle.

    The counts put the median job among the twin finds and the 90th
    percentile among the twin avoidance scans.
    """
    n = 1 if tiny else 4
    # 12 angles keep each job near 0.1 s, so that a run holds many samples
    # of every job (see worker.best_times)
    side, step, angles = 3.0, 0.06, 12
    jobs = []
    for _ in range(n):
        strip = StripColoring(1.0, str(rng.choice(["upper-closed", "lower-closed"])))
        jobs.append(avoid_job("avoid/strip", strip, UNIT, _grid(rng, side, step, angles), False))
    for _ in range(n):
        jobs.append(exhaust_job("find/zebra", _twin(rng), UNIT, _grid(rng, side, step, angles)))
    for _ in range(n):
        jobs.append(avoid_job("avoid/zebra", _twin(rng), UNIT, _grid(rng, side, step, angles),
                              False))
    # one wide grid, so that the scan's own arrays show in peak memory
    wide = (2.0, 0.05) if tiny else (8.0, 0.01)
    jobs.append(avoid_job("avoid/strip-wide", StripColoring(1.0), UNIT,
                          _grid(rng, wide[0], wide[1], 1), False))
    return jobs


def scan_witness(rng, tiny: bool) -> list[Job]:
    """Early-exit scans with margins, and small grids over polygonal faces.

    The counts put the median job among the twin finds and the 90th
    percentile among the polygonal scans.
    """
    jobs = []
    for _ in range(1 if tiny else 2):
        for a in (0.5, 0.9, 1.1, 2.0):
            # How far a find scan runs, and how many candidates it rejects
            # for margin, depends on where the grid sits on the coloring, so
            # x_hat turns within one angle step and the grid moves within one
            # position step: the cost of a pass then depends little on the seed.
            jobs.append(witness_job(f"find/zebra-{a}", _twin(rng, 2 * math.pi / 720),
                                    TriangleSpec(a, a, a),
                                    _grid(rng, 3.0, 0.02, 720, spread=0.01), 0.01))
    for _ in range(1 if tiny else 2):
        phi = float(rng.uniform(0.0, 2 * math.pi))
        hp = HalfPlaneColoring(UnitVector.from_angle(phi), float(rng.uniform(-1.0, 1.0)),
                               Color.BLACK if rng.uniform() < 0.5 else Color.WHITE)
        jobs.append(witness_job("find/halfplane", hp, UNIT, _grid(rng, 4.0, 0.05, 16), 0.05))
        # translations 2.5 inside the closed side: every placement is monochromatic
        n_hat = hp.normal
        centre = Point(n_hat.dx * (hp.offset + 2.5), n_hat.dy * (hp.offset + 2.5))
        jobs.append(avoid_job("avoid/halfplane", hp, UNIT, _box(centre, 0.5, 0.05, 36), True))
    ox, oy = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
    jobs.append(witness_job("find/l-shape", l_shape_coloring(), UNIT,
                            ScanGrid(Region(ox, oy, ox + 4.0, oy + 4.0), 0.05, 16), 0.05))
    for _ in range(1 if tiny else 3):
        face, centre = convex_face(rng)
        # |t - centre| <= 0.3*sqrt(2) and vertices within 1 of t: all inside the face
        jobs.append(witness_job("find/polygonal", face, UNIT, _box(centre, 0.3, 0.02, 36), 0.05,
                                first_black=True))
        jobs.append(avoid_job("avoid/polygonal", face, UNIT, _box(centre, 0.3, 0.05, 6), True))
    return jobs


# ---------------------------------------------------------------------------
# Exact checkers and solvers
# ---------------------------------------------------------------------------

def _side_triple(rng) -> tuple[float, float, float]:
    while True:
        a, b = (float(v) for v in rng.uniform(0.1, 5.0, 2))
        c = float(rng.uniform(abs(a - b), a + b))
        gaps = [abs(x - y) for x, y in ((a, b), (b, c), (a, c))]
        if min(gaps) > 1e-3 and min(a + b - c, c - abs(a - b)) > 1e-3:
            return a, b, c


def forcing_job(sides) -> Job:
    """Expected: both parts verified over all 32 colorings of the free points."""
    def run(wrap):
        verdicts = (F.forcing_check_i(*sides, TOL), F.forcing_check_ii(*sides, TOL))
        ok = all(v.verified and v.tested_colorings == 32 for v in verdicts)
        return ok, "forced-32/32", [v.to_dict() for v in verdicts]
    return Job("forcing", run, _inputs(sides=list(sides)))


def _random_lines(rng) -> tuple[L.Line, L.Line, L.Line]:
    lines = []
    for _ in range(3):
        if rng.uniform() < 0.15:
            lines.append(L.Line.vertical(float(rng.uniform(-2, 2))))
        else:
            lines.append(L.Line.slope_intercept(float(rng.uniform(-3, 3)),
                                                float(rng.uniform(-2, 2))))
    return tuple(lines)


def _solution_ok(lines, sol) -> bool:
    if sol.kind != "finite":
        return False
    for tri in sol.triangles:
        sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]), distance(tri[2], tri[0]))
        if any(abs(s - 1.0) > 1e-9 for s in sides):
            return False
        if any(line.distance_to(p) > 1e-8 for line, p in zip(lines, tri)):
            return False
    return True


def solve_job(lines) -> Job:
    """Expected: a finite solution whose triangles are unit, one vertex per line."""
    def run(wrap):
        sol = L.solve_unit_triangles(*lines, tol=TOL)
        return _solution_ok(lines, sol), "solved", sol.to_dict()
    return Job("lines/solve", run, _inputs(lines=[ln.to_text() for ln in lines]))


def sweep_job(lines) -> Job:
    """Expected: the pose sweep finds the solver's triangles, count and coordinates."""
    def run(wrap):
        sol = L.solve_unit_triangles(*lines, tol=TOL)
        oracle = L.sweep_oracle(*lines, angle_step=1e-4)
        ok = _solution_ok(lines, sol) and len(oracle) == len(sol.triangles)
        for tri in sol.triangles if ok else ():
            key = sorted(tri, key=lambda p: (p.x, p.y))
            best = min(max(distance(a, b) for a, b in
                           zip(key, sorted(ot, key=lambda p: (p.x, p.y)))) for ot in oracle)
            ok = ok and best <= 1e-6
        return ok, "sweep-agrees", {"solution": sol.to_dict(), "oracle_count": len(oracle)}
    return Job("lines/sweep", run, _inputs(lines=[ln.to_text() for ln in lines]))


def _lines_instance(rng):
    while True:
        lines = _random_lines(rng)
        try:
            sol = L.solve_unit_triangles(*lines, tol=TOL)
        except L.AllParallel:
            continue
        if sol.kind == "finite":
            return lines


def check_zebra_job(coloring) -> Job:
    def run(wrap):
        report = C.check_zebra_conditions(coloring, TOL)
        return report.all_ok, "conditions-hold", report.to_dict()
    return Job("check-zebra", run, _inputs(coloring))


def hexagon_job(coloring, point) -> Job:
    """Expected: a feasible probe on the twin is regular (six hits pi/3 apart)."""
    def run(wrap):
        probe = S.hexagon_probe(wrap(coloring), point, None, TOL)
        ok = not probe.feasible or (probe.regular and probe.max_deviation < 1e-6
                                    and len(probe.points) == 6)
        return ok, "regular-if-feasible", probe.to_dict()
    return Job("hexagon", run, _inputs(coloring, point=[point.x, point.y]))


def audit_job(coloring) -> Job:
    """Expected: no boundary corner of angle <= 2*pi/3 on a zebra coloring."""
    def run(wrap):
        entries = S.boundary_angle_audit(wrap(coloring), None, TOL)
        return not entries, "no-sharp-corner", [e.to_dict() for e in entries]
    return Job("angle-audit", run, _inputs(coloring))


def almost_ok(coloring, pair, eps) -> bool:
    if pair is None:
        return False
    for tri, color in ((pair.black_triangle, Color.BLACK), (pair.white_triangle, Color.WHITE)):
        sides = (distance(tri[0], tri[1]), distance(tri[1], tri[2]), distance(tri[2], tri[0]))
        if not all(1 - eps <= s <= 1 + eps for s in sides):
            return False
        if not all(coloring.color_at(v, TOL) is color and abs(v.x) <= 3 and abs(v.y) <= 3
                   for v in tri):
            return False
    return True


def almost_job(name, coloring, eps, seed) -> Job:
    """Expected: almost-unit triangles in both color classes."""
    def run(wrap):
        pair = S.find_almost_unit(wrap(coloring), eps, 10 ** 6, seed, TOL)
        doc = {"result": "failure"} if pair is None else pair.to_dict()
        return almost_ok(coloring, pair, eps), "pair-found", doc
    return Job(name, run, _inputs(coloring, epsilon=eps, seed=seed))


def checks(rng, tiny: bool) -> list[Job]:
    """Scalar checkers and solvers; no grid scan runs here.

    The counts put the median job among the forcing checks and the 90th
    percentile among the hexagon probes; no layer takes most of a pass.
    """
    k = 1 if tiny else 4
    jobs = []
    for _ in range(15 * k):
        jobs.append(solve_job(_lines_instance(rng)))
    for _ in range(k):
        jobs.append(sweep_job(_lines_instance(rng)))
    for _ in range(1 if tiny else 45):
        jobs.append(forcing_job(_side_triple(rng)))
    for _ in range(3 * k):
        jobs.append(check_zebra_job(_twin(rng)))
    for _ in range(4 * k):
        twin = _twin(rng)
        point = twin.curve_point(int(rng.integers(-3, 4)), float(rng.uniform(0.0, 1.0)))
        jobs.append(hexagon_job(twin, point))
    for _ in range(k):
        jobs.append(audit_job(_twin(rng)))
    for eps in (0.2, 0.1, 0.05):
        jobs.append(almost_job("almost/strip", StripColoring(1.0), eps, int(rng.integers(2 ** 31))))
        jobs.append(almost_job("almost/zebra", _twin(rng), eps, int(rng.integers(2 ** 31))))
    return jobs


# ---------------------------------------------------------------------------
# Command line, one fresh process per job
# ---------------------------------------------------------------------------

def _dump(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _witness_from_doc(doc) -> ScanWitness:
    verts = tuple(Point(x, y) for x, y in doc["vertices"])
    motion = RigidMotion(doc["angle"], tuple(doc["translation"]))
    return ScanWitness(motion, verts, Color(doc["color"]), doc["margin"])


def _pair_from_doc(doc) -> S.AlmostUnitPair:
    def tri(key):
        return tuple(Point(x, y) for x, y in doc[key])
    return S.AlmostUnitPair(tri("black"), tri("white"), doc["epsilon"])


@dataclass
class CliJob:
    """One ``monotri`` invocation: arguments, its output file, and its check."""

    name: str
    argv: list
    out: str
    check: Callable
    inputs: object = None


def cli(rng, tiny: bool, workdir: str) -> list[CliJob]:
    """Every subcommand once per pass (forcing in both parts, render twice)."""
    def path(name):
        return os.path.join(workdir, name)

    twin = _twin(rng)
    twin_doc = _dump(path("twin.json"), twin.to_dict())
    strip_doc = _dump(path("strip.json"), StripColoring(1.0).to_dict())
    faces = [convex_face(rng) for _ in range(2)]
    face_docs = [_dump(path(f"face{k}.json"), f.to_dict()) for k, (f, _) in enumerate(faces)]

    def region(g: ScanGrid) -> str:
        # "--flag=value", since a value may start with a minus sign
        r = g.region
        return f"--region={r.x0!r},{r.y0!r},{r.x1!r},{r.y1!r}"

    jobs = []
    g_witness, g_exhaust, g_avoid = (_grid(rng, 1.0, 0.05, 12) for _ in range(3))
    half = TriangleSpec(0.5, 0.5, 0.5)
    jobs.append(CliJob("scan", ["scan", "--coloring", twin_doc, "--triangle", "0.5,0.5,0.5",
                                region(g_witness), "--grid", "0.05", "--angles", "12",
                                "--min-margin", "0.01"], path("scan-witness.json"),
                       lambda doc: doc["margin"] >= 0.01 and S.verify_witness(
                           twin, half, _witness_from_doc(doc), TOL)))
    jobs.append(CliJob("scan", ["scan", "--coloring", twin_doc, "--triangle", "1,1,1",
                                region(g_exhaust), "--grid", "0.05", "--angles", "12"],
                       path("scan-exhausted.json"),
                       lambda doc: doc == {"result": "exhausted",
                                           "placements_tested": g_exhaust.placements()}))
    jobs.append(CliJob("avoid", ["avoid", "--coloring", strip_doc, "--triangle", "1,1,1",
                                 region(g_avoid), "--grid", "0.05", "--angles", "12"],
                       path("avoid.json"),
                       lambda doc: doc["monochromatic_count"] == 0
                       and doc["placements_tested"] == g_avoid.placements()))
    eps, seed = float(rng.choice([0.2, 0.1, 0.05])), int(rng.integers(2 ** 31))
    jobs.append(CliJob("almost", ["almost", "--coloring", strip_doc, "--epsilon", repr(eps),
                                  "--seed", str(seed)], path("almost.json"),
                       lambda doc: almost_ok(StripColoring(1.0), _pair_from_doc(doc), eps)))
    jobs.append(CliJob("check-zebra", ["check-zebra", "--coloring", twin_doc],
                       path("check-zebra.json"),
                       lambda doc: all(doc[k] == "pass" for k in "abcd")))
    point = twin.curve_point(int(rng.integers(-3, 4)), float(rng.uniform(0.0, 1.0)))
    jobs.append(CliJob("hexagon", ["hexagon", "--coloring", twin_doc,
                                   f"--point={point.x!r},{point.y!r}"], path("hexagon.json"),
                       lambda doc: not doc["feasible"] or doc["regular"]))
    jobs.append(CliJob("angles", ["angles", "--coloring", twin_doc], path("angles.json"),
                       lambda doc: doc == {"vertices": []}))
    sides = ",".join(repr(s) for s in _side_triple(rng))
    for part in ("i", "ii"):
        jobs.append(CliJob("forcing", ["forcing", "--sides", sides, "--part", part],
                           path(f"forcing-{part}.json"),
                           lambda doc: doc["verified"] and doc["tested_colorings"] == 32))
    lines = _lines_instance(rng)
    jobs.append(CliJob("lines", ["lines"] + [f"--q{k + 1}={line.to_text()}"
                                             for k, line in enumerate(lines)],
                       path("lines.json"), lambda doc: doc["kind"] == "finite"))
    for k, (face, centre) in enumerate(faces):
        r = Region(centre.x - 3.0, centre.y - 0.75, centre.x + 3.0, centre.y + 0.75)
        jobs.append(CliJob("render", ["render", "--coloring", face_docs[k],
                                      f"--region={r.x0!r},{r.y0!r},{r.x1!r},{r.y1!r}",
                                      "--pixels-per-unit", "20"], path(f"render{k}.svg"),
                           lambda text: "<svg" in text and text.rstrip().endswith("</svg>")))
    for job in jobs:
        job.inputs = [os.path.basename(a) if a.startswith(workdir) else a for a in job.argv]
        job.inputs += [_read_json(a) for a in job.argv if a.endswith(".json")]
        job.argv = job.argv + ["--out", job.out]
    return jobs


def run_cli(job: CliJob, command: list, env: dict, workdir: str) -> tuple[bool, str, dict]:
    """Run one invocation to completion; the verdict comes from its output file."""
    if os.path.exists(job.out):
        os.remove(job.out)
    proc = subprocess.run(command + job.argv, env=env, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    doc = {"exit": proc.returncode, "stderr": proc.stderr.decode("utf-8", "replace")}
    if proc.returncode != 0 or not os.path.exists(job.out):
        return False, "exit-0", doc
    with open(job.out, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc["output"] = text
    try:
        ok = bool(job.check(text if job.name == "render" else json.loads(text)))
    except (KeyError, TypeError, ValueError):
        ok = False
    return ok, "exit-0", doc


JOB_LISTS = {"scan-exhaust": scan_exhaust, "scan-witness": scan_witness, "checks": checks}


def rng_for(workload: str, seed: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])
