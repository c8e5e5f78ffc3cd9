"""In-memory spans around monotri's public entry points.

Tracing is done from the benchmark's side only: colorings are wrapped in a
delegating proxy, and public functions are rebound, for the duration of a
traced pass, to timed wrappers in the module namespaces the callers look
them up in. The library's own files are never changed.

A span is ``[name, family, start_ns, end_ns, parent, job, count]``. ``count``
is the unit of work the span did (points classified, placements covered,
colorings enumerated, SVG bytes, ...). Spans stay in a list and are written
once, when the run ends.

This module imports neither numpy nor monotri at import time, so the CLI
shim can load it before timing ``import monotri.cli``.
"""

from __future__ import annotations

import json
import time

NAME, FAMILY, START, END, PARENT, JOB, COUNT = range(7)

LAYERS = ("geom", "colorings", "scan", "forcing", "lines", "render", "cli")
FAMILIES = ("strip", "halfplane", "zebra", "polygonal")
SUBCOMMANDS = ("scan", "avoid", "almost", "check-zebra", "hexagon", "angles",
               "forcing", "lines", "render")


class Tracer:
    """Collects spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def open(self, name: str, family=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, family, time.perf_counter_ns(), 0, parent, self.job, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, count=0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[COUNT] = count
        self.stack.pop()

    def timed(self, name: str, fn, family_of=None, count_of=None):
        """``fn`` wrapped in a span.

        ``count_of(args, kwargs, result, idx)`` sets the span's count; ``idx``
        is the span's index, so ``spans[idx + 1:]`` are its descendants.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name, family_of(args, kwargs) if family_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, count_of(args, kwargs, result, idx) if count_of else 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Patches:
    """Rebind module attributes to wrappers, and put the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Deriving metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its direct children cover (ns)."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        layer = span[NAME].split(".", 1)[0]
        if layer in out:
            out[layer] += own * 1e-9
    return out


def totals(spans: list[list], name: str, family=None) -> tuple[int, float, int]:
    """(calls, seconds, summed count) over spans with this name (and family)."""
    calls, ns, count = 0, 0, 0
    for span in spans:
        if span[NAME] == name and (family is None or span[FAMILY] == family):
            calls += 1
            ns += span[END] - span[START]
            count += span[COUNT]
    return calls, ns * 1e-9, count


def per_unit(seconds: float, units: float, scale: float) -> float:
    """``seconds / units`` times ``scale``; 0 when the workload made no call."""
    return seconds / units * scale if units else 0.0


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans of ``passes`` traced passes.

    Counts and self times are per pass of the job list. A metric whose layer
    the workload never calls reads 0.
    """
    m: dict[str, tuple[float, str]] = {}
    passes = max(passes, 1)

    classified = 0
    for fam in FAMILIES:
        for fn in ("black_mask", "boundary_mask"):
            _, sec, pts = totals(spans, f"colorings.{fn}", fam)
            classified += pts
            m[f"colorings.{fn}.ns_per_pt.{fam}"] = (per_unit(sec, pts, 1e9), "ns")
    m["colorings.points_classified"] = (classified / passes, "count")
    for fn in ("color_at", "boundary_distance"):
        for fam in ("zebra", "polygonal"):
            calls, sec, _ = totals(spans, f"colorings.{fn}", fam)
            m[f"colorings.{fn}.us_per_call.{fam}"] = (per_unit(sec, calls, 1e6), "us")
            m[f"colorings.{fn}.calls.{fam}"] = (calls / passes, "count")
    calls, sec, _ = totals(spans, "colorings.check_zebra")
    m["colorings.check_zebra.ms_per_call"] = (per_unit(sec, calls, 1e3), "ms")

    all_placements, all_sec = 0, 0.0
    for kind, fams in (("avoid", ("strip", "zebra", "polygonal")),
                       ("find", ("zebra", "halfplane", "polygonal"))):
        for fam in fams:
            _, sec, placements = totals(spans, f"scan.{kind}", fam)
            m[f"scan.{kind}.placements_per_s.{fam}"] = (
                placements / sec if sec else 0.0, "1/s")
        for fam in FAMILIES:
            _, sec, placements = totals(spans, f"scan.{kind}", fam)
            all_placements += placements
            all_sec += sec
    m["scan.placements_per_s"] = (all_placements / all_sec if all_sec else 0.0, "1/s")
    m["scan.margin_rejects"] = (totals(spans, "scan.margin")[2] / passes, "count")
    calls, sec, queries = totals(spans, "scan.almost")
    m["scan.almost.ms_per_search"] = (per_unit(sec, calls, 1e3), "ms")
    m["scan.almost.color_queries"] = (queries / passes, "count")
    calls, sec, _ = totals(spans, "scan.hexagon")
    m["scan.hexagon.ms_per_probe"] = (per_unit(sec, calls, 1e3), "ms")
    calls, sec, _ = totals(spans, "scan.angle_audit")
    m["scan.angle_audit.ms_per_call"] = (per_unit(sec, calls, 1e3), "ms")

    for part in ("i", "ii"):
        calls, sec, _ = totals(spans, f"forcing.check_{part}")
        m[f"forcing.check.us_per_call.{part}"] = (per_unit(sec, calls, 1e6), "us")
    enumerated = sum(totals(spans, f"forcing.check_{p}")[2] for p in ("i", "ii"))
    m["forcing.colorings_enumerated"] = (enumerated / passes, "count")

    calls, sec, _ = totals(spans, "lines.solve")
    m["lines.solve.us_per_instance"] = (per_unit(sec, calls, 1e6), "us")
    calls, sec, _ = totals(spans, "lines.sweep")
    m["lines.sweep.ms_per_instance"] = (per_unit(sec, calls, 1e3), "ms")

    m["geom.place_triangle.calls"] = (totals(spans, "geom.place_triangle")[0] / passes, "count")
    calls, sec, _ = totals(spans, "geom.circle_polyline_intersections")
    m["geom.circle_polyline_intersections.us_per_call"] = (per_unit(sec, calls, 1e6), "us")

    calls, sec, nbytes = totals(spans, "render.svg")
    m["render.svg.ms_per_figure"] = (per_unit(sec, calls, 1e3), "ms")
    m["render.svg.bytes"] = (nbytes / calls if calls else 0.0, "bytes")

    imports = [(s[END] - s[START]) * 1e-6 for s in spans if s[NAME] == "cli.import"]
    m["cli.import_ms"] = (median(imports), "ms")
    own = self_times(spans)
    overhead = [own[i] * 1e-6 for i, s in enumerate(spans) if s[NAME] == "cli.main"]
    m["cli.overhead_ms"] = (median(overhead), "ms")

    for layer, sec in layer_self_seconds(spans).items():
        m[f"{layer}.self_s"] = (sec / passes, "s")
    return m


# ---------------------------------------------------------------------------
# Wrapping the library
# ---------------------------------------------------------------------------

FAMILY_BY_CLASS = {"StripColoring": "strip", "HalfPlaneColoring": "halfplane",
                   "ZebraColoring": "zebra", "PolygonalColoring": "polygonal"}


def family_of(coloring) -> str:
    if isinstance(coloring, TracedColoring):
        return coloring.family
    return FAMILY_BY_CLASS[type(coloring).__name__]


class TracedColoring:
    """Delegating proxy: times the query methods scans and checkers call.

    Calls a coloring makes on itself go to the wrapped object and are not
    seen, so every span is one call made from outside the colorings layer.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.family = FAMILY_BY_CLASS[type(inner).__name__]

    def _call(self, name: str, count: int, fn, *args, **kwargs):
        idx = self._tracer.open(name, self.family)
        try:
            return fn(*args, **kwargs)
        finally:
            self._tracer.close(idx, count)

    def black_mask(self, xs, ys, *args, **kwargs):
        return self._call("colorings.black_mask", len(xs), self._inner.black_mask,
                          xs, ys, *args, **kwargs)

    def boundary_mask(self, xs, ys, *args, **kwargs):
        return self._call("colorings.boundary_mask", len(xs), self._inner.boundary_mask,
                          xs, ys, *args, **kwargs)

    def color_at(self, p, *args, **kwargs):
        return self._call("colorings.color_at", 1, self._inner.color_at, p, *args, **kwargs)

    def boundary_distance(self, p):
        return self._call("colorings.boundary_distance", 1,
                          self._inner.boundary_distance, p)

    def boundary_segments(self, window):
        return self._call("colorings.boundary_segments", 0,
                          self._inner.boundary_segments, window)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _coloring_arg(args, kwargs):
    return family_of(args[0] if args else kwargs["coloring"])


def _covered_placements(args, kwargs, witness) -> int:
    """Placements a find verdict covers: all of them, or up to the witness."""
    import numpy as np

    grid = args[2] if len(args) > 2 else kwargs["grid"]
    if witness is None:
        return grid.placements()
    xs, ys = grid.xs(), grid.ys()
    k = int(np.flatnonzero(grid.angles() == witness.motion.angle)[0])
    tx, ty = witness.motion.translation
    i = int(np.argmin(np.abs(xs - tx)))
    j = int(np.argmin(np.abs(ys - ty)))
    return (k * len(xs) + i) * len(ys) + j + 1


def instrument_library(tracer: Tracer, patches: Patches) -> dict:
    """Rebind monotri's public entry points to timed wrappers.

    Returns the wrappers by name, so the CLI namespace can be bound to the
    same ones.
    """
    import monotri.colorings as C
    import monotri.forcing as F
    import monotri.lines as L
    import monotri.render as R
    import monotri.scan as S

    spans = tracer.spans
    min_margin = [None]

    def find(fn):
        def run(*args, **kwargs):
            min_margin[0] = kwargs.get("min_margin", args[3] if len(args) > 3 else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                min_margin[0] = None
        return run

    def color_queries(args, kwargs, result, idx):
        return sum(1 if s[NAME] == "colorings.color_at" else s[COUNT]
                   for s in spans[idx + 1:]
                   if s[NAME] in ("colorings.color_at", "colorings.black_mask"))

    def margin_reject(args, kwargs, result, idx):
        return int(min_margin[0] is not None and result < min_margin[0])

    wrappers = {
        "find_monochromatic_copy": tracer.timed(
            "scan.find", find(S.find_monochromatic_copy), _coloring_arg,
            lambda a, k, r, i: _covered_placements(a, k, r)),
        "avoidance_scan": tracer.timed(
            "scan.avoid", S.avoidance_scan, _coloring_arg,
            lambda a, k, r, i: r.placements_tested),
        "verify_witness": tracer.timed("scan.verify", S.verify_witness, _coloring_arg),
        "find_almost_unit": tracer.timed("scan.almost", S.find_almost_unit, _coloring_arg,
                                         color_queries),
        "hexagon_probe": tracer.timed("scan.hexagon", S.hexagon_probe, _coloring_arg),
        "boundary_angle_audit": tracer.timed("scan.angle_audit", S.boundary_angle_audit,
                                             _coloring_arg),
        "margin_of": tracer.timed("scan.margin", S.margin_of, _coloring_arg, margin_reject),
        "place_triangle": tracer.timed("geom.place_triangle", S.place_triangle),
        "circle_polyline_intersections": tracer.timed(
            "geom.circle_polyline_intersections", S.circle_polyline_intersections),
        "forcing_check_i": tracer.timed("forcing.check_i", F.forcing_check_i,
                                        count_of=lambda a, k, r, i: r.tested_colorings),
        "forcing_check_ii": tracer.timed("forcing.check_ii", F.forcing_check_ii,
                                         count_of=lambda a, k, r, i: r.tested_colorings),
        "solve_unit_triangles": tracer.timed("lines.solve", L.solve_unit_triangles),
        "sweep_oracle": tracer.timed("lines.sweep", L.sweep_oracle),
        "check_zebra_conditions": tracer.timed("colorings.check_zebra",
                                               C.check_zebra_conditions),
        "render_svg": tracer.timed("render.svg", R.render_svg,
                                   count_of=lambda a, k, r, i: len(r.encode("utf-8"))),
    }
    for module in (S, F, L, C, R):
        for name, wrapper in wrappers.items():
            if name in vars(module):
                patches.set(module, name, wrapper)
    return wrappers
