"""Run every workload and record the numbers in perfbench/BASELINE.json.

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 [--write]

For each workload: one untraced run per seed, then one traced run on the
first seed. Prints every end-to-end metric by name and unit with its median
over the seeds and the quartile spread (interquartile range over median),
then the tracing overhead. ``--write`` stores the machine facts, those
numbers, each workload's reason and the map from layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric, on which workload, each layer metric should move.
# The job counts in jobs.py put the median and 90th-percentile jobs where
# these say.
LAYER_TO_END_TO_END = {
    "colorings.black_mask.ns_per_pt.zebra":
        "wall_s, job_p50_ms, job_p90_ms on scan-exhaust; job_p50_ms on scan-witness",
    "colorings.boundary_mask.ns_per_pt.zebra": "wall_s, job_p90_ms on scan-exhaust",
    "colorings.{black,boundary}_mask.ns_per_pt.strip": "wall_s on scan-exhaust",
    "colorings.{black,boundary}_mask.ns_per_pt.polygonal": "wall_s, job_p90_ms on scan-witness",
    "colorings.{black,boundary}_mask.ns_per_pt.halfplane": "wall_s on scan-witness",
    "colorings.points_classified": "wall_s on scan-exhaust and scan-witness",
    "colorings.color_at.*": "wall_s on scan-witness and checks",
    "colorings.boundary_distance.*": "wall_s, job_p50_ms on scan-witness",
    "colorings.check_zebra.ms_per_call": "wall_s on checks",
    "scan.avoid.placements_per_s.*": "wall_s, job_p90_ms on scan-exhaust and scan-witness",
    "scan.find.placements_per_s.*": "wall_s, job_p50_ms on scan-exhaust and scan-witness",
    "scan.placements_per_s": "wall_s on scan-exhaust and scan-witness",
    "scan.self_s": "wall_s on scan-exhaust and scan-witness",
    "scan.margin_rejects": "wall_s, job_p50_ms on scan-witness",
    "scan.peak_alloc_mb": "peak_rss_mb on scan-exhaust",
    "scan.hexagon.ms_per_probe": "job_p90_ms, wall_s on checks",
    "scan.almost.*, scan.angle_audit.ms_per_call": "wall_s on checks",
    "forcing.*": "job_p50_ms, wall_s on checks",
    "lines.*": "wall_s on checks",
    "geom.place_triangle.calls": "wall_s on scan-exhaust and scan-witness",
    "geom.circle_polyline_intersections.us_per_call": "job_p90_ms on checks",
    "render.svg.*": "job_p90_ms on cli",
    "cli.import_ms": "setup_s on every workload; job_p50_ms, job_p90_ms on cli",
    "cli.subcommand_ms.*": "job_p50_ms on cli (render: job_p90_ms)",
    "cli.overhead_ms": "job_p50_ms on cli",
    "<layer>.self_s": "wall_s on the workloads that call the layer",
    "trace.overhead_*": "none: the cost of tracing itself",
}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = lines[0].rsplit("digest=", 1)[1]
    return result


def machine() -> dict:
    import numpy

    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_at_start": list(os.getloadavg())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--write", action="store_true", help="write perfbench/BASELINE.json")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "workloads": {}, "layer_to_end_to_end": LAYER_TO_END_TO_END}

    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = bench(name, seeds[0], spec["run_seconds"], 1)
        entry = {"why": w["why"], "end_to_end": {}, "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "digest_seed_%d" % seeds[0]: runs[0]["digest"],
                 "traced_digest_matches": traced["digest"] == runs[0]["digest"],
                 "per_layer_seed_%d" % seeds[0]: {k: v["value"] for k, v in
                                                  sorted(traced["metrics"].items())}}
        print(f"{name}: {entry['attempted']} jobs, {entry['failed']} failed")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                spread = (q[2] - q[0]) / median
            entry["end_to_end"][metric["name"]] = {"median": median, "unit": metric["unit"],
                                                   "iqr_over_median": spread,
                                                   "values": values}
            print(f"  {metric['name']} = {median:.6g} {metric['unit']}"
                  + (f"  (spread {spread:.3f}, bound {metric['bound']})" if spread is not None
                     else ""))
        overhead = traced["metrics"]["trace.overhead_frac"]["value"]
        entry["trace_overhead_frac"] = overhead
        print(f"  tracing overhead: {overhead:+.3f} of untraced pass time")
        doc["workloads"][name] = entry

    if args.write:
        with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
