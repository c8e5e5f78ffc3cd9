"""monotri benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload scan-exhaust --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it benchmarks the monotri sources in
the checkout's ``src/``. Each run starts fresh worker processes, one at a
time: two that only set up, one that sets up and measures, and two more
that only set up. ``setup_s`` is the fastest set-up time of the five; the
set-up workers take turns on the CPUs this process may use.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. The lines before it name the result
digest, which repeats byte for byte for a fixed seed, and the verdicts.
Without a monotri source tree the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan-exhaust", "scan-witness", "checks", "cli")
SETUP_SAMPLES = 5


def worker(args, mode: str, cpu=None) -> dict:
    """Run worker.py to completion; a set-up worker runs on CPU ``cpu`` only."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--mode", mode]
    cpus = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # inherited by the worker
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, check=False,
                              timeout=60 if mode == "setup" else 60 + 2 * args.seconds)
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with status {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a job list of one job per kind, for the smoke test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "monotri", "__init__.py")):
        print(f"perfbench: no monotri sources under {ROOT}/src", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # set-up samples before and after the measured run, on each CPU in
        # turn, so that one slow spell of one CPU does not cover all of them
        setups = [worker(args, "setup", cpus[k % len(cpus)])["setup_s"]
                  for k in range(SETUP_SAMPLES // 2)]
        run = worker(args, "run")
        setups += [worker(args, "setup", cpus[k % len(cpus)])["setup_s"]
                   for k in range(SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    if args.trace:
        metrics = run["layer"]
    else:
        metrics = dict(run["end_to_end"], setup_s=(min(setups), "s"))

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={run['passes']} jobs={run['attempted']} digest={run['digest']}")
    print(f"perfbench: verdicts={','.join(run['verdicts'])}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"perfbench:   {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
