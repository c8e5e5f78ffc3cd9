"""One workload in one fresh process: set up, run passes of the job list, report.

Run by ``run.py``; prints one JSON object on stdout. ``--mode setup`` stops
after set-up (import monotri and build the inputs) and reports its time.

A pass runs every job of the seeded job list once, one at a time. Passes
repeat until ``--seconds`` have gone by (and, for ``cli``, at least
``MIN_CLI_JOBS`` jobs ran). Every job of every pass is checked against the
verdict its construction implies and against its own first-pass result.
Timings use each job's fastest pass: ``wall_s`` sums them over the job
list, ``job_p50_ms`` and ``job_p90_ms`` are percentiles over the job list.

With ``--trace 1`` the time is split: untraced passes first, then one pass
with ``tracemalloc`` around each scan, then traced passes that record spans.
Per-layer times of layers the workload never calls come from one traced
pass of the other workloads' tiny job lists (``fill_unexercised``).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_CLI_JOBS = 100
TIME_UNITS = ("ns", "us", "ms", "s", "1/s")


def _identity(coloring):
    return coloring


class Pass:
    """Outcome of one pass of the job list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.docs: list[str] = []
        self.failed: list[str] = []


def run_pass(jobs, execute, tracer=None, memory=None) -> Pass:
    out = Pass()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
            span = tracer.open("bench.job")
        if memory is not None and job.name.startswith(("avoid/", "find/")):
            tracemalloc.start()
        t = time.perf_counter()
        try:
            ok, verdict, doc = execute(job)
        except Exception as exc:  # a job that raises is a failed job
            ok, verdict, doc = False, "raised", {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - t
        if tracemalloc.is_tracing():
            memory.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if tracer is not None:
            tracer.close(span)
        out.latencies.append(elapsed)
        out.docs.append(json.dumps([job.name, job.inputs, verdict, doc], sort_keys=True))
        if not ok:
            out.failed.append(f"{job.name}#{idx}: {out.docs[-1][:300]}")
    return out


def run_passes(jobs, execute, seconds, min_jobs, first, tracer=None) -> list[Pass]:
    """Passes until ``seconds`` are used up; a job whose result differs from
    ``first`` (the first pass) fails.

    Successive passes run on successive CPUs of this process's affinity set.
    Other tenants of the machine slow each CPU down, independently, for up
    to a minute at a time; taking turns gives every job samples on each CPU
    (see ``best_times``). Jobs still run one at a time.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or \
            sum(len(p.latencies) for p in passes) < min_jobs:
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        p = run_pass(jobs, execute, tracer)
        if first is None:
            first = p
        for idx, (doc, ref) in enumerate(zip(p.docs, first.docs)):
            if doc != ref:
                p.failed.append(f"{jobs[idx].name}#{idx}: result differs from the first pass")
        if p is not first:
            p.docs = []  # compared; keeping them would grow the process with the run
        passes.append(p)
    os.sched_setaffinity(0, cpus)
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import monotri

    if os.path.dirname(os.path.abspath(monotri.__file__)) != os.path.join(SRC, "monotri"):
        print(f"perfbench: monotri imported from {monotri.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import jobs as J
    import tracing

    tiny = args.size == "tiny"
    rng = J.rng_for(args.workload, args.seed)
    workdir = None
    if args.workload == "cli":
        workdir = os.path.join(HERE, "out", f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        job_list = J.cli(rng, tiny, workdir)
    else:
        job_list = J.JOB_LISTS[args.workload](rng, tiny)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        if workdir:
            shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        result = measure(args, job_list, workdir, tracing)
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(args, job_list, workdir, tracing) -> dict:
    import jobs as J

    min_jobs = 0
    if args.workload == "cli":
        env = dict(os.environ, PYTHONPATH=SRC)
        min_jobs = MIN_CLI_JOBS if args.size == "full" else 0

        def execute(job):
            return J.run_cli(job, [sys.executable, "-m", "monotri.cli"], env, workdir)
    else:
        def execute(job):
            return job.run(_identity)

    if not args.trace:
        passes = run_passes(job_list, execute, args.seconds, min_jobs, None)
        return summary(passes, args.workload)

    # untraced, then memory, then traced passes; the two timed phases get
    # equal time, since the fastest of more passes reads lower
    untraced = run_passes(job_list, execute, 0.45 * args.seconds, 0, None)
    tracer = tracing.Tracer()
    memory: list[int] = []
    if args.workload == "cli":
        traced_passes = run_passes(job_list, traced_cli(tracer, tracing, workdir),
                                   0.45 * args.seconds, 0, untraced[0], tracer)
    else:
        run_pass(job_list, execute, memory=memory)
        patches = tracing.Patches()
        tracing.instrument_library(tracer, patches)
        try:
            traced_passes = run_passes(job_list, traced_in_process(tracer, tracing),
                                       0.45 * args.seconds, 0, untraced[0], tracer)
        finally:
            patches.undo()
    spans_file = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans_file), exist_ok=True)
    tracer.dump(spans_file)

    result = summary(untraced + traced_passes, args.workload)
    layer = tracing.layer_metrics(tracer.spans, len(traced_passes))
    wall_untraced = sum(best_times(untraced))
    wall_traced = sum(best_times(traced_passes))
    layer["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    layer["trace.overhead_frac"] = ((wall_traced - wall_untraced) / wall_untraced, "ratio")
    layer["scan.peak_alloc_mb"] = (max(memory, default=0) / 2 ** 20, "MB")
    cli_jobs = job_list if args.workload == "cli" else []
    layer.update(subcommand_ms(cli_jobs, best_times(untraced), tracing))
    fill_unexercised(args, layer, tracing)
    result["layer"] = layer
    result["spans_file"] = os.path.relpath(spans_file, ROOT)
    return result


def traced_in_process(tracer, tracing):
    return lambda job: job.run(lambda c: tracing.TracedColoring(c, tracer))


def traced_cli(tracer, tracing, workdir):
    """Run cli jobs through the shim; its spans go under the job's span."""
    import jobs as J

    spans_path = os.path.join(workdir, "spans.jsonl")
    env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_SPANS=spans_path)
    command = [sys.executable, os.path.join(HERE, "cli_shim.py")]

    def execute(job):
        outcome = J.run_cli(job, command, env, workdir)
        base, parent = len(tracer.spans), tracer.stack[-1]
        with open(spans_path, "r", encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span[tracing.PARENT] = parent if span[tracing.PARENT] < 0 \
                    else span[tracing.PARENT] + base
                span[tracing.JOB] = tracer.job
                tracer.spans.append(span)
        return outcome
    return execute


def subcommand_ms(cli_jobs, times, tracing) -> dict:
    """Median time of each subcommand's jobs; 0 for one with no job."""
    return {f"cli.subcommand_ms.{name}": (tracing.median(
        [t * 1e3 for job, t in zip(cli_jobs, times) if job.name == name]), "ms")
        for name in tracing.SUBCOMMANDS}


def fill_unexercised(args, layer, tracing) -> None:
    """Give the time metrics of layers this workload never calls a value.

    They come from one traced pass of every other workload's tiny job list,
    so that no per-layer time reads a constant 0. Counts stay as they are.
    """
    missing = [name for name, (value, unit) in layer.items()
               if value == 0 and unit in TIME_UNITS]
    if not missing:
        return
    import jobs as J

    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracing.instrument_library(tracer, patches)
    try:
        for workload, build in J.JOB_LISTS.items():
            if workload != args.workload:
                run_pass(build(J.rng_for(workload, args.seed), True),
                         traced_in_process(tracer, tracing), tracer)
    finally:
        patches.undo()
    other = {}
    if args.workload != "cli":
        workdir = os.path.join(HERE, "out", f"cli-{os.getpid()}-fill")
        os.makedirs(workdir, exist_ok=True)
        try:
            cli_jobs = J.cli(J.rng_for("cli", args.seed), True, workdir)
            p = run_pass(cli_jobs, traced_cli(tracer, tracing, workdir), tracer)
            other = subcommand_ms(cli_jobs, p.latencies, tracing)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    other.update(tracing.layer_metrics(tracer.spans, 1))
    for name in missing:
        layer[name] = other[name]


def best_times(passes) -> list[float]:
    """Each job's fastest time over the passes, in job-list order (seconds).

    Other tenants of the machine slow a CPU down by up to 1.7x for seconds to
    a minute at a time; the fastest of many passes, spread over the CPUs,
    tracks the cost of the program rather than theirs.
    """
    return [min(ts) for ts in zip(*(p.latencies for p in passes))]


def summary(passes, workload) -> dict:
    first = passes[0]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli"
                               else resource.RUSAGE_SELF)
    failures = [f for p in passes for f in p.failed]
    for line in failures[:5]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    best_ms = [t * 1e3 for t in best_times(passes)]
    return {
        "passes": len(passes),
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(len({f.split(":", 1)[0] for f in p.failed}) for p in passes),
        "digest": hashlib.sha256("\n".join(first.docs).encode("utf-8")).hexdigest(),
        "verdicts": sorted({json.loads(d)[2] for d in first.docs}),
        "end_to_end": {
            "wall_s": (sum(best_ms) / 1e3, "s"),
            "job_p50_ms": (statistics.median(best_ms), "ms"),
            "job_p90_ms": (statistics.quantiles(best_ms, n=10, method="inclusive")[8]
                           if len(best_ms) > 1 else best_ms[0], "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        },
    }


if __name__ == "__main__":
    sys.exit(main())
