"""Smoke test of the benchmark: every workload at its tiny size.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

For each workload: every metric BENCHMARK.json names is reported, no job
fails, a second run of the seed repeats the result digest, a traced run
repeats it too, and a second seed gives the same verdicts. Without monotri
sources next to it the benchmark exits non-zero and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, trace: int, root: str = ROOT):
    """(result object, digest, verdicts) of one tiny run; None on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False)
    if proc.returncode != 0:
        return proc, None, None
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].rsplit("digest=", 1)[1]
    verdicts = lines[1].split("verdicts=", 1)[1]
    return json.loads(lines[-1]), digest, verdicts


def test_every_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first, digest, verdicts = bench(workload, 1, 0)
        assert digest is not None, f"{workload}: {first.stderr[-2000:]}"
        assert set(first["metrics"]) == end_to_end, workload
        assert first["failed"] == 0 and first["correct"], workload
        assert all(m["value"] > 0 for m in first["metrics"].values()), workload

        again, digest_again, _ = bench(workload, 1, 0)
        assert digest_again == digest, f"{workload}: digest differs for one seed"

        traced, digest_traced, _ = bench(workload, 1, 1)
        assert digest_traced == digest, f"{workload}: tracing changed the results"
        assert set(traced["metrics"]) == per_layer, workload
        assert traced["failed"] == 0, workload

        other, _, verdicts_other = bench(workload, 2, 0)
        assert other["failed"] == 0, workload
        assert verdicts_other == verdicts, f"{workload}: verdicts differ across seeds"


def test_refuses_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, digest, _ = bench("checks", 1, 0, root=bare)
        assert digest is None and proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload()
    test_refuses_without_sources()
    print("perfbench smoke test: ok")
