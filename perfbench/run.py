"""Benchmark of qbaxter: three workloads, timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

NAME is q-scan, bethe-pipeline or battery (see README.md). Each run starts the
workload in fresh worker processes: two that only set up, and one that sets up
and then runs the timed body for about S seconds. The package is read from
src/ beside this directory, with one BLAS thread.

Output: a provenance line, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end metrics
and --trace 1 the per-layer metrics. --smoke runs every workload at reduced
size, both ways, and checks the metric names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("q-scan", "bethe-pipeline", "battery")
BLAS_THREADS = "1"
# set-up samples per run; setup_s is their median
SETUPS = 3
# one run must end within 180 s
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "q_eval_p50_s": "s",
              "peak_rss_mb": "MB", "ops_passed_frac": "ratio"}
PER_LAYER = {name: unit for name, unit, _ in spans.PER_LAYER}


class BenchError(Exception):
    """The benchmark could not run or measure a workload."""


def worker(args, deadline):
    """Start worker.py, wait for it, and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-ns", str(time.monotonic_ns())]
    # own process group, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the deadline") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{stderr}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, smoke=False):
    """(provenance, result) of one workload run."""
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setups = [worker(args + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
    res = worker(args, deadline)
    setups.append(res["setup_s"])

    if trace:
        values, units = res["layers"], PER_LAYER
    else:
        values, units = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["unit_times"]),
            "q_eval_p50_s": statistics.median(res["q_times"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ops_passed_frac": 1.0 - res["ops_failed"] / res["ops"],
        }, END_TO_END
    provenance = dict(res["provenance"], setup_samples=setups, unit_times=res["unit_times"],
                      q_eval_samples=len(res["q_times"]), ops=res["ops"],
                      ops_failed=res["ops_failed"],
                      ops_failed_frac=res["ops_failed"] / res["ops"],
                      theorem_failures=res["theorem_failures"], notes=res["notes"],
                      absent_spans=res["absent"])
    result = {"correct": res["correct"], "attempted": res["requests"],
              "failed": res["requests_failed"],
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return provenance, result


def smoke():
    """Every workload at reduced size, untraced and traced; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json lists other workloads than run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            _, result = run_workload(name, seed=1, seconds=1, trace=trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                raise BenchError(f"{name} --trace {trace}: metrics {got} != {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise BenchError(f"{name} --trace {trace}: {json.dumps(result)}")
            print(f"smoke {name} --trace {trace}: {len(got)} metrics, units match", flush=True)
    print("smoke ok")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "qbaxter" / "__init__.py").is_file():
        print(f"error: no qbaxter package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if a.smoke:
            smoke()
            return 0
        if a.workload is None:
            ap.error("--workload is required unless --smoke is given")
        names = WORKLOADS if a.workload == "all" else (a.workload,)
        for name in names:
            provenance, result = run_workload(name, a.seed, a.seconds, a.trace)
            print(json.dumps({"provenance": provenance}))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
