"""One benchmark workload in one fresh process: set-up, warm-up, then the timed body.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               --spawned-ns T [--setup-only] [--smoke]

run.py starts it with PYTHONPATH=src and BLAS pinned to one thread. T is the
CLOCK_MONOTONIC reading, in ns, taken just before the process was spawned, so
setup_s runs from process start through `import qbaxter`, parameter
construction and one untimed warm-up Q call. The last stdout line is one JSON
object; run.py turns it into metrics.

Operations, as ops_passed_frac counts them: each correctness gate and each
theorem-backed check in a CLI report. Requests, as `attempted` and `failed`
count them: each TQ triple in q-scan and each CLI invocation; a request fails
when it raises, or when the CLI exits with a code other than 0 or 1.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
TOL = 1e-10
OPEN_TQ_GATE = 1e-8
CLOSED_TQ_GATE = 1e-9
CLI_TIMEOUT_S = 150

# q-scan: library calls on the ROADMAP baseline draw (J = 40, tail ratio 0.42)
Q_SCAN = {"n_sites": 5, "params_seed": 3}
# CLI workloads: sites, suites, and the seeds of the configurations in one pass
CLI = {
    "bethe-pipeline": {"n_sites": 4, "suites": ("spectrum", "bethe"), "seeds": (3, 11)},
    "battery": {"n_sites": 3, "suites": ("all",), "seeds": (1, 2, 3, 4)},
}
# reduced sizes for the smoke mode
SMOKE = {"q-scan": {"n_sites": 3},
         "bethe-pipeline": {"n_sites": 2},
         "battery": {"n_sites": 2, "seeds": (1,)}}
# repeated reports of one configuration must be identical apart from the timestamp
DETERMINISM_SITES = 2


def tq_point(rng, params, chain):
    """Random z with z, qz and z/q clear of the exclusion set and of 1 - q^2 z^4 = 0."""
    q = params.q
    for _ in range(300):
        z = (0.55 + 0.7 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if abs(1.0 - q * q * z ** 4) < 0.05:
            continue
        if not any(chain.in_exclusion_set(w, params) for w in (z, q * z, z / q)):
            return z
    raise RuntimeError("no spectral point clear of the exclusion set")


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))


def digest(params):
    """Short hash of the sampled parameters, for provenance."""
    fields = (params.q, params.xi, params.xitilde, params.zeta, params.t,
              params.n_sites, params.cutoff, params.tol)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def describe(params, seed):
    return {"seed": seed, "n_sites": params.n_sites, "cutoff_J": params.cutoff,
            "tol": params.tol, "tail_ratio": params.tail_ratio, "params_digest": digest(params)}


def timed_loop(seconds, unit, min_units):
    """Run unit(i) until another unit of median length would pass `seconds`."""
    start = time.perf_counter()
    times = []
    while True:
        times.append(unit(len(times)))
        elapsed = time.perf_counter() - start
        if len(times) >= min_units and elapsed + statistics.median(times) > seconds:
            return times


class Result:
    """What the body measured; serialized as the worker's output."""

    def __init__(self):
        self.unit_times = []
        self.q_times = []
        self.ops = 0
        self.ops_failed = 0
        self.requests = 0
        self.requests_failed = 0
        self.correct = True
        self.notes = []
        self.layers = None
        self.absent = []
        self.theorem_failures = []
        self.peak_rss_kib = 0

    def op(self, passed):
        self.ops += 1
        self.ops_failed += not passed


# ---------------------------------------------------------------------------
# q-scan: open and closed TQ relations at N = 5, in this process
# ---------------------------------------------------------------------------

def q_scan_setup(seed, smoke):
    from qbaxter import chain, sample_params
    params = sample_params(SMOKE["q-scan"]["n_sites"] if smoke else Q_SCAN["n_sites"],
                           seed=Q_SCAN["params_seed"], tol=TOL)
    rng = np.random.default_rng(seed)
    chain.q_operator(tq_point(rng, params, chain), params)
    return {"params": params, "rng": rng,
            "provenance": {"configs": [describe(params, Q_SCAN["params_seed"])]}}


def q_scan_triple(z, params, chain, q_times):
    """Evaluate open and closed Q at (z, qz, z/q); returns the two TQ residuals."""
    q = params.q
    points = (z, q * z, z / q)
    qs = []
    for w in points:
        t0 = time.perf_counter()
        qs.append(chain.q_operator(w, params))
        q_times.append(time.perf_counter() - t0)
    lhs = (1.0 - q * q * z ** 4) * chain.transfer_v(z, params) @ qs[0]
    rhs = chain.p_plus(z, params) * qs[1] + chain.p_minus(z, params) * qs[2]
    open_res = rel_err(lhs, rhs)
    cq = [chain.closed_q(w, params) for w in points]
    lhs = chain.closed_transfer_v(z, params) @ cq[0]
    rhs = chain.closed_p_plus(z, params) * cq[1] + chain.closed_p_minus(z, params) * cq[2]
    return open_res, rel_err(lhs, rhs)


def q_scan_body(state, seconds, trace, out):
    mods = spans.import_package()
    chain, errors = mods["chain"], mods["errors"]
    params, rng = state["params"], state["rng"]
    recorder = spans.Recorder() if trace else None
    traced, untraced = [], []

    def unit(i):
        z = tq_point(rng, params, chain)
        tracing = trace and i % 2 == 1
        if tracing:
            recorder.install(mods)
        # q_eval_p50_s comes from untraced calls only
        q_times = [] if tracing else out.q_times
        out.requests += 1
        t0 = time.perf_counter()
        try:
            residuals = q_scan_triple(z, params, chain, q_times)
        except errors.QBaxterError as exc:
            out.requests_failed += 1
            out.notes.append(f"z={z:.6f}: {type(exc).__name__}: {exc}")
            residuals = (math.inf, math.inf)
        finally:
            dt = time.perf_counter() - t0
            if tracing:
                recorder.uninstall()
        for res, gate, kind in zip(residuals, (OPEN_TQ_GATE, CLOSED_TQ_GATE), ("open", "closed")):
            out.op(res < gate)
            if math.isfinite(res) and not res < gate:
                out.correct = False
                out.notes.append(f"{kind} TQ residual {res:.3e} >= {gate:.0e} at z={z:.6f}")
        (traced if tracing else untraced).append(dt)
        return dt

    timed_loop(seconds, unit, 2 if trace else 1)
    out.unit_times = untraced
    if trace:
        wall = statistics.median(traced)
        out.layers = spans.layer_metrics(spans.totals(recorder.spans), len(traced), wall)
        out.layers["trace.overhead_frac"] = wall / statistics.median(untraced) - 1.0
        out.absent = recorder.absent


# ---------------------------------------------------------------------------
# CLI workloads: `python -m qbaxter.cli` runs, one process per configuration
# ---------------------------------------------------------------------------

def cli_setup(workload, seed, smoke):
    from qbaxter import chain, sample_params
    spec = dict(CLI[workload], **(SMOKE[workload] if smoke else {}))
    configs = [sample_params(spec["n_sites"], s, tol=TOL) for s in spec["seeds"]]
    rng = np.random.default_rng(seed)
    chain.q_operator(tq_point(rng, configs[0], chain), configs[0])
    order = [int(i) for i in rng.permutation(len(configs))]
    return {"spec": spec, "order": order,
            "provenance": {"configs": [describe(p, s) for p, s in zip(configs, spec["seeds"])],
                           "pass_order": [spec["seeds"][i] for i in order]}}


class CliRunner:
    """Runs the CLI through clirun.py and checks each report."""

    def __init__(self, tmp, suites, out):
        self.tmp = tmp
        self.suites = suites
        self.out = out
        self.count = 0

    def invoke(self, n_sites, seed, mode):
        """One CLI run; returns (seconds, report or None, spans file contents or None)."""
        self.count += 1
        tag = self.tmp / f"run{self.count}"
        config = tag.with_suffix(".config.json")
        config.write_text(json.dumps({"params": {"n_sites": n_sites}}))
        report = tag.with_suffix(".report.json")
        spans_out = tag.with_suffix(".spans.json")
        args = ["--config", str(config), "--seed", str(seed), "--tol", repr(TOL),
                "--out", str(report), "--quiet"]
        for s in self.suites:
            args += ["--suite", s]
        cmd = [sys.executable, str(HERE / "clirun.py"), mode, str(spans_out), "--", *args]
        self.out.requests += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._failed(n_sites, seed, "timed out")
        dt = time.perf_counter() - t0
        if proc.returncode not in (0, 1) or not report.exists():
            return self._failed(n_sites, seed, f"exit {proc.returncode}: {proc.stderr[-400:]}")
        data = json.loads(report.read_text())
        self._check(proc.returncode, data, n_sites, seed)
        spans_file = json.loads(spans_out.read_text())
        self.out.peak_rss_kib = max(self.out.peak_rss_kib, spans_file["peak_rss_kib"])
        return dt, data, spans_file

    def _failed(self, n_sites, seed, why):
        self.out.requests_failed += 1
        self.out.op(False)
        self.out.notes.append(f"N={n_sites} seed={seed}: {why}")
        return None, None, None

    def _check(self, code, report, n_sites, seed):
        """Count each theorem-backed check, and gate the report's own consistency."""
        checks = report["checks"]
        failures = []
        consistent = True
        for c in checks:
            consistent &= c["passed"] == (c["residual"] < c["tolerance"])
            if not c["conjecture"]:
                self.out.op(c["passed"])
                if not c["passed"]:
                    failures.append(c["name"])
        summary = report["summary"]
        consistent &= (summary["theorem_failures"] == failures
                       and summary["total"] == len(checks)
                       and (code == 1) == bool(failures))
        self.out.op(consistent)
        if not consistent:
            self.out.correct = False
            self.out.notes.append(f"N={n_sites} seed={seed}: report inconsistent with exit {code}")
        self.out.theorem_failures += [f"N={n_sites} seed={seed}: {name}" for name in failures]


def cli_body(workload, state, seconds, trace, out):
    spec, order = state["spec"], state["order"]
    n, seeds = spec["n_sites"], spec["seeds"]
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        runner = CliRunner(tmp, spec["suites"], out)
        tot, absent = {}, []
        reference = None
        if trace:
            # untraced run of the first configuration, for trace.overhead_frac
            reference, _, _ = runner.invoke(n, seeds[order[0]], "time")
        first_traced = []

        def unit(i):
            total = 0.0
            for k, idx in enumerate(order):
                dt, _, spans_file = runner.invoke(n, seeds[idx], "trace" if trace else "time")
                if dt is None:
                    continue
                total += dt
                if trace:
                    spans.merge(tot, spans.totals(spans_file["spans"]))
                    absent[:] = spans_file["absent"]
                    if k == 0:
                        first_traced.append(dt)
                else:
                    out.q_times += [end - start for name, start, end, *_ in spans_file["spans"]
                                    if name == "chain.q_operator"]
            return total

        times = timed_loop(seconds, unit, 1)
        if trace:
            wall = statistics.median(times)
            out.layers = spans.layer_metrics(tot, len(times), wall)
            out.layers["trace.overhead_frac"] = (
                statistics.median(first_traced) / reference - 1.0
                if reference and first_traced else 0.0)
            out.absent = absent
        else:
            out.unit_times = times
        # determinism gate on a small configuration of the same suites
        reports = [runner.invoke(DETERMINISM_SITES, seeds[0], "time")[1] for _ in range(2)]
        for r in reports:
            if r is not None:
                r.pop("timestamp")
        same = reports[0] is not None and reports[0] == reports[1]
        out.op(same)
        if not same:
            out.correct = False
            out.notes.append(f"reports of N={DETERMINISM_SITES} seed={seeds[0]} differ between runs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it


# ---------------------------------------------------------------------------

def versions():
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["q-scan", *CLI])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)

    if a.workload == "q-scan":
        state = q_scan_setup(a.seed, a.smoke)
    else:
        state = cli_setup(a.workload, a.seed, a.smoke)
    setup_s = (time.monotonic_ns() - a.spawned_ns) / 1e9
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Result()
    if a.workload == "q-scan":
        q_scan_body(state, a.seconds, a.trace, out)
    else:
        cli_body(a.workload, state, a.seconds, a.trace, out)
    # the program runs in this process (q-scan) or in the CLI processes it started
    rss_kib = spans.peak_rss_kib() if a.workload == "q-scan" else out.peak_rss_kib
    provenance = {"workload": a.workload, "workload_seed": a.seed, "smoke": a.smoke,
                  **state["provenance"], **versions()}
    print(json.dumps({**vars(out), "setup_s": setup_s, "peak_rss_mb": rss_kib / 1024,
                      "provenance": provenance}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
