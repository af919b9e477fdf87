"""Median time and minor page faults per steady-state Q-operator.

    python tools/q_faults.py [--sites N ...] [--seed SEED] [--calls K] [--src SRC]

For each N, draws `sample_params(N, SEED, tol=1e-10)`, evaluates one
`chain.q_operator` to warm up, then K more at distinct points z_i =
0.83 + 0.21j + 0.01 i, and prints the median wall time of one call and the
median number of minor page faults it took (`ru_minflt` of this process before
and after the call).  SRC, when given, is put first on the import path, so the
`src/` of another checkout can be measured the same way.  Run it with one BLAS
thread (OPENBLAS_NUM_THREADS=1) for comparable numbers.  Needs only the
standard library and numpy.
"""

import argparse
import resource
import statistics
import sys
import time


def measure(chain, n_sites, seed, calls):
    """(median seconds, median minor faults) of `calls` steady-state Q at n_sites."""
    params = chain.sample_params(n_sites, seed, tol=1e-10)
    chain.q_operator(0.83 + 0.21j, params)
    times, faults = [], []
    for i in range(calls):
        z = 0.83 + 0.21j + 0.01 * (i + 1)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        chain.q_operator(z, params)
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return statistics.median(times), statistics.median(faults), params.cutoff


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sites", type=int, nargs="+", default=[5])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--calls", type=int, default=20)
    ap.add_argument("--src", help="directory holding the qbaxter package to measure")
    a = ap.parse_args(argv)
    if a.src:
        sys.path.insert(0, a.src)
    from qbaxter import chain
    for n in a.sites:
        seconds, faults, cutoff = measure(chain, n, a.seed, a.calls)
        print(f"N={n} seed={a.seed} J={cutoff}: {seconds * 1e3:.3f} ms, {faults:g} minor "
              f"faults per Q (median of {a.calls})", flush=True)


if __name__ == "__main__":
    main()
