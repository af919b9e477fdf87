"""Time the row functions of two source trees against each other in one process.

    python tools/q_ab.py PARENT_SRC CHANGE_SRC [--sites N] [--seed SEED]
                         [--rounds R] [--calls K] [--functions NAME ...]

PARENT_SRC and CHANGE_SRC are directories that hold the `qbaxter` package
(the `src/` of two checkouts).  The package of each is copied into a
temporary directory as `qbaxter_parent` and `qbaxter_change` and both are
imported, so they share one process, one allocator and one BLAS.  For each
function (by default the four row functions `chain.q_operator`,
`chain.closed_q`, `chain.transfer_v` and `chain.closed_transfer_v`) at
`sample_params(N, SEED, tol=1e-10)`, one warm-up call per tree is followed by
R rounds; a round times K calls of the function at the
points z_i = 0.83 + 0.21j + 0.001 i, i < K, in one tree and then in the other,
the tree that goes first alternating from round to round.  One line per
function gives each tree's median time and median minor page faults per call
(`ru_minflt` of this process before and after the call) over all its timed
calls, the change in time in %, and in how many rounds the change's mean time
was lower.  Run it with one BLAS thread (OPENBLAS_NUM_THREADS=1) for comparable
numbers.  Needs only the standard library and numpy.
"""

import argparse
import importlib
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time

FUNCTIONS = ("q_operator", "closed_q", "transfer_v", "closed_transfer_v")
TREES = ("parent", "change")


def load(srcs, tmp):
    """The `chain` module of each source tree, imported under a name of its own."""
    sys.path.insert(0, str(tmp))
    chains = {}
    for tree, src in zip(TREES, srcs):
        package = pathlib.Path(src) / "qbaxter"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"no qbaxter package under {src}")
        shutil.copytree(package, pathlib.Path(tmp) / f"qbaxter_{tree}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        chains[tree] = importlib.import_module(f"qbaxter_{tree}.chain")
    return chains


def compare(chains, name, n_sites, seed, rounds, calls):
    """Per tree, the time and the minor page faults of every timed call, and the
    rounds the change won."""
    points = [0.83 + 0.21j + 0.001 * i for i in range(calls)]
    runs = {}
    for tree, chain in chains.items():
        params = chain.sample_params(n_sites, seed, tol=1e-10)
        function = getattr(chain, name)
        function(points[0], params)
        runs[tree] = (function, params)
    times, faults = {tree: [] for tree in TREES}, {tree: [] for tree in TREES}
    won = 0
    for i in range(rounds):
        means = {}
        for tree in TREES[::1 if i % 2 == 0 else -1]:
            function, params = runs[tree]
            for z in points:
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                function(z, params)
                times[tree].append(time.perf_counter() - t0)
                faults[tree].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            means[tree] = statistics.fmean(times[tree][-calls:])
        won += means["change"] < means["parent"]
    return times, faults, won


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--sites", type=int, default=5)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--calls", type=int, default=50)
    ap.add_argument("--functions", nargs="+", choices=FUNCTIONS, default=list(FUNCTIONS))
    a = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        chains = load((a.parent_src, a.change_src), tmp)
        for name in a.functions:
            times, faults, won = compare(chains, name, a.sites, a.seed, a.rounds, a.calls)
            (parent, change), (f_parent, f_change) = (
                [statistics.median(by_tree[tree]) for tree in TREES] for by_tree in (times, faults))
            print(f"{name} N={a.sites} seed={a.seed}: parent {parent * 1e3:.3f} ms "
                  f"({f_parent:g} minor faults), change {change * 1e3:.3f} ms ({f_change:g} "
                  f"minor faults) per call ({(change / parent - 1) * 100:+.1f}%), change "
                  f"faster in {won}/{a.rounds} rounds of {a.calls} calls", flush=True)


if __name__ == "__main__":
    main()
