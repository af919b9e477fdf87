"""Compare the arrays of the row functions and the Bethe state of two source trees.

    python tools/compare_arrays.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `qbaxter` package
(the `src/` of two checkouts).  With each directory as PYTHONPATH, one
process evaluates every function of FUNCTIONS, named by its module in
`qbaxter`, at every chain size in SIZES, seed in SEEDS (parameters
`sample_params(N, seed, tol=1e-10)`) and spectral point z in POINTS, and
saves the arrays; `bethe.aba_state` is evaluated on the root pair
(POINTS[0], z), so it raises `ParameterDomainError` at N < 2.  A call that
raises a `QBaxterError` is kept as the name of its error class.  One line
per function gives the number of cases in which both trees computed arrays of
one shape, how many of those arrays are bit-equal, the number of cases in
which both raised the same error, and the largest relative Frobenius
difference |change - parent|_F / |parent|_F (0 when both are zero) over the
arrays.  Indented lines under a function name each case whose shapes or
raised errors differ.  The exit status is 1 when any case differs in shape or
error, else 0; rounding differences are left to the reader.  Needs only the
standard library and numpy.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

FUNCTIONS = ("chain.q_operator", "chain.transfer_w", "chain.closed_q", "chain.closed_transfer_w",
             "chain.transfer_v", "chain.closed_transfer_v", "bethe.aba_state")
SIZES = tuple(range(7))
SEEDS = (3, 11)
POINTS = (0.83 + 0.21j, 1.1 - 0.3j)

# run with the source tree on PYTHONPATH; argv[1] is the .npz to write
EVALUATE = f"""
import importlib
import sys
import numpy as np
from qbaxter import chain
from qbaxter.errors import QBaxterError

functions = {{name: getattr(importlib.import_module("qbaxter." + name.split(".")[0]),
                            name.split(".")[1]) for name in {FUNCTIONS!r}}}

arrays = {{}}
for n in {SIZES!r}:
    for seed in {SEEDS!r}:
        params = chain.sample_params(n, seed, tol=1e-10)
        for point, z in enumerate({POINTS!r}):
            for name, function in functions.items():
                try:
                    arg = ({POINTS[0]!r}, z) if name == "bethe.aba_state" else z
                    value = np.asarray(function(arg, params))
                except QBaxterError as exc:
                    value = np.array(type(exc).__name__)
                arrays[f"{{name}} N={{n}} seed={{seed}} z={{point}}"] = value
np.savez(sys.argv[1], **arrays)
"""


def evaluate(src, path):
    """The arrays of one source tree, keyed '<function> N=<n> seed=<seed> z=<index>'."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve())}
    subprocess.run([sys.executable, "-c", EVALUATE, str(path)], env=env, check=True)
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (evaluate(src, pathlib.Path(tmp) / f"{side}.npz")
                          for src, side in zip(argv, ("parent", "change")))
    mismatched = 0
    for name in FUNCTIONS:
        keys = [key for key in parent if key.split()[0] == name]
        arrays, equal, errors, worst, odd = 0, 0, 0, 0.0, []
        for key in keys:
            a, b = parent[key], change[key]
            if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
                odd.append(f"{key}: parent {a.dtype} {a.shape}, change {b.dtype} {b.shape}")
            elif a.dtype.kind == "U":
                if a != b:
                    odd.append(f"{key}: parent raised {a}, change raised {b}")
                errors += bool(a == b)
            else:
                arrays += 1
                equal += bool(np.array_equal(a, b))
                scale = np.linalg.norm(a)
                diff = np.linalg.norm(b - a)
                worst = max(worst, diff / scale if scale else (0.0 if not diff else np.inf))
        mismatched += len(odd)
        print(f"{name}: {arrays} arrays, {equal} bit-equal, {errors} equal errors, largest "
              f"relative Frobenius difference {worst:.3g}", flush=True)
        for line in odd:
            print(f"    {line}", flush=True)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
