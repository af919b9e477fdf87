"""Compare the row arrays, the Bethe layer's record data and the Bethe state and
eigenvalue of two source trees.

    python tools/compare_arrays.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `qbaxter` package
(the `src/` of two checkouts).  With each directory as PYTHONPATH, one
process evaluates every function of FUNCTIONS, named by its module in
`qbaxter`, at every chain size in SIZES, seed in SEEDS (parameters
`sample_params(N, seed, tol=1e-10)`) and spectral point z in POINTS, and
saves the arrays; `bethe.aba_state` is evaluated on the root pair
(POINTS[0], z), so it raises `ParameterDomainError` at N < 2, and
`bethe.aba_eigenvalue` on the same pair at ABA_POINT, clear of both roots.
At each chain size and seed, RECORD_FUNCTIONS save the record count of
`bethe.joint_spectrum(params, POINTS[0], bethe.spectrum_nodes(params, 1, 3))`
and, for each of its records, the factorized roots followed by
(pairing_error, product_error, f), both Bethe residual arrays, and the Newton
roots followed by the final residual.  No field of a record is read by name, so
one script runs on trees whose records name their fields differently.  A case
that only one tree computed counts as a shape difference.
A call that raises a `QBaxterError` is kept as the name of its error class.  One line
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
             "chain.transfer_v", "chain.closed_transfer_v", "bethe.aba_state",
             "bethe.aba_eigenvalue")
SIZES = tuple(range(7))
SEEDS = (3, 11)
POINTS = (0.83 + 0.21j, 1.1 - 0.3j)
ABA_POINT = 0.7 + 0.35j
RECORD_FUNCTIONS = ("bethe.joint_spectrum", "bethe.factorize_q_eigenvalue", "bethe.bethe_residual",
                    "bethe.bethe_residual_pq_form", "bethe.refine_bethe_newton")

# run with the source tree on PYTHONPATH; argv[1] is the .npz to write
EVALUATE = f"""
import importlib
import sys
import numpy as np
from qbaxter import bethe, chain
from qbaxter.errors import QBaxterError


def saved(call, *args):
    \"\"\"call(*args) as an array, or the name of the QBaxterError class it raised.\"\"\"
    try:
        return np.asarray(call(*args))
    except QBaxterError as exc:
        return np.array(type(exc).__name__)


functions = {{name: getattr(importlib.import_module("qbaxter." + name.split(".")[0]),
                            name.split(".")[1]) for name in {FUNCTIONS!r}}}

arrays = {{}}
for n in {SIZES!r}:
    for seed in {SEEDS!r}:
        params = chain.sample_params(n, seed, tol=1e-10)
        for point, z in enumerate({POINTS!r}):
            roots = ({POINTS[0]!r}, z)
            args = {{"bethe.aba_state": (roots,), "bethe.aba_eigenvalue": ({ABA_POINT!r}, roots)}}
            for name, function in functions.items():
                arrays[f"{{name}} N={{n}} seed={{seed}} z={{point}}"] = saved(
                    function, *args.get(name, (z,)), params)
        try:
            records = bethe.joint_spectrum(params, {POINTS[0]!r}, bethe.spectrum_nodes(params, 1, 3))
        except QBaxterError as exc:
            arrays[f"bethe.joint_spectrum N={{n}} seed={{seed}}"] = np.array(type(exc).__name__)
            continue
        arrays[f"bethe.joint_spectrum N={{n}} seed={{seed}}"] = np.array(len(records))
        for k, record in enumerate(records):
            key = f"N={{n}} seed={{seed}} record={{k}}"
            try:
                roots = bethe.factorize_q_eigenvalue(record, params)
            except QBaxterError as exc:
                arrays[f"bethe.factorize_q_eigenvalue {{key}}"] = np.array(type(exc).__name__)
                continue
            arrays[f"bethe.factorize_q_eigenvalue {{key}}"] = np.concatenate(
                [roots.roots, [roots.pairing_error, roots.product_error, roots.f]])
            for residual in (bethe.bethe_residual, bethe.bethe_residual_pq_form):
                arrays[f"bethe.{{residual.__name__}} {{key}}"] = saved(residual, roots, params)
            arrays[f"bethe.refine_bethe_newton {{key}}"] = saved(
                lambda: np.append(*bethe.refine_bethe_newton(roots.roots, params)))
np.savez(sys.argv[1], **arrays)
"""


def evaluate(src, path):
    """The arrays of one source tree, keyed '<function> N=<n> seed=<seed>' and then
    'z=<index>' or 'record=<index>' (none for bethe.joint_spectrum)."""
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
    for name in FUNCTIONS + RECORD_FUNCTIONS:
        keys = [key for key in {**parent, **change} if key.split()[0] == name]
        arrays, equal, errors, worst, odd = 0, 0, 0, 0.0, []
        for key in keys:
            a, b = parent.get(key), change.get(key)
            if a is None or b is None:
                odd.append(f"{key}: only the {'parent' if b is None else 'change'} computed it")
            elif a.shape != b.shape or a.dtype.kind != b.dtype.kind:
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
