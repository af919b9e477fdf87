"""Compare the CLI reports of two source trees on a fixed set of configurations.

    python tools/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `qbaxter` package
(the `src/` of two checkouts).  Each configuration runs `python -m qbaxter.cli`
once with each directory as PYTHONPATH, all with `--tol 1e-10`.  The JSON
reports are compared without their `timestamp` field, the spectrum CSVs byte
for byte, and the exit codes as they are.  One line per configuration says
`identical` or `differs` with both exit codes; the exit status is 1 when any
configuration differs, else 0.  Needs only the standard library.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

# (sites, seed, suites)
CONFIGS = ([(3, seed, ("all",)) for seed in (1, 2, 3, 4)]
           + [(2, 1, ("all",)), (5, 0, ("all",))]
           + [(4, seed, ("spectrum", "bethe")) for seed in (3, 11)])


def run_cli(src, tmp, n_sites, seed, suites):
    """One CLI run; returns (exit code, report without timestamp or None, CSV bytes or None)."""
    report, csv_path = tmp / "report.json", tmp / "spectrum.csv"
    for path in (report, csv_path):
        path.unlink(missing_ok=True)
    config = tmp / "config.json"
    config.write_text(json.dumps({"params": {"n_sites": n_sites},
                                  "spectrum_csv": str(csv_path)}))
    args = [sys.executable, "-m", "qbaxter.cli", "--config", str(config), "--seed", str(seed),
            "--tol", "1e-10", "--out", str(report), "--quiet"]
    for suite in suites:
        args += ["--suite", suite]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve())}
    proc = subprocess.run(args, cwd=tmp, env=env, stdout=subprocess.DEVNULL)
    data = json.loads(report.read_text()) if report.exists() else None
    if data is not None:
        data.pop("timestamp", None)
    return proc.returncode, data, csv_path.read_bytes() if csv_path.exists() else None


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for n_sites, seed, suites in CONFIGS:
            parent = run_cli(argv[0], tmp, n_sites, seed, suites)
            change = run_cli(argv[1], tmp, n_sites, seed, suites)
            same = parent == change
            differ += not same
            print(f"N={n_sites} seed={seed} suites={'+'.join(suites)}: "
                  f"{'identical' if same else 'differs'} "
                  f"(exit {parent[0]} parent, {change[0]} change)", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
