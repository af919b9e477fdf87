"""Compare the CLI reports of two source trees on a fixed set of configurations.

    python tools/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the `qbaxter` package
(the `src/` of two checkouts).  Each configuration runs `python -m qbaxter.cli`
once with each directory as PYTHONPATH, all with `--tol 1e-10`.  The JSON
reports are compared without their `timestamp` field, the spectrum CSVs byte
for byte, and the exit codes as they are.  One line per configuration says
`identical` or `differs` with both exit codes.  Under a configuration that
differs, indented lines name the checks added or removed, the pass flags that
flipped and the largest relative residual change |r_change - r_parent| / r_parent
over the checks both reports hold, then one line for each other check field
(`notes`, `tolerance`, `conjecture`, `params_digest`) naming the checks it
differs in, and one naming the top-level report fields that differ.  When the
spectrum CSVs differ, one more line gives the largest change of a `tv` or `q`
value, |change - parent| / max(1, |parent|) over the complex values of rows
with equal keys (sector, record index, z), or says that the row keys differ.
The exit status is 1 when any configuration differs, else 0.  Needs only the
standard library.
"""

import csv
import io
import json
import math
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


def csv_difference(parent, change):
    """One line sizing the difference of two spectrum CSVs (bytes or None)."""
    if parent is None or change is None:
        return f"spectrum CSV written by the {'change' if parent is None else 'parent'} only"
    old, new = (list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
                for data in (parent, change))
    key = ("sector", "record_index", "z_re", "z_im")
    if [[row[k] for k in key] for row in old] != [[row[k] for k in key] for row in new]:
        return "spectrum CSV differs: the row keys (sector, record index, z) differ"

    def change_of(a, b, column):
        was, now = (complex(float(row[f"{column}_re"]), float(row[f"{column}_im"]))
                    for row in (a, b))
        rel = abs(now - was) / max(1.0, abs(was))
        return math.inf if math.isnan(rel) else rel

    worst, where = max(((change_of(a, b, column), f"{column} of row {index + 1}")
                        for index, (a, b) in enumerate(zip(old, new)) for column in ("tv", "q")),
                       default=(0.0, "no row"))
    return (f"spectrum CSV differs: largest tv/q change |change - parent| / max(1, |parent|) "
            f"= {worst:.3g} in {where}")


def differences(parent, change):
    """Lines saying how the change's run differs from the parent's, each a
    (exit code, report, CSV) triple from run_cli."""
    lines = []
    if parent[2] != change[2]:
        lines.append(csv_difference(parent[2], change[2]))
    if parent[1] is None or change[1] is None:
        if parent[1] is not change[1]:
            lines.append(f"report written by the {'change' if parent[1] is None else 'parent'} only")
        return lines
    old, new = ({c["name"]: c for c in run[1]["checks"]} for run in (parent, change))
    for what, names in (("added", new.keys() - old.keys()), ("removed", old.keys() - new.keys())):
        if names:
            lines.append(f"checks {what}: {', '.join(sorted(names))}")
    common = sorted(old.keys() & new.keys())
    flipped = [f"{name} ({old[name]['passed']} -> {new[name]['passed']})"
               for name in common if old[name]["passed"] != new[name]["passed"]]
    if flipped:
        lines.append(f"pass flags flipped: {', '.join(flipped)}")

    def rel_change(name):
        a, b = float(old[name]["residual"]), float(new[name]["residual"])
        if a == b:
            return 0.0
        rel = abs(b - a) / abs(a) if a else math.inf
        return math.inf if math.isnan(rel) else rel

    worst = max(common, key=rel_change, default=None)
    if worst is None or not rel_change(worst):
        lines.append("no residual changed")
    else:
        lines.append(f"largest relative residual change: {rel_change(worst):.3g} in {worst} "
                     f"({old[worst]['residual']!r} -> {new[worst]['residual']!r})")
    # residual and passed are reported above
    for key in sorted({key for name in common for key in old[name].keys() | new[name].keys()}
                      - {"name", "residual", "passed"}):
        names = [name for name in common if old[name].get(key) != new[name].get(key)]
        if names:
            lines.append(f"{key} differs in {', '.join(names)}")
    top = sorted(key for key in parent[1].keys() | change[1].keys()
                 if key != "checks" and parent[1].get(key) != change[1].get(key))
    if top:
        lines.append(f"top-level fields differ: {', '.join(top)}")
    return lines


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
            if not same:
                for line in differences(parent, change):
                    print(f"    {line}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
