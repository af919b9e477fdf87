"""Batch entry point.

Reads a JSON run configuration, executes the requested verification suites,
and writes a machine-readable JSON report (plus an optional CSV table of the
joint spectrum's sampled eigenvalues whenever a spectral suite runs).

Exit codes: 0 when every theorem-backed check passes (conjecture-check
failures are flagged in the report but do not fail the run), 1 when a
theorem-backed check fails, 2 on configuration, convergence or output errors
and when the run runs out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import verify as vf
from .chain import ChainParams, sample_params
from .errors import QBaxterError
from .qoscillator import validate_count

_PARAM_KEYS = {"q", "xi", "xitilde", "zeta", "t", "n_sites", "cutoff",
               "tol", "exclusion_radius"}
_CONFIG_KEYS = {"params", "seed", "suites", "z_samples", "output_path", "spectrum_csv"}


class ConfigError(QBaxterError):
    """Malformed run configuration."""


def _parse_complex(value, where: str):
    """A JSON [re, im] pair as a complex; any other value goes through unchanged."""
    if not isinstance(value, list):
        return value
    if len(value) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in value):
        try:
            return complex(*value)
        except OverflowError:  # an integer too large for a float
            pass
    raise ConfigError(f"{where}: expected an [re, im] pair of numbers, got {value!r}")


@dataclass
class RunConfig:
    """Validated run configuration."""

    params: ChainParams
    seed: int
    suites: list
    z_samples: object = 3  # verify.spectral_samples: a count, or a tuple of complex points
    output_path: str = "report.json"
    spectrum_csv: str = ""

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Check the JSON shape; every value is checked by the library call that reads it."""
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        if "params" not in raw:
            raise ConfigError("configuration needs a 'params' object")
        praw = raw["params"]
        if not isinstance(praw, dict):
            raise ConfigError("'params' must be a JSON object")
        unknown = set(praw) - _PARAM_KEYS
        if unknown:
            raise ConfigError(f"unknown parameter fields: {sorted(unknown)}")
        if "n_sites" not in praw:
            raise ConfigError("'params' needs 'n_sites'")
        seed = validate_count("seed", raw.get("seed", 0))
        scalar_overrides = {key: praw[key] for key in ("cutoff", "tol", "exclusion_radius")
                            if key in praw}

        if "q" in praw:
            for key in ("q", "xi", "xitilde", "t"):
                if key not in praw:
                    raise ConfigError(f"explicit parameters need '{key}'")
            if not isinstance(praw["t"], list):
                raise ConfigError("'t' must be a list of inhomogeneities")
            params = ChainParams(
                q=_parse_complex(praw["q"], "q"),
                xi=_parse_complex(praw["xi"], "xi"),
                xitilde=_parse_complex(praw["xitilde"], "xitilde"),
                zeta=_parse_complex(praw.get("zeta", 0.0), "zeta"),
                n_sites=praw["n_sites"],
                t=tuple(_parse_complex(v, "t") for v in praw["t"]),
                **scalar_overrides,
            )
        else:
            # draw the remaining parameters from the generic sampler, which would ignore these
            ignored = sorted(set(praw) & {"xi", "xitilde", "zeta", "t"})
            if ignored:
                raise ConfigError(f"parameter fields {ignored} need an explicit 'q'")
            params = sample_params(praw["n_sites"], seed, **scalar_overrides)

        suites = raw.get("suites", ["all"])
        if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
            raise ConfigError("'suites' must be a list of suite names")
        expanded = []
        for s in suites:
            if s == "all":
                expanded.extend(vf.SUITES)
            elif s in vf.SUITES:
                expanded.append(s)
            else:
                raise ConfigError(f"unknown suite {s!r}; valid: {list(vf.SUITES) + ['all']}")
        seen = set()
        suites = [s for s in expanded if not (s in seen or seen.add(s))]

        z_samples = raw.get("z_samples", 3)
        if isinstance(z_samples, list):
            z_samples = [_parse_complex(v, "z_samples") for v in z_samples]
        z_samples = vf.spectral_samples(z_samples)

        paths = {k: raw.get(k, v) for k, v in (("output_path", "report.json"), ("spectrum_csv", ""))}
        for key, value in paths.items():
            if not isinstance(value, str):
                raise ConfigError(f"'{key}' must be a string, got {value!r}")
        return cls(params=params, seed=seed, suites=suites, z_samples=z_samples, **paths)


def execute(config: RunConfig):
    """Run every requested suite; returns (checks, spectrum_rows)."""
    checks = [c for suite in config.suites
              for c in vf.run_suite(suite, config.params, config.seed, config.z_samples)]
    spectral = set(config.suites) & set(vf.SPECTRAL_SUITES)
    records = vf.spectral_records(config.params, config.seed, config.z_samples) if spectral else ()
    spectrum_rows = [(rec.m_down, k, z.real, z.imag, tv.real, tv.imag, qv.real, qv.imag)
                     for k, rec in enumerate(records)
                     for (z, tv), (_, qv) in zip(rec.tv_samples, rec.q_samples)]
    return checks, spectrum_rows


def build_report(config: RunConfig, checks, timestamp: str) -> dict:
    theorem_failures = [c.name for c in checks if not c.passed and not c.conjecture]
    conjecture_failures = [c.name for c in checks if not c.passed and c.conjecture]
    return {
        "schema": 1,
        "timestamp": timestamp,
        "seed": config.seed,
        "suites": config.suites,
        "params": vf.params_digest(config.params, config.seed),
        "checks": [asdict(c) for c in checks],
        "summary": {
            "total": len(checks),
            "passed": sum(1 for c in checks if c.passed),
            "theorem_failures": theorem_failures,
            "conjecture_failures": conjecture_failures,
        },
    }


def export_report(report: dict, path: str, spectrum_rows, csv_path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sector", "record_index", "z_re", "z_im",
                             "tv_re", "tv_im", "q_re", "q_im"])
            writer.writerows(spectrum_rows)


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute a validated configuration and write its report."""
    try:
        checks, spectrum_rows = execute(config)
        report = build_report(config, checks, datetime.now(timezone.utc).isoformat())
        export_report(report, config.output_path, spectrum_rows, config.spectrum_csv)
    except (OSError, QBaxterError, MemoryError) as exc:  # OSError: an unwritable report or CSV path
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if not quiet:
        for c in checks:
            tag = "CONJECTURE" if c.conjecture else "THEOREM   "
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {tag} {c.name:34s} residual={c.residual:.3e} tol={c.tolerance:.0e}")
        summary = report["summary"]
        print(f"{summary['passed']}/{summary['total']} checks passed; "
              f"report written to {config.output_path}")
        if summary["conjecture_failures"]:
            print("WARNING: conjecture-level checks failed: "
                  f"{summary['conjecture_failures']} (run still succeeds)")
    return 1 if report["summary"]["theorem_failures"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbaxter",
        description="Verification suites and Bethe pipelines for the open chain toolkit")
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--suite", action="append", default=None,
                        help="suite name (repeatable); overrides the configured list")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed; overrides the config value")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--tol", type=float, default=None, help="override trace tolerance")
    parser.add_argument("--cutoff", type=int, default=None, help="override Fock cutoff")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):  # from_dict rejects any other configuration
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.suite:
                raw["suites"] = args.suite
            if args.out:
                raw["output_path"] = args.out
            params = raw.get("params")
            for key, value in (("tol", args.tol), ("cutoff", args.cutoff)):
                if value is not None and isinstance(params, dict):
                    params[key] = value
        config = RunConfig.from_dict(raw)
    except (OSError, json.JSONDecodeError, ValueError, QBaxterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
