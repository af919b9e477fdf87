"""Configuration parsing, report generation, exit codes, and determinism."""

import csv
import json
import subprocess
import sys

import pytest

from qbaxter import cli
from qbaxter.cli import ConfigError, RunConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "params": {"n_sites": 2, "cutoff": 40, "tol": 1e-10},
    "seed": 11,
    "suites": ["tq"],
    "z_samples": 3,
}


class TestConfig:
    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**BASE, "bogus": 1})

    def test_unknown_param_field_rejected(self):
        bad = dict(BASE)
        bad["params"] = {"n_sites": 2, "volume": 9}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**BASE, "suites": ["tq", "warp"]})

    def test_explicit_params_must_be_complete(self):
        bad = dict(BASE)
        bad["params"] = {"n_sites": 1, "q": [0.5, 0.0]}
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_explicit_params_revalidated(self):
        bad = dict(BASE)
        bad["params"] = {"n_sites": 2, "q": [0.5, 0.0], "xi": [1.0, 0.0],
                         "xitilde": [1.0, 0.0], "t": [[1, 0], [1, 0]]}
        from qbaxter.errors import ParameterDomainError
        with pytest.raises(ParameterDomainError):
            RunConfig.from_dict(bad)

    def test_all_expands(self):
        cfg = RunConfig.from_dict({**BASE, "suites": ["all"]})
        assert list(cfg.suites) == list(cli.vf.SUITES)

    def test_z_samples_list(self):
        cfg = RunConfig.from_dict({**BASE, "z_samples": [[0.9, 0.1], [0.8, 0.2]]})
        assert cfg.z_samples == [0.9 + 0.1j, 0.8 + 0.2j]

    def test_complex_parsing(self):
        assert cli._parse_complex(2, "x") == 2 + 0j
        assert cli._parse_complex([1, -2], "x") == 1 - 2j
        with pytest.raises(ConfigError):
            cli._parse_complex("nope", "x")


class TestRun:
    def test_run_writes_report_and_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = RunConfig.from_dict({**BASE, "output_path": str(out)})
        code = cli.run(cfg, quiet=True)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["summary"]["theorem_failures"] == []
        assert report["checks"][0]["name"] == "tq-relation"
        assert report["checks"][0]["residual"] < 1e-8

    def test_empty_suite_list_gives_empty_report(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = RunConfig.from_dict({**BASE, "suites": [], "output_path": str(out)})
        assert cli.run(cfg, quiet=True) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["total"] == 0

    def test_report_roundtrips_bit_exact(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = RunConfig.from_dict({**BASE, "output_path": str(out)})
        cli.run(cfg, quiet=True)
        report = json.loads(out.read_text())
        resid = [c["residual"] for c in report["checks"]]
        redumped = json.loads(json.dumps(report))
        assert [c["residual"] for c in redumped["checks"]] == resid

    def test_spectrum_csv_row_count(self, tmp_path):
        out = tmp_path / "report.json"
        table = tmp_path / "spectrum.csv"
        cfg = RunConfig.from_dict({**BASE, "suites": ["spectrum"],
                                   "output_path": str(out), "spectrum_csv": str(table)})
        assert cli.run(cfg, quiet=True) == 0
        rows = list(csv.reader(table.open()))
        assert rows[0] == ["sector", "record_index", "z_re", "z_im",
                           "tv_re", "tv_im", "q_re", "q_im"]
        assert len(rows) - 1 == 4 * 3  # 2^N records x sample count


class TestMainEntry:
    def run_cli(self, *args, env_extra=None):
        import os
        env = dict(os.environ)
        # the subprocess imports the same package as this test module
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if env_extra:
            env.update(env_extra)
        return subprocess.run([sys.executable, "-m", "qbaxter.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "suites": ["n2-closed-forms"],
                                      "output_path": str(tmp_path / "r.json")})
        proc = self.run_cli("--config", cfg)
        assert proc.returncode == 0
        assert "n2-closed-forms" in proc.stdout
        report = json.loads((tmp_path / "r.json").read_text())
        assert "coefficient" in report["checks"][0]["notes"]

    def test_convergence_violation_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {
            "params": {"n_sites": 2, "q": [0.5, 0], "xi": [1.0, 0],
                       "xitilde": [1.0, 0], "t": [[1, 0], [1, 0]]},
            "suites": ["tq"],
        })
        proc = self.run_cli("--config", cfg)
        assert proc.returncode == 2
        assert "|q|^(2N)" in proc.stderr

    def test_seed_precedence_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "output_path": str(tmp_path / "a.json")})
        p1 = self.run_cli("--config", cfg, "--seed", "21", "--quiet",
                          env_extra={"QBAXTER_SEED": "99"})
        p2 = self.run_cli("--config", cfg, "--out", str(tmp_path / "b.json"),
                          "--quiet", env_extra={"QBAXTER_SEED": "21"})
        assert p1.returncode == p2.returncode == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a["timestamp"] = b["timestamp"] = None
        assert json.dumps(a) == json.dumps(b)

    def test_r_param_rejected_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "params": {"n_sites": 2, "r": [1.1, 0.0]}})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "unknown parameter fields: ['r']" in proc.stderr

    def test_missing_config_exits_two(self, tmp_path):
        proc = self.run_cli("--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_suite_override_and_quiet(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "output_path": str(tmp_path / "r.json")})
        proc = self.run_cli("--config", cfg, "--suite", "ybe", "--quiet")
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""
        report = json.loads((tmp_path / "r.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["yang-baxter"]
