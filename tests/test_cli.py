"""Configuration parsing, report generation, exit codes, and determinism."""

import csv
import json
import subprocess
import sys
import time

import pytest

from qbaxter import chain as ch
from qbaxter import cli
from qbaxter import verify as vf
from qbaxter.cli import ConfigError, RunConfig
from qbaxter.errors import ParameterDomainError


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

EXPLICIT = {"n_sites": 2, "q": [0.5, 0.0], "xi": [0.01, 0.0], "xitilde": [0.01, 0.0],
            "t": [[1.0, 0.0], [1.1, 0.0]], "tol": 1e-10}


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

    @pytest.mark.parametrize("key, value", [
        ("cutoff", "40"), ("cutoff", True), ("cutoff", 40.5), ("tol", None),
        ("tol", "1e-10"), ("exclusion_radius", [0.05])])
    def test_numeric_params_type_checked(self, key, value):
        with pytest.raises(ParameterDomainError, match=rf"^{key} "):
            RunConfig.from_dict({**BASE, "params": {**BASE["params"], key: value}})

    @pytest.mark.parametrize("field", ["seed", "z_samples", "n_sites"])
    def test_boolean_counts_rejected(self, field):
        raw = {**BASE, "params": dict(BASE["params"])}
        (raw["params"] if field == "n_sites" else raw)[field] = True
        # the library names z_samples by its own argument, samples
        with pytest.raises(ParameterDomainError, match=rf"^{field.removeprefix('z_')}\b"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("params", [BASE["params"], EXPLICIT], ids=["sampled", "explicit"])
    def test_negative_seed_rejected(self, params):
        with pytest.raises(ParameterDomainError, match="seed must be an integer >= 0, got -1"):
            RunConfig.from_dict({**BASE, "params": params, "seed": -1})

    @pytest.mark.parametrize("key, value", [
        ("output_path", ["a"]), ("output_path", None), ("spectrum_csv", None),
        ("spectrum_csv", 3)])
    def test_non_string_paths_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict({**BASE, key: value})

    @pytest.mark.parametrize("raw, message", [
        ([BASE], "configuration must be a JSON object"),
        ({"seed": 1}, "needs a 'params' object"),
        ({**BASE, "params": [2]}, "'params' must be a JSON object"),
        ({**BASE, "params": {"tol": 1e-10}}, "'params' needs 'n_sites'"),
        ({**BASE, "params": {k: v for k, v in EXPLICIT.items() if k != "t"}},
         "explicit parameters need 't'"),
        ({**BASE, "params": {**EXPLICIT, "t": 1.0}}, "'t' must be a list of inhomogeneities"),
        ({**BASE, "params": {"n_sites": 2, "xitilde": 0.01}}, r"\['xitilde'\] need an explicit 'q'"),
        ({**BASE, "suites": "tq"}, "'suites' must be a list of suite names"),
    ])
    def test_malformed_config_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ({**BASE, "params": {**EXPLICIT, "t": [[1.0, 0.0]]}}, "expected 2 inhomogeneities, got 1"),
        ({**BASE, "z_samples": []}, "at least one sample point"),
    ])
    def test_library_rejects_value(self, raw, message):
        with pytest.raises(ParameterDomainError, match=message):
            RunConfig.from_dict(raw)

    def test_integral_float_cutoff_rejected(self):
        with pytest.raises(ParameterDomainError, match="cutoff must be an integer >= 2, got 41.0"):
            RunConfig.from_dict({**BASE, "params": {**BASE["params"], "cutoff": 41.0}})

    def test_all_expands(self):
        cfg = RunConfig.from_dict({**BASE, "suites": ["all"]})
        assert list(cfg.suites) == list(cli.vf.SUITES)

    def test_z_samples_list(self):
        cfg = RunConfig.from_dict({**BASE, "z_samples": [[0.9, 0.1], [0.8, 0.2]]})
        assert cfg.z_samples == (0.9 + 0.1j, 0.8 + 0.2j)

    @pytest.mark.parametrize("key", ["tol", "cutoff"])
    def test_oversized_real_rejected(self, key):
        with pytest.raises(ParameterDomainError, match=rf"^{key} "):
            RunConfig.from_dict({**BASE, "params": {**BASE["params"], key: 10 ** 400}})

    @pytest.mark.parametrize("key", ["q", "t"])
    def test_oversized_complex_rejected(self, key):
        value = [[1.0, 0.0], [10 ** 400, 0]] if key == "t" else [0.5, 10 ** 400]
        with pytest.raises(ConfigError, match=rf"{key}: expected an \[re, im\] pair"):
            RunConfig.from_dict({**BASE, "params": {**EXPLICIT, key: value}})

    def test_complex_parsing(self):
        assert cli._parse_complex([1, -2], "x") == 1 - 2j
        # any value but a list is the library's to check
        for value in (2, "nope", True, None):
            assert cli._parse_complex(value, "x") is value
        for pair in ([1.0, False], [1, 2, 3], ["1", 2], [10 ** 400, 0]):
            with pytest.raises(ConfigError, match=r"^x: expected an \[re, im\] pair"):
                cli._parse_complex(pair, "x")


HUGE = 10 ** 400  # a JSON integer too large for a float
_BAD = (True, "3", None, 2.5, 41.0, -1, HUGE)

# each value field, the values its library check rejects, and that check called directly
# as the configuration calls it (BASE's sampled or EXPLICIT's parameters, seed 11)
ONE_RULE = {
    "seed": (_BAD, lambda v: vf.run_suite("tq", ch.sample_params(2, 11, tol=1e-10), v)),
    "n_sites": (_BAD, lambda v: ch.sample_params(v, 11, cutoff=40, tol=1e-10)),
    "cutoff": (_BAD, lambda v: ch.sample_params(2, 11, cutoff=v, tol=1e-10)),
    "tol": ((True, "3", None, -1, HUGE), lambda v: ch.sample_params(2, 11, cutoff=40, tol=v)),
    "exclusion_radius": ((True, "3", None, -1, HUGE), lambda v: ch.sample_params(
        2, 11, cutoff=40, tol=1e-10, exclusion_radius=v)),
    "q": (_BAD, lambda v: ch.ChainParams(q=v, xi=0.01, xitilde=0.01, n_sites=2,
                                         t=(1.0, 1.1), tol=1e-10)),
    "t": ((True, "3", None, HUGE), lambda v: ch.ChainParams(q=0.5, xi=0.01, xitilde=0.01,
                                                            n_sites=2, t=(1.0, v), tol=1e-10)),
    "z_samples": ((True, "3", None, 2.5, 41.0, -1, [HUGE]), lambda v: vf.spectral_samples(v)),
}
ONE_RULE_CASES = [pytest.param(field, value, id=f"{field}-{value!r}".replace(str(HUGE), "10**400"))
                  for field, (values, _) in ONE_RULE.items() for value in values]


def one_rule_config(field, value):
    """BASE with value in field: a t entry in EXPLICIT's t, q in EXPLICIT."""
    if field in ("seed", "z_samples"):
        return {**BASE, field: value}
    if field in ("q", "t"):
        return {**BASE, "params": {**EXPLICIT, field: [1.0, value] if field == "t" else value}}
    return {**BASE, "params": {**BASE["params"], field: value}}


class TestOneRule:
    @pytest.mark.parametrize("field, value", ONE_RULE_CASES)
    def test_config_raises_the_library_error(self, field, value):
        with pytest.raises(ParameterDomainError) as direct:
            ONE_RULE[field][1](value)
        with pytest.raises(ParameterDomainError) as loaded:
            RunConfig.from_dict(one_rule_config(field, value))
        assert type(loaded.value) is type(direct.value)
        assert str(loaded.value) == str(direct.value)

    @pytest.mark.parametrize("field, value", ONE_RULE_CASES)
    def test_main_exits_two(self, tmp_path, capsys, field, value):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path, one_rule_config(field, value))
        assert cli.main(["--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


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
        with table.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sector", "record_index", "z_re", "z_im",
                           "tv_re", "tv_im", "q_re", "q_im"]
        assert len(rows) - 1 == 4 * 3  # 2^N records x sample count

    def test_bethe_only_run_writes_spectrum_csv(self, tmp_path):
        table = tmp_path / "spectrum.csv"
        cfg = RunConfig.from_dict({**BASE, "suites": ["bethe"], "z_samples": 2,
                                   "output_path": str(tmp_path / "report.json"),
                                   "spectrum_csv": str(table)})
        assert cli.run(cfg, quiet=True) == 0
        with table.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 4 * 2  # 2^N records x sample count

    def test_spectral_suites_share_one_joint_spectrum(self, tmp_path, monkeypatch):
        calls = []
        joint_spectrum = cli.vf.bt.joint_spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return joint_spectrum(*args, **kwargs)

        monkeypatch.setattr(cli.vf.bt, "joint_spectrum", counted)
        cli.vf._spectral_records.cache_clear()
        cfg = write_config(tmp_path, {**BASE, "output_path": str(tmp_path / "r.json"),
                                      "spectrum_csv": str(tmp_path / "s.csv")})
        code = cli.main(["--config", cfg, "--suite", "spectrum", "--suite", "bethe", "--quiet"])
        assert code == 0
        assert len(calls) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert names[0] == "spectrum-sector-count" and names[-1] == "bethe-aba-state"

    def test_explicit_z_samples_reach_bethe_suite(self, tmp_path, monkeypatch):
        points = [[0.9, 0.1], [0.8, -0.3]]
        seen = set()
        aba_eigenvalue = cli.vf.bt.aba_eigenvalue

        def recorded(z, *args):
            seen.add(complex(z))
            return aba_eigenvalue(z, *args)

        monkeypatch.setattr(cli.vf.bt, "aba_eigenvalue", recorded)
        cfg = RunConfig.from_dict({**BASE, "suites": ["bethe"], "z_samples": points,
                                   "output_path": str(tmp_path / "r.json")})
        assert cli.run(cfg, quiet=True) == 0
        assert seen == {0.9 + 0.1j, 0.8 - 0.3j}


class TestMainEntry:
    def run_python(self, *args, env_extra=None, preexec_fn=None):
        import os
        env = dict(os.environ)
        # the subprocess imports the same package as this test module
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if env_extra:
            env.update(env_extra)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                              preexec_fn=preexec_fn)

    def run_cli(self, *args, env_extra=None, preexec_fn=None):
        return self.run_python("-m", "qbaxter.cli", *args, env_extra=env_extra,
                               preexec_fn=preexec_fn)

    def test_import_loads_no_scipy(self):
        proc = self.run_python("-c", "import sys, qbaxter.cli; print(sorted(m for m in sys.modules"
                                     " if m == 'scipy' or m.startswith('scipy.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
        # --seed beats the config value, and no environment variable sets a seed
        cfg = write_config(tmp_path, {**BASE, "output_path": str(tmp_path / "a.json")})
        p1 = self.run_cli("--config", cfg, "--seed", "21", "--quiet")
        cfg = write_config(tmp_path, {**BASE, "seed": 21}, "seed21.json")
        p2 = self.run_cli("--config", cfg, "--out", str(tmp_path / "b.json"),
                          "--quiet", env_extra={"QBAXTER_SEED": "99"})
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

    def test_explicit_only_params_without_q_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "params": {"n_sites": 2, "xi": 0.5, "zeta": 0.01,
                                                         "t": [1, 2]}})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "parameter fields ['t', 'xi', 'zeta'] need an explicit 'q'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_non_numeric_tol_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "params": {"n_sites": 2, "tol": [1]}})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "tol must be finite and positive, got [1]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fractional_cutoff_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE, "params": {"n_sites": 2, "cutoff": 12.7}})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "cutoff must be an integer >= 2, got 12.7" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("params, args", [
        ({"n_sites": 2, "tol": -1}, ()),
        ({"n_sites": 2}, ("--tol", "inf")),
    ])
    def test_bad_sampler_tol_exits_two(self, tmp_path, params, args):
        cfg = write_config(tmp_path, {**BASE, "params": params})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"), *args)
        assert proc.returncode == 2
        assert "tol must be finite and positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--tol", "--cutoff"])
    def test_override_on_non_object_params_exits_two(self, tmp_path, flag):
        cfg = write_config(tmp_path, {**BASE, "params": [2]})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"), flag, "41")
        assert proc.returncode == 2
        assert "'params' must be a JSON object" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_power_table_overflow_exits_two(self, tmp_path, capsys):
        # |q| = 0.36 at seed 11, so |q| ** -1200 leaves floating range
        cfg = write_config(tmp_path, {**BASE, "params": {**BASE["params"], "cutoff": 600}})
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"), "--quiet"]) == 2
        assert "leaves floating range at cutoff 600" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unfittable_sample_count_exits_two(self, tmp_path, capsys):
        # 100000 points 0.02 apart cannot fit on the sampling annulus: no search is made
        cfg = write_config(tmp_path, {"params": {"n_sites": 1}, "suites": ["spectrum"],
                                      "z_samples": 100000})
        start = time.monotonic()
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"), "--quiet"]) == 2
        assert time.monotonic() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: 100000 points 0.02 apart cannot fit")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_jammed_sample_count_exits_two(self, tmp_path, capsys):
        # 8000 points fit the annulus, but random draws jam near half of them:
        # the first point not found in 200 draws ends the search
        cfg = write_config(tmp_path, {"params": {"n_sites": 1}, "suites": ["spectrum"],
                                      "z_samples": 8000})
        start = time.monotonic()
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"), "--quiet"]) == 2
        assert time.monotonic() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: drew ") and "of 8000 points" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_underflowing_boundary_exits_two_fast(self, tmp_path):
        # |q| ** n_sites underflows to 0 before the inhomogeneities are drawn
        cfg = write_config(tmp_path, {"params": {"n_sites": 100000000}, "suites": ["tq"]})
        start = time.monotonic()
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"), "--quiet")
        assert time.monotonic() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr == "error: boundary parameters must be nonzero\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.00 GiB for an array", "Unable to allocate 7.00 GiB for an array"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, message, shown):
        # exit code 1 stays reserved for a failed theorem check
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.vf, "run_suite", out_of_memory)
        cfg = write_config(tmp_path, BASE)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {shown}\n"
        assert not (tmp_path / "r.json").exists()

    def test_address_space_limit_exits_two(self, tmp_path):
        # one Q at N = 12 needs about 1.7 GB, so it runs out of a 1.5 GiB address space
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        limit = 3 * 2 ** 29

        def cap_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        cfg = write_config(tmp_path, {"params": {"n_sites": 12}, "suites": ["tq"]})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"),
                            env_extra={"OPENBLAS_NUM_THREADS": "1"},
                            preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_crossing_without_samples_exits_two(self, tmp_path):
        # every crossing sample falls in an exclusion set of radius 50
        cfg = write_config(tmp_path, {"params": {"n_sites": 2, "tol": 1e-10,
                                                 "exclusion_radius": 50.0},
                                      "seed": 3, "suites": ["crossing"]})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert "drew 0 of 3 points clear of the exclusion set" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("params", [BASE["params"], EXPLICIT], ids=["sampled", "explicit"])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_negative_seed_exits_two(self, tmp_path, params, source):
        payload = {**BASE, "params": params}
        payload.pop("seed")
        args = ()
        if source == "config":
            payload["seed"] = -3
        else:
            args = ("--seed", "-3")
        cfg = write_config(tmp_path, payload)
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"), *args)
        assert proc.returncode == 2
        assert "seed must be an integer >= 0, got -3" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value", [("output_path", ["a"]), ("spectrum_csv", None)])
    def test_non_string_path_exits_two_and_writes_nothing(self, tmp_path, monkeypatch,
                                                          key, value):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {**BASE, "suites": ["spectrum"], key: value})
        assert cli.main(["--config", cfg, "--quiet"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("target", ["--out", "spectrum_csv"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, target):
        missing = str(tmp_path / "missing" / "out")
        payload = {**BASE, "suites": ["spectrum"], "output_path": str(tmp_path / "r.json"),
                   "spectrum_csv": missing if target == "spectrum_csv" else ""}
        args = ["--out", missing] if target == "--out" else []
        cfg = write_config(tmp_path, payload)
        assert cli.main(["--config", cfg, "--quiet", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing" in err

    @pytest.mark.parametrize("field, value", [("xi", float("nan")),
                                              ("t", [1.0, float("inf")])])
    def test_non_finite_parameter_exits_two(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {**BASE, "params": {**EXPLICIT, field: value}})
        proc = self.run_cli("--config", cfg, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2
        assert " must be a finite number" in proc.stderr and field in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("payload, args, message", [
        ([BASE], (), "configuration must be a JSON object"),
        ({**BASE, "params": 2}, ("--cutoff", "41"), "'params' must be a JSON object"),
    ])
    def test_main_rejects_non_object_in_process(self, tmp_path, capsys, payload, args, message):
        cfg = write_config(tmp_path, payload)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "r.json"), *args]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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
