"""The README's library example and example CLI configuration run as written."""

import contextlib
import csv
import io
import json
import pathlib
import re

from qbaxter import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language):
    """The first fenced code block of the given language in the README."""
    match = re.search(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert match, f"README has no {language} block"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("python"), "README.md", "exec"), {})
    assert out.getvalue().strip()


def test_example_configuration_runs(tmp_path):
    raw = json.loads(readme_block("json"))
    raw["output_path"] = str(tmp_path / pathlib.Path(raw["output_path"]).name)
    raw["spectrum_csv"] = str(tmp_path / pathlib.Path(raw["spectrum_csv"]).name)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "--quiet"]) == 0
    report = json.loads(pathlib.Path(raw["output_path"]).read_text())
    assert report["summary"]["theorem_failures"] == []
    rows = list(csv.reader(pathlib.Path(raw["spectrum_csv"]).read_text().splitlines()))
    assert len(rows) > 1  # header and at least one eigenvalue row
