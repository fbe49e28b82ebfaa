"""The README's examples run as written.

Each block is cut out of README.md with the boundaries the CI workflow's
``awk`` uses: from the first fenced block of the given language after the
heading to the next fence.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dashmine.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading: str, language: str) -> str:
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    fence = next(i for i in range(start, len(lines)) if lines[i].startswith("```" + language))
    end = next(i for i in range(fence + 1, len(lines)) if lines[i].startswith("```"))
    block = "\n".join(lines[fence + 1 : end]) + "\n"
    assert block.strip(), (heading, language)
    return block


def test_library_quickstart_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(readme_block("## Library quickstart", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_pipeline_runs_line_by_line(tmp_path):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    dashmine = f"{shlex.quote(sys.executable)} -m dashmine.cli "
    for line in readme_block("## CLI pipeline", "bash").splitlines():
        command = line.replace("dashmine ", dashmine, 1) if line.startswith("dashmine ") else line
        result = subprocess.run(
            ["bash", "-c", command],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        allowed = (0, 1) if line.startswith("dashmine lint ") else (0,)
        assert result.returncode in allowed, (line, result.stderr)
    assert (tmp_path / "work" / "summary.json").exists()


@pytest.mark.parametrize("language", ["json", "xml"])
def test_interchange_example_parses(tmp_path, language):
    document = tmp_path / f"readme_example.{language}"
    document.write_text(readme_block("### Interchange formats", language))
    out = tmp_path / "out"
    assert main(["parse", "--input", str(document), "--min-charts", "0", "--out", str(out)]) == 0
    assert (out / "dashboards.ndjson").read_text().strip()
