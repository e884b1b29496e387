"""The demo scripts exit cleanly when run from any directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    # without PYTHONPATH, so the scripts must find the package themselves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )


def test_solve_examples_script(tmp_path):
    proc = _run(tmp_path, str(SCRIPTS / "solve_examples.py"))
    assert proc.returncode == 0, proc.stderr
    assert "== eq3 (pinched sums)" in proc.stdout


def test_render_separator_script(tmp_path):
    proc = _run(tmp_path, str(SCRIPTS / "render_separator.py"), "separator.svg")
    assert proc.returncode == 0, proc.stderr
    assert "gadget holds: True" in proc.stdout
    assert (tmp_path / "separator.svg").read_text().startswith("<?xml")
