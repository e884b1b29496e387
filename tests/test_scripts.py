"""The demo scripts run from the repository root and exit cleanly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60
    )


def test_solve_examples_script():
    proc = _run("scripts/solve_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert "== eq3 (pinched sums)" in proc.stdout


def test_render_separator_script(tmp_path):
    out = tmp_path / "separator.svg"
    proc = _run("scripts/render_separator.py", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "gadget holds: True" in proc.stdout
    assert out.read_text().startswith("<?xml")
