"""Every demo script, and the README's quick taste, runs against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = _run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_taste_runs(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick taste", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python(["-c", snippet], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "10\n"  # the uplink count its comment states
