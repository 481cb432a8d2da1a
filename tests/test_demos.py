"""Every demo script, and the README's quick taste, runs against the current package."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_taste_runs(tmp_path):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick taste", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", snippet, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "10\n"  # the uplink count its comment states
