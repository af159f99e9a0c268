"""Every script in demos/, and the README's Quick start, runs to completion
against the in-tree package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Quick start"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = _run_python(["-c", snippet])
    assert proc.returncode == 0, proc.stderr
