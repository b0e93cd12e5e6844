"""Each demo script runs to completion in a new interpreter that imports
the package from this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == ["european_smile_demo.py", "mc_validation_demo.py", "vix_smile_demo.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
