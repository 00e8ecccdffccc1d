"""Every demo runs to completion and every public name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulsforge

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # what a demo keeps, such as demo 05's run, stays in tmp_path
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_public_names_resolve():
    missing = [name for name in ulsforge.__all__ if not hasattr(ulsforge, name)]
    assert missing == []
