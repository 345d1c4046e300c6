"""Every demo script runs to completion against the library in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bibmet

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(Path(bibmet.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_demos_found():
    assert DEMOS
