"""Every demo script runs from a source checkout and prints something."""

import glob
import os
import subprocess
import sys

import pytest

import mecnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.dirname(os.path.dirname(mecnet.__file__))
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
