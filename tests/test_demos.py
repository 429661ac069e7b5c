"""Each demo runs to completion, with and without -O, and writes nothing to
stderr (no traceback, no warning)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import equifan

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, flags):
    srcdir = str(Path(equifan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([srcdir, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *flags, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
