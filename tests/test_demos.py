"""Each demo script runs to the end against the library in this tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpbs

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["eulerian_reduction", "pbs_minimisation", "switch_vs_circuit"])
def test_demo_exits_cleanly(name):
    src = str(Path(cpbs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout
