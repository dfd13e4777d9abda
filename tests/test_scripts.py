"""Smoke tests: each experiment script runs to its summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("compare_modes.py", ["--steps", "3"], "collapses="),
        ("mirror_objective_sweep.py", ["--points", "3"],
         "descent reached the reflection"),
    ],
)
def test_script_runs(script, args, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout
