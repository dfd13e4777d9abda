"""Each experiment script runs to its summary line; the output digests hold."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("compare_modes.py", ["--steps", "3"], "collapses="),
        ("mirror_objective_sweep.py", ["--points", "3"],
         "descent reached the reflection"),
    ],
)
def test_script_runs(script, args, summary):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout


# The lines `digest_outputs.py` printed before `step` read its next axis from
# the solver's candidate pair instead of calling `solve` (Python 3.11.7, numpy
# 2.4.6, BLAS: scipy-openblas 0.3.31.188.0, DYNAMIC_ARCH, Haswell kernel, which
# fixes the rounding of the 3-vector dots).  A deliberate change to the
# emitted bytes updates these lines; a fast path must keep them.
DIGEST_LINES = """\
solve                200  2ff5b0ed4306965e21583139a2d6d552c225d2d84e2f986d150ebb946341c122
feasible_set          50  3b63ac47c19b4d99b813f0a53f76fa0a4a50dd75aac7629a69810fce45a951a8
oracle.plain          50  1c0d71cf975da033297d1ab03c9feb523fa64b3922b3ac8728bf7d987c02615a
oracle.exclude       100  974696b86e4ef738fb11130913c9d5c0d5549e4f57b26d5b769a2b1d81e9f273
oracle.base2          50  3c34150176d15160ce8067da1e2cfba2c9edb1cedfd87abba7b408951887c750
oracle.infeasible     50  c6d2901b1d1ade7bf7dc90f885825415a5b5079e6b2b7007e730df7e3bc37be8
oracle.tol            78  7306eecb5a0752fe65d9711d5ca21018996ab0a902bb25f57710648a71dfb8a7
landscape             14  98a4c856b8282cd7cd2702a270af3d9b34f86f268f6df3df4f93f67b65af1ec4
simulate             400  a59205c1cd75bdcd038ee891f09d2a03a62ab7a1bcd89ecdad83aac2e53beacf
eigen_tol0           112  1fba571c0765c46364850e178daeb5e8a8e206a4cebaac899fd7eb5179715d0c
"""


def test_output_digests_unchanged():
    proc = _run("digest_outputs.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGEST_LINES

