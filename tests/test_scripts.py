"""Each experiment script runs to its summary line; the output digests hold;
the README's library quickstart prints what its comments say."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spincollapse import binary_entropy

ROOT = Path(__file__).resolve().parent.parent


def _python(*argv: str, **extra_env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def _run(script: str, *args: str, **extra_env: str) -> subprocess.CompletedProcess:
    return _python(str(ROOT / "scripts" / script), *args, **extra_env)


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("compare_modes.py", ["--steps", "3"], "collapses="),
        ("mirror_objective_sweep.py", ["--points", "3"],
         "descent reached the reflection"),
        ("long_run_law.py", ["--steps", "2000"], "mean s_i: predicted 0.386294"),
    ],
)
def test_script_runs(script, args, summary):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert summary in proc.stdout


# The lines `digest_outputs.py` prints, recorded on Python 3.11.7, numpy
# 2.4.6 and click 8.4.0: numpy's vectorized `log` decides the grid bytes of
# the ``oracle.*``, ``landscape*`` and ``cli.json`` lines.  The 3-vector dots
# are the plain float sum `_dot3`, so no line depends on the BLAS build.
# The families cover the solver (``solve``, ``feasible_set``), the grid
# (``oracle.*``, ``landscape*``), the CLI documents (``cli.*``),
# trajectories (``simulate*``), near-eigenstates at eigen_tol 0
# (``eigen_tol0``), and the scalar kernels and readers (``kernels``,
# ``amplitudes``, ``vectors``); the script's docstring says which inputs
# each one hashes.  A deliberate change to the emitted bytes re-records the
# line it moves and says why in CHANGES.md; a fast path must keep them.
DIGEST_LINES = """\
solve                200  a8784dd13f43001253c43cc8c51a48596a555009a43c765704e3709fdd86da4a
feasible_set          50  a5eebb6fbd7621ac3d79341d506f9051534355e19dde3c6d48c7a7944a4d47aa
oracle.plain          50  02920fdf4dab17354b34c736891405ac10e8006487772f39df5dc48e1d81d546
oracle.exclude       100  112e418cbbde08687a87f4c38b967807e8f62a4223fca8e364cec6c23b6dd4dc
oracle.base2          50  6ea687f7fb26354fb12bcc0e3c12ad404cbd5ecd8c7c607f8f69f12abbbff71c
oracle.infeasible     50  c6d2901b1d1ade7bf7dc90f885825415a5b5079e6b2b7007e730df7e3bc37be8
oracle.tol            78  9ff966508d1c8f6fde1fb0730dd95916583c3f5529bb9203bbcd52148f46ba3e
landscape             14  16e09c3f6da24d24da74e6206c35bab9d9f17118a867c16aa01d5e19325bd1cd
landscape.shapes      65  dc2af32ab59ea29af789a78d3f27aa25b6260f08ca65703b0aea0e8bc4d7dd68
cli.json             221  a17084c5861bc2324ff5c38b67a479a1cfcaba8cfe01c82ccb72afe659f1ca8a
cli.simulate_long     56  e6109c8856fdab8c87de09974466f21c915be91f56e5d581da191c10a432037d
simulate             400  8a6823a42166fa9db84273c532bb2b0a76c38f5136bcdfebb52fca155bc76706
simulate.long        208  ae8dee897b4ecdd441ee569e8700f2fde8c96d78f4cbc8235f6cc1d01d6f270f
simulate.born_long    28  62143250fdccb5f8736b6ba920cfcba01db96481e1b6b36c5cbe3de78199063d
eigen_tol0           112  1fba571c0765c46364850e178daeb5e8a8e206a4cebaac899fd7eb5179715d0c
kernels              910  b67f07670f872f0ce3c8c044fc97eb5e228c97150bf21f83154501c1442b3fb8
amplitudes            60  c5d20d4964082740269ca055d92ce571c89b8f7139e0e7c5bd5cc98bac079789
vectors               60  d333e48592596da9ad66ddf8a61a171ac75ed8fba43d2c209a476f45863a58b4
"""


def test_output_digests_unchanged():
    proc = _run("digest_outputs.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGEST_LINES


# The emitted bytes do not depend on the BLAS build: the same lines under two
# OpenBLAS kernels forced in place of the one picked for the CPU, whose
# `np.dot` calls round 3-vector dots differently.  OpenBLAS reads
# OPENBLAS_CORETYPE only when built with DYNAMIC_ARCH; on other builds the
# variable is ignored and this check holds trivially.
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_output_digests_blas_independent(coretype):
    proc = _run("digest_outputs.py", OPENBLAS_CORETYPE=coretype)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DIGEST_LINES


# One sha256 over the (rho, tau) bytes of `state_from_bloch` on 2,000 seeded
# Gaussian vectors: a norm taken through `np.dot` rounds differently from one
# OpenBLAS kernel to another on about 6 % of them.
_BLOCH_DIGEST = """\
import hashlib, struct
import numpy as np
from spincollapse import state_from_bloch
h = hashlib.sha256()
for v in np.random.default_rng(11).standard_normal((2000, 3)):
    s = state_from_bloch(v)
    h.update(struct.pack("<2d", s.rho, s.tau))
print(h.hexdigest())
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_state_from_bloch_blas_independent(coretype):
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_BLOCH_DIGEST, {})
    proc = _python("-c", _BLOCH_DIGEST, OPENBLAS_CORETYPE=coretype)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == here.getvalue()


def _quickstart() -> tuple[str, list[str]]:
    """The README's "Library quickstart" code block and its `print` comments."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    comments = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    return code, comments


def test_readme_quickstart():
    code, comments = _quickstart()
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 4

    sol = namespace["sol"]
    assert comments[0] == "(Axis(theta=pi/3, phi=pi), Axis(theta=2pi/3, phi=0))"
    expected = [(math.pi / 3, math.pi), (2 * math.pi / 3, 0.0)]
    for axis, (theta, phi) in zip(sol.minimizers, expected, strict=True):
        assert abs(axis.theta - theta) <= 1e-12 and abs(axis.phi - phi) <= 1e-12
    assert comments[1] == "0.5623... == H(1/4) in nats"
    assert abs(sol.objective - binary_entropy(0.25)) <= 1e-12
    assert printed[1].startswith("0.5623")
    # the outcomes and the last axis are quoted as printed
    assert printed[2:] == comments[2:] == [
        "[1, -1, 1]", "Axis(theta=1.047197551196598, phi=0.0)"]


# The two workloads `BENCHMARK.json` gates, run for half a second each at the
# benchmark's self-test sizes: every operation's output passes the checks the
# benchmark itself applies, so a change that breaks them fails here too.
@pytest.mark.parametrize("workload", ["trajectory", "cli_inproc"])
def test_gated_workload_smoke(workload):
    proc = _python(str(ROOT / "perfbench" / "worker.py"), workload, "1", "0.5",
                   "measure", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
