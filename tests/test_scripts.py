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


# The lines `digest_outputs.py` printed before `step` read its next axis from
# the solver's candidate pair instead of calling `solve` (Python 3.11.7, numpy
# 2.4.6).  The ``simulate.long`` line was recorded on the `simulate` that still
# ran every step of an absorbed tail.  The ``solve``, ``feasible_set``,
# ``simulate`` and ``simulate.long`` lines are the bytes of the plain float sum
# `_dot3` for the 3-vector dots, which the numpy route printed when
# scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH) ran its Haswell kernel.
# The ``simulate`` and ``simulate.long`` lines were re-recorded when `step`
# took the mirror r = 2 (n_i . m) m - n_i itself as its next axis (n_i in
# strict mode) instead of the canonically smaller of the two candidates.
# The ``simulate.born_long`` line was recorded on the `simulate` that drew
# one `rng.random()` per Born step, before it drew its uniforms in blocks
# and, later, in one array per run.
# The ``kernels`` line was recorded on the `born_up` and collapse frame that
# clamped through `min` and `max`, and on the `select_outcome` that called
# `RiskFunction.evaluate` once per outcome.
# The ``cli.json`` line was recorded on the CLI that wrote its documents with
# `json.dumps(doc, indent=2)`, held while a hand-written copy of that encoder
# (`cli._write`) wrote them, and holds on `json.dumps` again.
# The ``amplitudes`` line was recorded on the `state_from_amplitudes` that
# clamped rho and took the phase of a subnormal |down| as it was; none of
# its pairs has a subnormal |down| beside a normal |up|.
# The ``vectors`` line was recorded on the 3-vector readers that took
# `math.hypot` of the vector as given and reduced the `atan2` angles through
# `_reduce_angles`; every one of its vectors has its largest part in
# [2**-1022, 2**1022), where the readers do not rescale.
# The ``cli.simulate_long`` line was recorded on the CLI that wrote each
# trajectory record as its `TrajectoryStep.to_dict` document through
# `cli._write`, since deleted, before the records were written from one
# template.
# The ``oracle.plain``, ``oracle.exclude``, ``oracle.base2``, ``oracle.tol``,
# ``landscape``, ``landscape.shapes`` and ``cli.json`` lines were re-recorded
# when `solver._grid` built its trig exactly antipodal; in ``cli.json`` only
# oracle documents moved.  `_UNMIRRORED_LINES` holds their earlier values.
# The ``oracle.exclude`` and ``oracle.tol`` lines, here and in
# `_UNMIRRORED_LINES`, were re-recorded when the oracle named the exclusion
# radius where the exclusion, not the band, left no grid point: only the
# messages of those errors moved.
# The ``landscape`` and ``landscape.shapes`` lines were re-recorded when
# `_binary_entropy_grid` built its entropies from |n_f . v|, which makes them
# even bit for bit; `_PARENT_RULE_LINES` holds their earlier values.
# A deliberate change to the emitted bytes updates these lines; a fast path
# must keep them.
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


# The byte change of the antipodal grid is its trig's alone: with the earlier
# trig (`helpers.grid_unmirrored`) and entropy rule patched in, the script
# prints every line it printed before, through the cell-by-cell table.
_UNMIRRORED_LINES = """\
oracle.plain          50  1c0d71cf975da033297d1ab03c9feb523fa64b3922b3ac8728bf7d987c02615a
oracle.exclude       100  4e6a938879b3dabe56819dc9732e77989ee070e3d062aab441791f56b6a27a64
oracle.base2          50  3c34150176d15160ce8067da1e2cfba2c9edb1cedfd87abba7b408951887c750
oracle.tol            78  1977ae1ce1ff238023ad8d507016b6ac6adb04a7cbb884c2c16e7724089852e1
landscape             14  98a4c856b8282cd7cd2702a270af3d9b34f86f268f6df3df4f93f67b65af1ec4
landscape.shapes      65  357af32f5f8c2806a284ba6d0e55b162bc314dcdc020d4058ea19ad92db9dbbb
cli.json             221  96c81fc55d140ee9af45f72222a2a18680c89b2f1b6e62f4c15529de6cdb93f9
"""
# The byte change of the even entropies is their rule's alone: with the
# earlier rule (`helpers.binary_entropy_grid_of_p`) patched in, the script
# prints every line it printed before.
_PARENT_RULE_LINES = """\
landscape             14  436b9e746f805ac9fdd129dd7719c8c31713ca71f1a26ec46336ca31e5f5e577
landscape.shapes      65  8207d6f1aa2d3d8809581ea26e64edadff61622a9421828f7bfae4c40d2c7b3c
"""
# Neither patched grid is even, so the landscape table is formatted cell by
# cell (`helpers.landscape_table`).
_EARLIER_RUN = """\
import runpy, sys
sys.path.insert(0, sys.argv[1])
import helpers
from spincollapse import cli, solver
solver._binary_entropy_grid = helpers.binary_entropy_grid_of_p
cli._table = helpers.landscape_table
if sys.argv[3] == "unmirrored":
    solver._grid = helpers.grid_unmirrored
runpy.run_path(sys.argv[2], run_name="__main__")
"""


def _check_earlier_lines(variant: str, lines: str) -> None:
    proc = _python("-c", _EARLIER_RUN, str(ROOT / "tests"),
                   str(ROOT / "scripts" / "digest_outputs.py"), variant)
    assert proc.returncode == 0, proc.stderr
    earlier = {line.split()[0]: line for line in lines.splitlines()}
    assert proc.stdout.splitlines() == [
        earlier.get(line.split()[0], line) for line in DIGEST_LINES.splitlines()]


def test_output_digests_on_unmirrored_trig():
    _check_earlier_lines("unmirrored", _UNMIRRORED_LINES)


def test_output_digests_on_parent_entropy_rule():
    _check_earlier_lines("mirrored", _PARENT_RULE_LINES)


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
