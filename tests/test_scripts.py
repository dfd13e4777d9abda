"""Each experiment script runs to its summary line; the output digests hold;
the README's library quickstart prints what its comments say."""

import contextlib
import io
import json
import math
import re
import subprocess
from pathlib import Path

import pytest

import digest_outputs
from helpers import run_python
from spincollapse import binary_entropy

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / script), *args)


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


# The lines `digest_outputs.py` prints, one per output family (its docstring
# says which inputs each one hashes; ``cli.pinned.<name>`` is the command
# `name` of `PINNED`), recorded on Python 3.11.7, numpy 2.4.6 and orjson 3.8.3: numpy's
# vectorized `log` decides the grid bytes of the ``oracle.*``, ``landscape*``
# and ``cli.*`` lines.  The 3-vector dots are the plain float sum `_dot3`,
# the same on any BLAS build (`test_no_module_routes_through_blas`).  These
# lines are the suite's one record of emitted bytes: a deliberate byte change
# re-records the lines it moves and says why in CHANGES.md; any other
# change, a fast path included, must keep them.
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
cli.pinned.solve-strict-e     1  f9411175f0f02fcdf3ed054aa88f387bb7b07a555364919148cf0197028fcbb9
cli.pinned.solve-strict-2     1  325d6d0fbea12830f5d10fef690495e601faad780c7aef7a5f7e3c879b411cbf
cli.pinned.solve-reflective-e     1  e8eff3adc994568d34e680952f8c784e1d29945caf3e3dc54d56b1a1ce3ad9ae
cli.pinned.solve-reflective-2     1  e4ff6f47440b3886c544f6573f64ad8d31b9761e7c4ff334f4e7415715565c1a
cli.pinned.oracle      1  bb17cb4030ced1a167545dfa9d9415abdd08535e2bf4f0af95e25d16e92caf65
cli.pinned.oracle-exclude     1  8b7ff65f03c494b0b386c84b19672f928a078bc3376ee5b5a89454fc70e66578
cli.pinned.oracle-eigenstate     1  6c35c3965bddbfee96acc8b44ab65af8a829a3e74ddb4a167193ac2bafa4fd0b
cli.pinned.oracle-infeasible     1  5585321a7102279f1ea95ec8b4bb44c1b4ff466a50294f62e87a5c9fd39e5931
cli.pinned.simulate-born     1  e5770f0a7c86ed6c98b620a02cfc4d8136dc0df686bcc96eb63fef82ae1ec0a2
cli.pinned.simulate-born-surprise     1  6634d233bd9949f2a37011b49554276a93187ef808db81fb9d08f504e0fa8267
cli.pinned.simulate-alignment     1  6f4eb50e8f8b6759a1645974ac4a26c6475a9e2557ddf11a4d8fb7febe0d2dd2
cli.pinned.simulate-constant     1  0a3f11509c9ce548a159403fe44ff14d0c2b6a967a070d20def09b88b52717d8
cli.pinned.simulate-flags-reordered     1  0a3f11509c9ce548a159403fe44ff14d0c2b6a967a070d20def09b88b52717d8
cli.pinned.oracle-exclude-flags-reordered     1  8b7ff65f03c494b0b386c84b19672f928a078bc3376ee5b5a89454fc70e66578
cli.pinned.landscape-csv     1  affc3f7afd29c12a50c859e7ac1a188de59d0253ad91bf76e2fd0a9a634b4e6c
cli.pinned.landscape-tsv     1  7046501d22415a61f987fd9e0f7ce0bf69b44b71752e5f9ce40e18b47613ed10
cli.pinned.solve-degrees     1  b5aafbe8f8442d28c335d90558d8f0bb3b058057f5c0c3dc3bd1bf8ba829cc65
cli.pinned.solve-degrees-flags-reordered     1  b5aafbe8f8442d28c335d90558d8f0bb3b058057f5c0c3dc3bd1bf8ba829cc65
cli.pinned.solve-amplitudes     1  bdbcf78dabea20bedf40e406ecdf0bfd2796b29bdd1c921ea36dc674c89eb97a
cli.pinned.landscape-2x3-base2-degrees     1  1dc2c7233b960cbf438d57732504f5019b9dfdc817f54b1aba99158d941d32ee
cli.pinned.landscape-tsv-amplitudes     1  de6c5d9fa233f161db8701c36ef55a8ddc49d2babb592495c962757e1968a7ce
cli.pinned.oracle-odd-grid-base2-exclude     1  da6c927754ed28ba0e65efcf5ca6c9cf5ec57b05d5524f2f80b7fdb636942b1f
cli.pinned.oracle-merged-circle     1  4841d9b18aef1a6c7704de649a93acd4b38ec1e3395133aee0d88719aa3e8970
cli.pinned.simulate-strict-absorbs     1  d9398e184418a5264cc620dfbfa11d0ba46166bf9242b6d40da4f84ac1b7ea17
cli.pinned.simulate-born-tol0-base2     1  ea6ecf80684c59591c66955e69a0ab93cafa2b2a505181ec7b25283b7c56228b
cli.pinned.landscape-odd-rows     1  e637440a376bb630e9a0d9fac20c82a82860c6837aa8b4b5f41b366f6effefe9
cli.pinned.landscape-pole-axis     1  26423529bfb1428347cbbfe5393b41facedc7cbe78a116da9eb47037e985dd91
cli.pinned.landscape-eigenstate     1  b6f2fc658065c541c89864d2664713a8e51bd75c3f893bae4db682b9f75cf3fc
cli.pinned.landscape-odd-columns     1  c9ce8c122c960d5ec9ca3a4b1e87dfb3540b0479deda583ba70bef00ce16cbc8
cli.pinned.landscape-default-grid     1  245acb906b3b845a5ca0b350fed6b0cf55879793f377dc78a0c71361723fec0a
cli.pinned.landscape-respelled-cells     1  ad40278d987a2f3726e0caaa11a09d62ff2297f7ae158500c9a6ea35619b21d8
cli.pinned.simulate-near-pole     1  a9f60724490e7523e706de7af86f1665e89203d949398c201e72413dde4c16e2
cli.pinned.oracle-constraint-tol-inf     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.oracle-exclude-trivial-inf     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.simulate-seed-beyond-64-bits     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.simulate-seed-64-bit-max     1  d59405e9e2de10dc869bdae054d63d22650ab599dcb9c0e1a5bc639c72eb5487
cli.pinned.solve-fullwidth-amplitude     1  ea8f5847fe9bba7255c6b7f840c0fc127e3f27ff57a1b1a477230e84adb8c9dc
cli.pinned.solve-astral-amplitude     1  498c75ef16d6f90b1e18e39e43ae20c2484407db2b820cae7b5059f4459fc7ff
cli.pinned.solve-negative-amplitude     1  08b1130d8aa1f7d3f88cd02ab2211fe1db7b84d64f7a552168958eac3cdf2ee2
cli.pinned.simulate-equals-values     1  9df6abe53357d70be0feb43062f650323f278a08c10e7a0e1781e17e24c887cf
cli.pinned.solve-repeated-mode     1  f9411175f0f02fcdf3ed054aa88f387bb7b07a555364919148cf0197028fcbb9
cli.pinned.solve-unknown-option     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.solve-degrees-with-value     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.simulate-missing-value     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.no-arguments     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.unknown-command     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
simulate             400  8a6823a42166fa9db84273c532bb2b0a76c38f5136bcdfebb52fca155bc76706
simulate.long        208  ae8dee897b4ecdd441ee569e8700f2fde8c96d78f4cbc8235f6cc1d01d6f270f
simulate.born_long    28  62143250fdccb5f8736b6ba920cfcba01db96481e1b6b36c5cbe3de78199063d
eigen_tol0           112  1fba571c0765c46364850e178daeb5e8a8e206a4cebaac899fd7eb5179715d0c
kernels              910  b67f07670f872f0ce3c8c044fc97eb5e228c97150bf21f83154501c1442b3fb8
amplitudes            60  c5d20d4964082740269ca055d92ce571c89b8f7139e0e7c5bd5cc98bac079789
vectors               60  d333e48592596da9ad66ddf8a61a171ac75ed8fba43d2c209a476f45863a58b4
"""


@pytest.fixture(scope="session")
def printed_digests() -> dict[str, str]:
    """The lines `digest_outputs.main` prints, run once in this process,
    by family."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert digest_outputs.main() == 0
    return {line.split()[0]: line for line in out.getvalue().splitlines()}


_FAMILIES = [line.split()[0] for line in DIGEST_LINES.splitlines()]


@pytest.mark.parametrize("line", DIGEST_LINES.splitlines(), ids=_FAMILIES)
def test_output_digests_unchanged(printed_digests, line):
    assert printed_digests.get(line.split()[0]) == line


def test_every_printed_family_is_recorded(printed_digests):
    assert list(printed_digests) == _FAMILIES


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
    proc = run_python(str(ROOT / "perfbench" / "worker.py"), workload, "1", "0.5",
                   "measure", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
