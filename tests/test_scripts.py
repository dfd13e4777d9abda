"""Each experiment script runs to its summary line; the output digests hold;
the README's library quickstart prints what its comments say."""

import contextlib
import io
import json
import math
import re
import subprocess
from pathlib import Path

from fractions import Fraction

import mpmath
import numpy as np
import pytest

import digest_outputs
import exact_replay
from helpers import non_eigen_pair, run_cli, run_python
from spincollapse import SimConfig, binary_entropy, simulate

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


def _simulate_document(tmp_path, *flags: str) -> Path:
    run = run_cli(["simulate", "--rho", "0.3", "--tau", "1.0", "--theta-i", "1.2",
                   "--phi-i", "0.4", *flags])
    assert run.exit_code == 0, run.stderr
    path = tmp_path / "run.json"
    path.write_bytes(run.stdout)
    return path


def test_exact_replay_prints_the_horizon(tmp_path):
    path = _simulate_document(tmp_path, "--mode", "reflective", "--steps", "80",
                              "--outcome", "risk:alignment")
    proc = _run("exact_replay.py", str(path), str(path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[0] == lines[1]
    # the map stretches rounding by up to 4 a step: the float run shadows its
    # exact orbit for a few dozen steps, not for 80
    k = int(re.search(r"shadowing horizon step (\d+) of 80 ", lines[0]).group(1))
    assert 15 <= k < 60
    assert lines[2] == f"horizon over 2 runs: min {k}, median {k}, max {k}"


def test_exact_replay_rejects_a_strict_run(tmp_path):
    path = _simulate_document(tmp_path, "--mode", "strict", "--steps", "3")
    proc = _run("exact_replay.py", str(path))
    assert proc.returncode == 2 and "expected a reflective simulate document" in proc.stderr


@pytest.mark.parametrize("outcome", ["born", "risk:born-surprise", "risk:alignment",
                                     "risk:constant"])
def test_float_runs_shadow_their_exact_orbit(outcome):
    # the map stretches a rounding error by 2 a step on average: from
    # generic starts the float run stays within 1e-9 of the exact orbit of
    # its start for at least 18 steps under every rule
    rng = np.random.Generator(np.random.PCG64(20261026))
    for seed in range(12):
        state, axis = non_eigen_pair(rng, margin=0.05)
        config = SimConfig(steps=40, mode="reflective", outcome=outcome, seed=seed)
        doc = {"command": "simulate", "mode": "reflective", "results": {
            "trajectory": [t.to_dict() for t in simulate(state, axis, config)]}}
        k, compared, _ = exact_replay.horizon(doc)
        assert compared == 40 and k is not None and 18 <= k < 40, (seed, k)


OUTCOME_RUNS = [[1] * 12, [-1] * 12, [1, -1] * 6, [-1, -1, 1, -1, 1, 1, 1, -1, 1, -1, -1, 1]]


@pytest.mark.parametrize("outcomes", OUTCOME_RUNS)
@pytest.mark.parametrize("q", range(1, 9))
def test_a_dyadic_start_absorbs_at_its_denominator(q, outcomes):
    # delta_0 / pi = j / 2^q, j odd: each step halves the denominator and
    # keeps the numerator odd, so delta_q / pi is the first integer, c = +-1
    for j in range(1, 2 ** (q + 1), 2):
        orbit = exact_replay.delta_orbit(Fraction(j, 2**q), outcomes[:q])
        assert [d.denominator for d in orbit] == [2 ** (q - k) for k in range(q + 1)]
        with mpmath.workprec(exact_replay.BITS):
            c = exact_replay.c_orbit(mpmath.cospi(mpmath.mpf(j) / 2**q), outcomes[:q])
            for d, ck in zip(orbit, c):
                assert abs(ck - mpmath.cospi(d.numerator / mpmath.mpf(d.denominator))) < 1e-100
            assert abs(abs(c[q]) - 1) < 1e-100 and all(abs(ck) < 1 for ck in c[:q])


@pytest.mark.parametrize("outcomes", OUTCOME_RUNS)
def test_a_third_keeps_cos_beta_at_a_half(outcomes):
    orbit = exact_replay.delta_orbit(Fraction(1, 3), outcomes)
    assert set(orbit) <= {Fraction(1, 3), Fraction(4, 3)}
    with mpmath.workprec(exact_replay.BITS):
        c = exact_replay.c_orbit(mpmath.mpf(0.5), outcomes)
    assert [abs(ck) for ck in c] == [0.5] * len(c)
    assert [ck for ck in c[1:]] == [s * -0.5 for s in outcomes]


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
cli.json             221  6d1a046dcaf1f8ee893650818239cf6f17e0f01345e1d8efa6d59b9ac327af5b
cli.simulate_long     56  602eb6590b603c431c4a6261085a680fb52b0868013685da3e5def0ecbe52def
cli.pinned.solve-strict-e     1  f9411175f0f02fcdf3ed054aa88f387bb7b07a555364919148cf0197028fcbb9
cli.pinned.solve-strict-2     1  325d6d0fbea12830f5d10fef690495e601faad780c7aef7a5f7e3c879b411cbf
cli.pinned.solve-reflective-e     1  e8eff3adc994568d34e680952f8c784e1d29945caf3e3dc54d56b1a1ce3ad9ae
cli.pinned.solve-reflective-2     1  e4ff6f47440b3886c544f6573f64ad8d31b9761e7c4ff334f4e7415715565c1a
cli.pinned.oracle      1  bb17cb4030ced1a167545dfa9d9415abdd08535e2bf4f0af95e25d16e92caf65
cli.pinned.oracle-exclude     1  8b7ff65f03c494b0b386c84b19672f928a078bc3376ee5b5a89454fc70e66578
cli.pinned.oracle-eigenstate     1  6c35c3965bddbfee96acc8b44ab65af8a829a3e74ddb4a167193ac2bafa4fd0b
cli.pinned.oracle-infeasible     1  5585321a7102279f1ea95ec8b4bb44c1b4ff466a50294f62e87a5c9fd39e5931
cli.pinned.simulate-born     1  40a43ae8d46212af5d5a6e13db1c135392bda2c0335a1bd9cb0a860b18cdd9b4
cli.pinned.simulate-born-surprise     1  28411b3181beda4da924a928ce34cbc7cd35878549365a519b94ca8c0ce9e154
cli.pinned.simulate-alignment     1  53bdd0739a7442e88a087d3252e2d79ee417af79afe18b306662872c4e9dad24
cli.pinned.simulate-constant     1  70d465137f38f80a062c6c8da556a5ba63b006f589533aed2dc5ea67bbbf1585
cli.pinned.simulate-flags-reordered     1  70d465137f38f80a062c6c8da556a5ba63b006f589533aed2dc5ea67bbbf1585
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
cli.pinned.simulate-near-pole     1  af0490671012c99b086c7c2fb506462c747c02fbb91241174799dba522ab0072
cli.pinned.oracle-constraint-tol-inf     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.oracle-exclude-trivial-inf     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.simulate-seed-beyond-64-bits     1  cd98998afc385eefa0b40e6244bcfa9d61850f8fc2054f8c1f3926b3e310522a
cli.pinned.simulate-seed-64-bit-max     1  ca6263ba846aef25cfba5b2b3a3fb89f88df1a57ad0d34ba55412c45581a335d
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
simulate             400  89348943d66029318913b82e2c0a400831744ab77726e663b4e3ea2cf51ae8e2
simulate.long        208  d823767eabfe9dbdd7f077dfbd7b052d99c1f9c0db303746da835ea02a43f761
simulate.born_long    28  2f68cf97fcc186362d261a16527eee0bbd82573d9351709093ebfeb2e6e08ee1
eigen_tol0           112  c0a0babe9ca11236e81ff4bef6e308fe3177096afc4bd4872f808a80bc97c4ff
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
        "[1, -1, 1]", "Axis(theta=1.0471975511965987, phi=0.0)"]


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
