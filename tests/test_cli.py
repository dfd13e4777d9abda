"""Command-line contract: envelopes, exit codes, round-trips, formats."""

import csv
import hashlib
import io
import json
import math

import pytest
from click.testing import CliRunner

from spincollapse import __version__
from spincollapse.cli import main

H_QUARTER = 0.5623351446188083
H_QUARTER_BITS = 0.8112781244591328  # same value in base 2
PI_THIRD = "1.0471975511965976"


@pytest.fixture
def runner():
    return CliRunner()


def _json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _argv_from_echo(command, echo):
    argv = [command]
    for key, value in echo.items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv.extend([flag, str(value)])
    return argv


class TestSolveCommand:
    def test_strict_example(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["solve", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                 "--phi-i", "0", "--mode", "strict"],
            )
        )
        res = doc["results"]
        assert res["no_collapse"] is False
        assert res["objective"] == 0.0
        got = {(round(a["theta"], 9), round(a["phi"], 9)) for a in res["minimizers"]}
        assert got == {
            (round(math.pi / 3, 9), 0.0),
            (round(2 * math.pi / 3, 9), round(math.pi, 9)),
        }

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_near_eigenstate_at_zero_tol_reports_two_minimizers(self, runner, mode):
        doc = _json(
            runner.invoke(
                main,
                ["solve", "--rho", "0.5377366313690835", "--tau", "2.673200529835764",
                 "--theta-i", "1.4952512277980856", "--phi-i", "2.673200529835764",
                 "--tol", "0", "--mode", mode],
            )
        )
        res = doc["results"]
        n_i = {"theta": 1.4952512277980856, "phi": 2.673200529835764}
        opposite = {"theta": 1.6463414257917075, "phi": 5.814793183425557}
        mirror_value = 1.6142867579807968e-14
        assert res["no_collapse"] is False
        assert res["minimizers"] == [n_i, opposite]
        assert res["extrema"] == [
            {"axis": n_i, "value": 0.0, "kind": "min"},
            {"axis": n_i, "value": mirror_value, "kind": "max"},
            {"axis": opposite, "value": 0.0, "kind": "min"},
            {"axis": opposite, "value": mirror_value, "kind": "max"},
        ]

    def test_eigenstate_no_collapse(self, runner):
        doc = _json(
            runner.invoke(main, ["solve", "--rho", "1", "--tau", "0", "--theta-i", "0"])
        )
        assert doc["results"]["no_collapse"] is True
        assert doc["results"]["minimizers"] == [{"theta": 0.0, "phi": 0.0}]

    def test_degenerate_reflective_on_great_circle(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["solve", "--rho", "0.5", "--tau", "0", "--theta-i", "0",
                 "--mode", "reflective"],
            )
        )
        # Bloch vector is +x; minimizers must be orthogonal to it
        for a in doc["results"]["minimizers"]:
            nx = math.sin(a["theta"]) * math.cos(a["phi"])
            assert abs(nx) <= 1e-9

    def test_degrees_matches_radians(self, runner):
        deg = _json(
            runner.invoke(
                main, ["solve", "--rho", "1", "--theta-i", "60", "--degrees"]
            )
        )
        rad = _json(
            runner.invoke(main, ["solve", "--rho", "1", "--theta-i", PI_THIRD])
        )
        assert deg["results"] == rad["results"]

    def test_amplitudes_match_probability_weight(self, runner):
        amp = _json(
            runner.invoke(
                main,
                ["solve", "--amp-up", "1", "--amp-down", "0", "--theta-i", PI_THIRD],
            )
        )
        rho = _json(
            runner.invoke(main, ["solve", "--rho", "1", "--theta-i", PI_THIRD])
        )
        assert amp["results"] == rho["results"]

    @pytest.mark.parametrize("scale", ["1.5e308", repr(2.0**-1070)])
    def test_amplitudes_at_extreme_scales(self, runner, scale):
        # the pair is rescaled by a power of two before its norm overflows or
        # turns subnormal, so it solves like the unit-scale pair
        def results(amp):
            argv = ["solve", "--amp-up", amp, "--amp-down", amp, "--theta-i", PI_THIRD]
            return _json(runner.invoke(main, argv))["results"]

        assert results(scale) == results("1")

    def test_base_two_rescales_objective(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["solve", "--rho", "1", "--theta-i", PI_THIRD,
                 "--mode", "reflective", "--entropy-base", "2"],
            )
        )
        assert doc["entropy_base"] == "2"
        assert doc["results"]["objective"] == pytest.approx(
            H_QUARTER_BITS, abs=1e-12
        )


class TestLandscapeCommand:
    def test_two_by_two_grid(self, runner):
        result = runner.invoke(
            main,
            ["landscape", "--rho", "1", "--tau", "0", "--theta-i", "0",
             "--grid", "2x2"],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 4
        assert list(rows[0].keys()) == [
            "theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up",
        ]
        north = [r for r in rows if float(r["theta_f"]) == 0.0]
        for r in north:
            assert float(r["p_up"]) == 1.0
            assert float(r["s_f"]) == 0.0

    def test_self_transfer_is_zero(self, runner):
        result = runner.invoke(
            main, ["landscape", "--rho", "0.3", "--theta-i", "0", "--grid", "3x4"]
        )
        rows = list(csv.DictReader(io.StringIO(result.output)))
        for r in rows:
            if float(r["theta_f"]) == 0.0:  # the measured axis itself
                assert abs(float(r["s_up"])) <= 1e-12

    def test_feasible_rows_cluster_on_level_colatitudes(self, runner):
        result = runner.invoke(
            main,
            ["landscape", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
             "--grid", "200x400"],
        )
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 200 * 400
        near = [
            float(r["theta_f"])
            for r in rows
            if abs(float(r["constraint_residual"])) <= 5e-3
        ]
        assert near, "expected feasible rows on the scan"
        for theta in near:
            assert (
                min(abs(theta - math.pi / 3), abs(theta - 2 * math.pi / 3)) <= 0.03
            )

    def test_tsv_format(self, runner):
        result = runner.invoke(
            main,
            ["landscape", "--rho", "1", "--theta-i", "0", "--grid", "2x2",
             "--format", "tsv"],
        )
        header = result.output.splitlines()[0]
        assert header.split("\t") == [
            "theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up",
        ]

    def test_json_format_rejected(self, runner):
        result = runner.invoke(
            main,
            ["landscape", "--rho", "1", "--theta-i", "0", "--format", "json"],
        )
        assert result.exit_code == 2

    def test_grid_must_be_at_least_two(self, runner):
        result = runner.invoke(
            main, ["landscape", "--rho", "1", "--theta-i", "0", "--grid", "1x5"]
        )
        assert result.exit_code == 2


class TestOracleCommand:
    def test_defaults_small_discrepancy(self, runner):
        doc = _json(
            runner.invoke(
                main, ["oracle", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD]
            )
        )
        assert abs(doc["results"]["discrepancy"]) <= 0.01
        assert doc["results"]["oracle"]["no_collapse"] is False

    def test_eigenstate_both_no_collapse(self, runner):
        doc = _json(
            runner.invoke(main, ["oracle", "--rho", "1", "--theta-i", "0"])
        )
        assert doc["results"]["no_collapse"] is True
        assert doc["results"]["solver"]["no_collapse"] is True
        assert doc["results"]["oracle"]["no_collapse"] is True

    def test_exclude_trivial_finds_boundary_minimum(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["oracle", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                 "--mode", "reflective", "--exclude-trivial", "0.2"],
            )
        )
        assert 0.05 <= doc["results"]["oracle"]["objective"] <= 0.07
        assert any("boundary" in w for w in doc["warnings"])

    def test_infeasible_grid_exits_three(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "--rho", "0.9", "--tau", "0.3", "--theta-i", "1.0",
             "--phi-i", "0.5", "--grid", "8x8", "--constraint-tol", "1e-9"],
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["results"]["oracle"]["error"] == "infeasible-grid"
        assert doc["results"]["discrepancy"] is None


class TestSimulateCommand:
    def test_strict_absorbs(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["simulate", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                 "--phi-i", "0", "--steps", "3", "--mode", "strict",
                 "--outcome", "risk:born-surprise"],
            )
        )
        steps = doc["results"]["trajectory"]
        assert [s["no_collapse"] for s in steps] == [False, True, True]
        assert any("stand-in" in w for w in doc["warnings"])
        assert doc["results"]["rng"] is None

    def test_reflective_alternates_azimuth(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["simulate", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                 "--phi-i", "0", "--steps", "3", "--mode", "reflective",
                 "--outcome", "risk:born-surprise"],
            )
        )
        steps = doc["results"]["trajectory"]
        assert all(not s["no_collapse"] for s in steps)
        azimuths = [s["axis_measured"]["phi"] for s in steps]
        assert azimuths[0] == pytest.approx(0.0, abs=1e-9)
        assert azimuths[1] == pytest.approx(math.pi, abs=1e-9)
        assert azimuths[2] == pytest.approx(0.0, abs=1e-9)

    def test_eigenstate_single_record(self, runner):
        doc = _json(
            runner.invoke(
                main, ["simulate", "--rho", "1", "--theta-i", "0", "--steps", "1"]
            )
        )
        steps = doc["results"]["trajectory"]
        assert len(steps) == 1 and steps[0]["no_collapse"] is True

    def test_born_reports_rng(self, runner):
        doc = _json(
            runner.invoke(
                main,
                ["simulate", "--rho", "0.7", "--theta-i", "0.9", "--steps", "2",
                 "--outcome", "born", "--seed", "5"],
            )
        )
        assert doc["results"]["rng"] == "numpy.random.PCG64"

    def test_born_without_seed_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--rho", "1", "--theta-i", "1", "--steps", "1",
             "--outcome", "born"],
        )
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_unknown_risk_lists_builtins(self, runner):
        result = runner.invoke(
            main,
            ["simulate", "--rho", "1", "--theta-i", "1", "--steps", "1",
             "--outcome", "risk:leap-of-faith"],
        )
        assert result.exit_code == 2
        for name in ("constant", "born-surprise", "alignment"):
            assert name in result.output

    def test_identical_runs_bit_identical(self, runner):
        argv = ["simulate", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9",
                "--phi-i", "1.1", "--steps", "5", "--mode", "reflective",
                "--outcome", "born", "--seed", "7"]
        first = runner.invoke(main, argv)
        second = runner.invoke(main, argv)
        assert first.exit_code == 0
        assert first.output == second.output


class TestEnvelope:
    def test_structure(self, runner):
        doc = _json(
            runner.invoke(main, ["solve", "--rho", "1", "--theta-i", "1"])
        )
        assert list(doc.keys()) == [
            "tool", "command", "input", "entropy_base", "mode", "results", "warnings",
        ]
        assert doc["tool"] == {"name": "spincollapse", "version": __version__}
        assert doc["command"] == "solve"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9",
             "--phi-i", "1.1", "--mode", "reflective", "--entropy-base", "2"],
            ["oracle", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9",
             "--phi-i", "1.1", "--grid", "64x64", "--exclude-trivial", "0.25"],
            ["simulate", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9",
             "--phi-i", "1.1", "--steps", "4", "--outcome", "born", "--seed", "11"],
        ],
    )
    def test_round_trip_from_input_echo(self, runner, argv):
        first = _json(runner.invoke(main, argv))
        replay = _argv_from_echo(first["command"], first["input"])
        second = _json(runner.invoke(main, replay))
        assert second == first

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "doc.json"
        result = runner.invoke(
            main,
            ["solve", "--rho", "1", "--theta-i", "1", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "solve"

    def test_unwritable_out_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["solve", "--rho", "1", "--theta-i", "1",
             "--out", str(tmp_path / "missing" / "doc.json")],
        )
        assert result.exit_code == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--theta-i", "1"],  # no state
            ["solve", "--rho", "0.5", "--amp-up", "1", "--amp-down", "0",
             "--theta-i", "1"],  # state given both ways at once
            ["solve", "--amp-up", "1", "--theta-i", "1"],  # half an amplitude pair
            ["solve", "--rho", "2", "--theta-i", "1"],  # weight out of range
            ["solve", "--amp-up", "0", "--amp-down", "0", "--theta-i", "1"],
            ["solve", "--amp-up", "banana", "--amp-down", "1", "--theta-i", "1"],
            ["solve", "--rho", "1", "--theta-i", "1", "--format", "csv"],
            ["solve", "--rho", "1", "--theta-i", "1", "--tol", "-1"],
            # a tolerance of 1/2 or more would call every state an eigenstate
            ["solve", "--rho", "0.5", "--theta-i", "1", "--tol", "0.5"],
            ["solve", "--rho", "0.5", "--theta-i", "1", "--tol", "0.6"],
            ["oracle", "--rho", "0.5", "--theta-i", "1", "--tol", "0.5"],
            ["simulate", "--rho", "0.5", "--theta-i", "1", "--steps", "3",
             "--tol", "inf"],
            ["oracle", "--rho", "1", "--theta-i", "1", "--grid", "400"],
            ["oracle", "--rho", "1", "--theta-i", "1", "--grid", "4x4"],
            ["oracle", "--rho", "1", "--theta-i", "1", "--constraint-tol", "0"],
            ["simulate", "--rho", "1", "--theta-i", "1", "--steps", "0"],
            # a negative seed, whatever the outcome rule
            ["simulate", "--rho", "0.7", "--theta-i", "1", "--steps", "1",
             "--outcome", "born", "--seed", "-1"],
            ["simulate", "--rho", "0.7", "--theta-i", "1", "--steps", "1",
             "--seed", "-1"],
            # on an eigenstate the oracle still checks its flags before it stops
            ["oracle", "--rho", "1", "--theta-i", "0", "--grid", "2x2"],
            ["oracle", "--rho", "1", "--theta-i", "0", "--constraint-tol", "-1"],
            ["oracle", "--rho", "1", "--theta-i", "0", "--exclude-trivial", "0"],
            # each command takes only the flags it reads
            ["landscape", "--rho", "1", "--theta-i", "1", "--mode", "reflective"],
            ["landscape", "--rho", "1", "--theta-i", "1", "--tol", "0"],
            ["solve", "--rho", "1", "--theta-i", "1", "--format", "json"],
            ["oracle", "--rho", "1", "--theta-i", "1", "--format", "json"],
            ["simulate", "--rho", "1", "--theta-i", "1", "--steps", "1",
             "--format", "json"],
        ],
    )
    def test_exit_code_two(self, runner, argv):
        assert runner.invoke(main, argv).exit_code == 2

    @pytest.mark.parametrize("grid", ["4x4", "400"])
    def test_oracle_checks_grid_before_tol(self, runner, grid):
        # a bad grid is reported before a bad --tol, whatever its size
        argv = ["oracle", "--rho", "0.7", "--theta-i", "1", "--grid", grid, "--tol", "-1"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert "grid" in result.output and "eigen_tol" not in result.output

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output


# sha256 of stdout for a fixed command set, recorded before the grid code, the
# input echo and the outcome parsing were each merged into one helper
# (Python 3.11.7, numpy 2.4.6, click 8.4.0).  A deliberate change to the
# emitted documents updates these digests; anything else must keep them.
# The solve, oracle and simulate digests are the bytes of the plain float sum
# `_dot3` for the 3-vector dots, the same on any BLAS build.
# The simulate digests were re-recorded when `step` took the frame-free next
# axis (n_i in strict mode, the mirror r = 2 (n_i . m) m - n_i otherwise).
# The reordered argv lists pin the input echo to the declared flag order.
_STATE = "--rho 0.7 --tau 0.4 --theta-i 0.9 --phi-i 1.1"
_PINNED = [
    ("solve-strict-e", f"solve {_STATE}", 0,
     "fb965bcc41532624ec0f52f5b1c3238c2a6834347203a9b66d3f2880cd589b7a"),
    ("solve-strict-2", f"solve {_STATE} --entropy-base 2", 0,
     "a7e8ac8613cbdaf027caee8de800a719bdd8bdafe44fb95bb071721b5dbb9b36"),
    ("solve-reflective-e", f"solve {_STATE} --mode reflective", 0,
     "1beb0d75c2f23809fb72605d24a806ab2a85b36bedf3cb637c5b29a26f437781"),
    ("solve-reflective-2", f"solve {_STATE} --mode reflective --entropy-base 2", 0,
     "539b5d007f3bb80fc087806ae23b3e5b15cf1c4829b8a3a5f07d0bd6f0bc61a8"),
    ("oracle", f"oracle {_STATE} --mode reflective --grid 64x128", 0,
     "6d7637638aa50fa2f5e923213987a28593059aa9ad828a55201e7721977b9a48"),
    ("oracle-exclude",
     f"oracle {_STATE} --mode reflective --grid 64x128 --exclude-trivial 0.25",
     0, "cc47003de00f417a2307080da581cb300d5dfb78f542b6bac3f7a56a2c937422"),
    ("oracle-eigenstate", "oracle --rho 1 --theta-i 0", 0,
     "2bda5796537fea88e38d0499ebb9224912248ccbd73e80e90962d3c05037f962"),
    ("oracle-infeasible",
     "oracle --rho 0.9 --tau 0.3 --theta-i 1.0 --phi-i 0.5 --grid 8x8 "
     "--constraint-tol 1e-9",
     3, "50cc0731a0523a4a4539072307117a1d5b5252696dc418f7c64fa989b2771003"),
    ("simulate-born",
     f"simulate {_STATE} --steps 6 --mode reflective --outcome born --seed 11",
     0, "395410efe6a0a70d0b5709d39f19a1b84c35c8e60859b5537a408f7a1f10d2d6"),
    ("simulate-born-surprise",
     f"simulate {_STATE} --steps 6 --mode reflective --outcome risk:born-surprise",
     0, "662208f66d9e2407eb5eca8cde52a8739ce9fa186e6e99d72c43aeef6624a05d"),
    ("simulate-alignment",
     f"simulate {_STATE} --steps 6 --mode reflective --outcome risk:alignment",
     0, "69cecc846f8d259f4d9c9f42f35727c97c9e571303a7d8cef1caa2e61bf66207"),
    ("simulate-constant",
     f"simulate {_STATE} --steps 6 --mode reflective --outcome risk:constant",
     0, "5b834af6640140be1c347a6c3483ea09f3fea6739d21f946809f53c7a28c5ab5"),
    ("simulate-flags-reordered",
     "simulate --outcome risk:constant --steps 6 --mode reflective "
     "--phi-i 1.1 --theta-i 0.9 --tau 0.4 --rho 0.7",
     0, "5b834af6640140be1c347a6c3483ea09f3fea6739d21f946809f53c7a28c5ab5"),
    ("oracle-exclude-flags-reordered",
     "oracle --exclude-trivial 0.25 --grid 64x128 --mode reflective "
     "--phi-i 1.1 --theta-i 0.9 --tau 0.4 --rho 0.7",
     0, "cc47003de00f417a2307080da581cb300d5dfb78f542b6bac3f7a56a2c937422"),
    ("landscape-csv", f"landscape {_STATE} --grid 20x40", 0,
     "deb74769431ef22ce00eeb17238f0f3b82107bd30036e84e33dc13f1324d7de3"),
    ("landscape-tsv", f"landscape {_STATE} --grid 20x40 --format tsv", 0,
     "89160f6c8a8e1224f5738128c79cd8fb60bbc3bb95c37f380be664f180c4e6fb"),
    ("solve-degrees",
     "solve --rho 0.7 --tau 30 --theta-i 60 --phi-i 45 --degrees --mode reflective",
     0, "b83b5b69ac207061e9217c598769aadfd0bfcb18356ee7b0076ff16480e792d0"),
    ("solve-degrees-flags-reordered",
     "solve --mode reflective --degrees --phi-i 45 --theta-i 60 --tau 30 --rho 0.7",
     0, "b83b5b69ac207061e9217c598769aadfd0bfcb18356ee7b0076ff16480e792d0"),
    ("solve-amplitudes",
     "solve --amp-up 0.6+0.2j --amp-down 0.5 --theta-i 0.9 --phi-i 1.1 "
     "--mode reflective",
     0, "6139ab8facd4ed68e30042cef8cfaf4cdfcc5b7ea7e3c6fb53bd831968f4aa10"),
    # recorded before the oracle scored only its feasible band and the
    # landscape rows were joined without the csv module
    ("landscape-2x3-base2-degrees",
     f"landscape {_STATE} --grid 2x3 --entropy-base 2 --degrees", 0,
     "171f95548728a7da6e3ffea9863df35600b2bc90f81d0daf87bb0673e8a83d1c"),
    ("landscape-tsv-amplitudes",
     "landscape --amp-up 0.6+0.2j --amp-down 0.5 --theta-i 0.9 --phi-i 1.1 "
     "--grid 7x5 --format tsv",
     0, "9da6a43bbc0885f95bcaf5c52dd193f566672d38e796e988e8ab25512c30c135"),
    ("oracle-odd-grid-base2-exclude",
     f"oracle {_STATE} --mode reflective --grid 37x91 --entropy-base 2 "
     "--exclude-trivial 0.1",
     0, "d8559750991590ae9d43f124d73e0eac4624a5a7876eec32f74d64b561d32de3"),
    ("oracle-merged-circle",
     "oracle --rho 0.5 --theta-i 0 --mode reflective --grid 64x128",
     0, "d2fec2dd0cd155b779788a57c92cb442357df84bc7ca85473e301335bfb6d5d0"),
]


class TestPinnedBytes:
    @pytest.mark.parametrize(
        "command, exit_code, digest",
        [case[1:] for case in _PINNED],
        ids=[case[0] for case in _PINNED],
    )
    def test_output_digest(self, runner, command, exit_code, digest):
        result = runner.invoke(main, command.split())
        assert result.exit_code == exit_code, result.output
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
