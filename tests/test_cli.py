"""Command-line contract: envelopes, exit codes, round-trips, formats."""

import csv
import hashlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import landscape_table
from spincollapse import Axis, PureState, __version__
from spincollapse import cli
from spincollapse.cli import _table, _write, main
from spincollapse.solver import _entropy_grid

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


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _nan(payload: int) -> float:
    return np.array([0x7FF8000000000000 | payload], dtype="u8").view("f8")[0]


class TestLandscapeTable:
    """`cli._table` reuses the `repr` of an antipodal cell whose bits are
    equal; `helpers.landscape_table` formats every cell, and is its oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        n_theta=st.integers(2, 24),
        n_phi=st.integers(2, 24),
        rho=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
        tau=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta_i=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        phi_i=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        base=st.sampled_from(["e", "2"]),
        fmt=st.sampled_from(["csv", "tsv"]),
    )
    def test_stdout_matches_oracle(self, n_theta, n_phi, rho, tau, theta_i, phi_i,
                                   base, fmt):
        argv = ["landscape", "--rho", repr(rho), "--tau", repr(tau),
                "--theta-i", repr(theta_i), "--phi-i", repr(phi_i),
                "--entropy-base", base, "--format", fmt, "--grid", f"{n_theta}x{n_phi}"]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        grids = _entropy_grid(PureState(rho, tau), Axis(theta_i, phi_i),
                              n_theta, n_phi, {"e": math.e, "2": 2.0}[base])
        assert result.output == landscape_table(*grids, "\t" if fmt == "tsv" else ",")

    def test_bits_decide_reuse(self, monkeypatch):
        # row 1, column k is the antipode of row 0, column (k + 2) % 4
        nan_a, nan_b = _nan(1), _nan(2)
        p_up = np.array([[0.1, 0.2, 0.3, 0.4], [0.9, 0.8, 0.7, 0.6]])
        s_f = np.array([[0.0, 0.25, 0.5, 0.75], [0.5, 0.75, -0.0, 0.25]])
        residual = np.array([[nan_a, 1.0, 2.0, 3.0], [2.0, 3.0, nan_a, 1.0]])
        s_up = np.array([[nan_a, 1.5, 2.5, 3.5], [2.5, 3.5, nan_b, 1.5]])
        grids = (np.array([0.0, math.pi]), np.arange(4) * (0.5 * math.pi),
                 p_up, s_f, residual, s_up)
        formatted = []

        def recording_repr(x):
            formatted.append(_bits(x))
            return repr(x)

        monkeypatch.setattr(cli, "repr", recording_repr, raising=False)
        text = _table(*grids, ",")
        monkeypatch.undo()
        assert text == landscape_table(*grids, ",")
        assert text.split("\n")[7].split(",")[3] == "-0.0"
        # -0.0 equals 0.0 but is formatted again; the NaN whose bits match
        # its antipode's is not, though it equals nothing, and the other is
        assert formatted.count(_bits(-0.0)) == 1
        assert formatted.count(_bits(nan_a)) == 2  # row 0: residual and s_up
        assert formatted.count(_bits(nan_b)) == 1
        for value in (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 1.5, 2.5, 3.5):
            assert formatted.count(_bits(value)) == 1  # row 0 only

    def test_peak_memory_near_oracle(self):
        # the table of the default grid holds its text about twice (rows and
        # the joined document); the pairs of cell lists add little to that
        grids = _entropy_grid(PureState(0.7, 0.4), Axis(0.9, 1.1), 200, 400, math.e)
        peaks = []
        for build in (landscape_table, _table):
            tracemalloc.start()
            try:
                build(*grids, ",")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        oracle_peak, peak = peaks
        assert peak <= 1.1 * oracle_peak, (peak, oracle_peak)


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
            # the state as amplitudes: the echo holds "rho" and "tau" as null
            ["solve", "--amp-up", "0.6+0.2j", "--amp-down", "0.5", "--theta-i", "0.9",
             "--phi-i", "1.1", "--mode", "reflective"],
            ["oracle", "--amp-up", "0.6+0.2j", "--amp-down", "0.5", "--theta-i", "0.9",
             "--grid", "32x64"],
            ["simulate", "--amp-up", "0.6+0.2j", "--amp-down", "0.5", "--theta-i", "0.9",
             "--steps", "3", "--mode", "reflective", "--outcome", "risk:alignment"],
            # --rho without --tau
            ["solve", "--rho", "0.7", "--theta-i", "0.9"],
            ["simulate", "--rho", "0.7", "--theta-i", "0.9", "--steps", "3",
             "--outcome", "born", "--seed", "5"],
            # angles in degrees
            ["solve", "--rho", "0.7", "--tau", "30", "--theta-i", "60", "--phi-i", "45",
             "--degrees", "--mode", "reflective"],
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


def _written(value) -> str:
    parts: list = []
    _write(value, "\n", parts)
    return "".join(parts)


# strings reaching non-ASCII, astral, control, quote and backslash characters
_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "\U0001f600"]),
))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2.0**63]), _TEXT,
)
_DOCUMENT = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=30,
)


class TestWriter:
    """`cli._write` writes exactly the bytes of ``json.dumps(value, indent=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(_DOCUMENT)
    def test_matches_json_dumps(self, value):
        assert _written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 123456789.0],
        [2**64, -(2**64), 3**100, -(7**90), 0, -1],
        [True, 1, 1.0, False, 0, 0.0, None],
        {"caf\u00e9 \u2603 \U0001f600": "\u00fc\u20ac\U0001f600",
         "\x00\x01\x1f\x7f\n\t": "\x00\x1f\r\b\f",
         '"quoted" \\ back\\slash': 'say "hi" \\ \\\\'},
        {}, [], {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]}, [[[]]],
        (1, (2.5, "x"), ()), {"t": (None, (True,))},
        "plain", 0.1, None, True, 10**30,
    ], ids=repr)
    def test_edge_values(self, value):
        assert _written(value) == json.dumps(value, indent=2)
        assert _written(value).isascii()

    @pytest.mark.parametrize("value", [
        {1, 2}, {"a": {1}}, [frozenset()], b"bytes", complex(1, 2), {"k": object()},
    ], ids=repr)
    def test_unsupported_raises_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            _written(value)
        assert str(raised.value) == str(expected.value)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--theta-i", "1"],  # no state
            ["solve", "--rho", "0.5", "--amp-up", "1", "--amp-down", "0",
             "--theta-i", "1"],  # state given both ways at once
            # a phase beside the amplitudes, even the default one
            ["solve", "--amp-up", "0.6", "--amp-down", "0.8", "--tau", "1.0",
             "--theta-i", "0.5"],
            ["solve", "--amp-up", "0.6", "--amp-down", "0.8", "--tau", "0",
             "--theta-i", "0.5"],
            ["landscape", "--amp-up", "0.6", "--amp-down", "0.8", "--tau", "1.0",
             "--theta-i", "0.5"],
            ["landscape", "--amp-up", "0.6", "--amp-down", "0.8", "--tau", "0",
             "--theta-i", "0.5"],
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
# oracle-eigenstate, oracle-merged-circle and solve-amplitudes were
# re-recorded when --tau lost its default: a run without --tau echoes
# "tau": null where it echoed 0.0, and no other byte moved.
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
     "1f1ff68bfb867b219df5c18303fb03414428d95e8c0f98ab7055e811e513e786"),
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
     0, "08eb0e35b121ce94e92880153a5c3553575618c0cdcd94f19600218103295fc7"),
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
     0, "92bcf4d4928d57ec47db53ac65a64a28e71b4d40f126ca623bc88af1d2269408"),
    # recorded before the documents were written by `cli._write` instead of
    # `json.dumps`: a strict run that absorbs (records with "no_collapse":
    # true, an echo with "seed": null) and a base-2 Born run at --tol 0
    ("simulate-strict-absorbs", f"simulate {_STATE} --steps 4", 0,
     "54bf1c3f43af00544da5d9d2a8886fc5777e34de1a87cd398dad08c25e0b4b64"),
    ("simulate-born-tol0-base2",
     f"simulate {_STATE} --steps 6 --outcome born --seed 0 --tol 0 --entropy-base 2",
     0, "e49602dc18eac4aa7712a346a99a7ac2981fa6cef109c144cd671b929f175b75"),
    # recorded before each landscape row was formatted with its antipodal row:
    # a middle row left unpaired, a pole axis, an eigenstate, an odd column
    # count (no antipodal column), and the default 200x400 grid
    ("landscape-odd-rows", f"landscape {_STATE} --grid 11x16", 0,
     "02296bc059b710bbf96d28128021d5d322c38f59a9b92e142ffc5b853b595d25"),
    ("landscape-pole-axis", "landscape --rho 0.7 --tau 0.4 --theta-i 0 --grid 12x24", 0,
     "b7c7a4f7d66719e04f5e88c3eaf28ecd211814a986fd15cf07c0c6c99e6cb406"),
    ("landscape-eigenstate", "landscape --rho 1 --theta-i 0 --grid 8x8", 0,
     "beb5e0d624ffdac777ab889ec395b291b013363bd6374f64b13447a509995071"),
    ("landscape-odd-columns", f"landscape {_STATE} --grid 10x15", 0,
     "f28a4d4d25d98fe950b8739f9d63cd8a142378ba45acd043986eb93c999b6e2a"),
    ("landscape-default-grid", f"landscape {_STATE}", 0,
     "1aac3f8b671095940d41971a17b965f83a6b45b28359075121db4266370fea34"),
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

    @pytest.mark.parametrize("name", [
        "solve-reflective-2", "oracle-exclude", "oracle-infeasible",
        "simulate-strict-absorbs", "simulate-born-tol0-base2",
    ])
    def test_out_file_equals_stdout(self, runner, tmp_path, name):
        _, command, exit_code, digest = next(case for case in _PINNED if case[0] == name)
        target = tmp_path / "doc.json"
        result = runner.invoke(main, [*command.split(), "--out", str(target)])
        assert result.exit_code == exit_code, result.output
        assert result.stdout_bytes == b""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, exit_code",
        [case[1:3] for case in _PINNED if not case[1].startswith("landscape")],
        ids=[case[0] for case in _PINNED if not case[1].startswith("landscape")],
    )
    def test_replays_from_input_echo(self, runner, command, exit_code):
        first = runner.invoke(main, command.split())
        assert first.exit_code == exit_code, first.output
        doc = json.loads(first.stdout_bytes)
        second = runner.invoke(main, _argv_from_echo(doc["command"], doc["input"]))
        assert second.exit_code == exit_code, second.output
        assert second.stdout_bytes == first.stdout_bytes
