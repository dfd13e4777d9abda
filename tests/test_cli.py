"""Command-line contract: envelopes, exit codes, round-trips, formats."""

import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import click
import numpy as np
import orjson
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import landscape_table
from spincollapse import Axis, PureState, SimConfig, TrajectoryStep, __version__, simulate
from spincollapse import cli
from spincollapse.cli import _table, main
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

    def test_only_landscape_imports_orjson(self):
        # solve and simulate start up without the table formatter's module
        script = (
            "import sys\n"
            "from spincollapse.cli import main\n"
            "state = ['--rho', '0.7', '--theta-i', '0.9']\n"
            "for argv in (['solve', *state], ['simulate', *state, '--steps', '3',\n"
            "             '--outcome', 'risk:alignment'], ['landscape', *state]):\n"
            "    main(argv, standalone_mode=False)\n"
            "    print(argv[0], 'orjson' in sys.modules, file=sys.stderr)\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "solve False", "simulate False", "landscape True"]

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


def _columns(thetas, phis, grids) -> list[np.ndarray]:
    """The six columns of a landscape table, one cell per line."""
    return [np.repeat(thetas, len(phis)), np.tile(phis, len(thetas)),
            *(np.ravel(grid) for grid in grids)]


def _signed(low: float, high: float):
    return st.floats(low, high).flatmap(lambda x: st.sampled_from([x, -x]))


def _record_respelled(monkeypatch) -> list:
    """Have `cli._respelled` record each line it is handed, in a list."""
    lines, respell = [], cli._respelled
    monkeypatch.setattr(cli, "_respelled", lambda line: lines.append(line) or respell(line))
    return lines


# finite float64 over every spelling: subnormals, +-0.0, the positional
# zeros of [1e-5, 1e-4), the exponents of [1e16, 1.8e308) and [1e-4, 7)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _signed(0.0, 2.2250738585072014e-308),
    _signed(1e-5, 1e-4),
    _signed(1e16, sys.float_info.max),
    _signed(1e-4, 7.0),
)
_EDGES = [5e-324, 1e-05, math.nextafter(1e-4, 0.0), 1e-4, 9999999999999998.0, 1e16,
          sys.float_info.max]


class TestLandscapeTable:
    """`cli._table` writes each grid row in one orjson call and re-spells by
    `repr` only the lines that a mask of the numbers flags, and in them only
    the cells whose notation differs; `helpers.landscape_table` formats
    every cell by its own `repr`, and is its oracle."""

    @staticmethod
    def _mask_is_the_text_rule(values):
        # the cells orjson writes (in a float64 array, as `_table` does) with
        # an "e" or as the 0.0000... of [1e-5, 1e-4) are those `_respelled`
        # re-spells; they hold every cell spelled unlike repr, the nonzero
        # |x| >= 1e-9 of them (below 1e-9 both write the same e-NN)
        values = np.array(values, dtype=np.float64)
        written = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        cells, floats = written[1:-1].split(","), values.tolist()
        odd = ["e" in c or c.lstrip("-").startswith("0.0000") for c in cells]
        assert [c != repr(x) for c, x in zip(cells, floats)] == [
            o and abs(x) >= 1e-9 for o, x in zip(odd, floats)]
        # with each value in turn in each column, the other cells 0.5,
        # `_table` re-spells a line exactly when its value is such a cell
        n, plain = len(floats), np.array([0.5])
        for k in range(len(cli._COLUMNS)):
            if k == 0:
                table = (values, plain, *np.full((4, n, 1), 0.5))
            else:
                columns = np.full((len(cli._COLUMNS) - 1, 1, n), 0.5)
                columns[k - 1] = values
                table = (plain, columns[0, 0], *columns[1:])
            with pytest.MonkeyPatch.context() as mp:
                respelled = _record_respelled(mp)
                _table(*table, ",")
            assert [line.split(",")[k] for line in respelled] == [
                c for c, o in zip(cells, odd) if o]

    @settings(max_examples=500, deadline=None)
    @given(x=_FINITE)
    def test_mask_is_the_text_rule(self, x):
        self._mask_is_the_text_rule([x])

    def test_mask_is_the_text_rule_at_the_notation_edges(self):
        edges = [*_EDGES, 1e-9, math.nextafter(1e-9, 0.0)]
        self._mask_is_the_text_rule([x for edge in edges for x in (edge, -edge)] + [0.0, -0.0])

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

    @staticmethod
    def _rows_are_reprs(thetas, phis, grids):
        # row by row, each line is the delimiter-joined `repr` of its cells
        for delimiter in (",", "\t"):
            header, *lines, end = _table(thetas, phis, *grids, delimiter).split("\n")
            assert header == delimiter.join(cli._COLUMNS) and end == ""
            assert lines == [delimiter.join(map(repr, row))
                             for row in zip(*(column.tolist() for column in
                                              _columns(thetas, phis, grids)))]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_theta=st.integers(1, 4), n_phi=st.integers(1, 6))
    def test_rows_are_reprs_of_any_finite_cells(self, data, n_theta, n_phi):
        thetas, phis, grids = (data.draw(arrays(np.float64, shape, elements=_FINITE))
                               for shape in (n_theta, n_phi, (4, n_theta, n_phi)))
        self._rows_are_reprs(thetas, phis, grids)

    def test_rows_are_reprs_at_the_notation_edges(self):
        edges = np.array([x for edge in _EDGES for x in (edge, -edge)] + [0.0, -0.0])
        grids = np.array([np.roll(edges, k) for k in range(4)]).reshape(4, 4, 4)
        self._rows_are_reprs(edges[:4], edges[-4:], grids)

    @staticmethod
    def _planted():
        # one block with both kinds of re-spelled token, in the angles too
        thetas, phis = np.array([0.0, 5e-5, 1.0]), np.array([0.0, 0.5, 2e-300, 1e17, 3.0])
        values = np.array([5e-324, -1e-05, 6.25e-05, 1e-4, 0.0, -0.0, 2.5e-8, 1e16, -3e300,
                           9999999999999998.0, 0.1, 7.0, sys.float_info.max, 1e-300, 0.5])
        return thetas, phis, *np.resize(values, (4, 3, 5)) * [[[1]], [[-1]], [[1]], [[-1]]]

    @pytest.mark.parametrize("shape", [(50, 100), (51, 100), (50, 99), (9, 14), "planted"],
                             ids=["50x100", "51x100", "50x99", "9x14", "planted"])
    def test_repr_only_where_notation_differs(self, monkeypatch, shape):
        # one repr per cell that is nonzero with |x| < 1e-4 or |x| >= 1e16,
        # none for any other cell; and only the lines holding such a cell
        # reach the re-speller, not the whole grid row around them
        if shape == "planted":
            grids = self._planted()
        else:
            grids = _entropy_grid(PureState(0.7, 0.4), Axis(0.9, 1.1), *shape, math.e)
        cells = np.concatenate(_columns(grids[0], grids[1], grids[2:]))
        magnitude = np.abs(cells)
        odd = ((magnitude < 1e-4) & (magnitude > 0)) | (magnitude >= 1e16)
        expected = sorted(map(_bits, cells[odd].tolist()))
        formatted = []

        def recording_repr(x):
            formatted.append(_bits(x))
            return repr(x)

        monkeypatch.setattr(cli, "repr", recording_repr, raising=False)
        respelled = _record_respelled(monkeypatch)
        text = _table(*grids, ",")
        monkeypatch.undo()
        assert text == landscape_table(*grids, ",")
        assert sorted(formatted) == expected
        assert len(respelled) == np.count_nonzero(odd.reshape(len(cli._COLUMNS), -1).any(axis=0))
        if shape == "planted":  # the theta 5e-5 row, two phis, 8 of each 15 values
            assert len(expected) == 5 + 2 * 3 + 4 * 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises(self, bad):
        # orjson writes a non-finite float as null, which no table may hold
        thetas, phis, *grids = _entropy_grid(PureState(0.7, 0.4), Axis(0.9, 1.1), 6, 8, math.e)
        grids[1][3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _table(thetas, phis, *grids, ",")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["thetas", "phis"])
    def test_non_finite_angle_raises(self, monkeypatch, column, bad):
        # an infinite angle flags its lines for re-spelling too: the null
        # check comes first, so no "null" reaches `_respelled`
        thetas, phis, *grids = _entropy_grid(PureState(0.7, 0.4), Axis(0.9, 1.1), 6, 8, math.e)
        {"thetas": thetas, "phis": phis}[column][3] = bad
        grids[3][:, 3] = 5e-5  # line 3 of every row is flagged, whatever the angle
        respelled = _record_respelled(monkeypatch)
        with pytest.raises(ValueError, match="non-finite"):
            _table(thetas, phis, *grids, ",")
        assert not any("null" in line for line in respelled)

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
        assert doc["results"]["oracle"] == {
            "error": "infeasible-grid",
            "message": "no grid point satisfies |residual| <= 1e-09 on a 8x8 grid; "
                       "refine the grid or loosen the tolerance",
        }
        assert doc["results"]["discrepancy"] is None

    def test_exclusion_emptied_grid_names_the_radius(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "--rho", "0.3", "--theta-i", "1.0", "--grid", "40x80",
             "--exclude-trivial", "1.5707963267948966"],
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["results"]["oracle"] == {
            "error": "infeasible-grid",
            "message": "every grid point with |residual| <= 0.005 on a 40x80 grid "
                       "lies within the exclusion radius 1.5707963267948966 of the "
                       "measured axis or its antipode; lower the radius",
        }
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


_ARABIC_ONE_POINT_FIVE = "١.٥"  # "1.5" in Arabic-Indic digits


class TestDocumentBytes:
    """Every document is ``json.dumps(doc, indent=2) + "\\n"``, ASCII only:
    a document re-encoded from its own parse gives back its bytes, whatever
    values it holds and, for `simulate`, wherever its records are spliced."""

    @pytest.mark.parametrize("argv, exit_code", [
        # amplitudes at the ends of the float range
        pytest.param(["solve", "--amp-up", "1.5e308", "--amp-down", "1.5e308",
                      "--theta-i", PI_THIRD], 0, id="solve-huge-amplitudes"),
        pytest.param(["solve", "--amp-up", repr(2.0**-1070), "--amp-down", "1",
                      "--theta-i", "0.4"], 0, id="solve-subnormal-amplitude"),
        # an echo holding non-ASCII text, which the document escapes
        pytest.param(["solve", "--amp-up", _ARABIC_ONE_POINT_FIVE, "--amp-down",
                      "0.5+0.25j", "--theta-i", "0.9"], 0, id="solve-non-ascii-echo"),
        # no collapse: null fields in the results
        pytest.param(["solve", "--rho", "1", "--theta-i", "0"], 0, id="solve-eigenstate"),
        pytest.param(["solve", "--rho", "0.5", "--tau", "0.3", "--theta-i", "1e-9",
                      "--tol", "0", "--mode", "reflective"], 0, id="solve-near-eigenstate"),
        pytest.param(["oracle", "--rho", "1", "--theta-i", "0", "--grid", "16x32"], 0,
                     id="oracle-eigenstate"),
        pytest.param(["oracle", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                      "--grid", "64x128", "--exclude-trivial", "0.2"], 0,
                     id="oracle-warning"),
        # an infeasible grid: an error message in the results, exit code 3
        pytest.param(["oracle", "--rho", "0.9", "--tau", "0.3", "--theta-i", "1.0",
                      "--phi-i", "0.5", "--grid", "8x8", "--constraint-tol", "1e-9"], 3,
                     id="oracle-infeasible-grid"),
        pytest.param(["simulate", "--rho", "1", "--theta-i", "0", "--steps", "1"], 0,
                     id="simulate-one-record"),
        pytest.param(["simulate", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                      "--steps", "5"], 0, id="simulate-absorbs"),
        pytest.param(["simulate", "--amp-up", _ARABIC_ONE_POINT_FIVE, "--amp-down",
                      "0.6+0.2j", "--theta-i", "0.9", "--steps", "3", "--mode",
                      "reflective", "--outcome", "risk:alignment"], 0,
                     id="simulate-non-ascii-echo"),
        pytest.param(["simulate", "--rho", "0.7", "--tau", "30", "--theta-i", "60",
                      "--phi-i", "45", "--degrees", "--steps", "6", "--outcome", "born",
                      "--seed", "3", "--entropy-base", "2", "--tol", "0"], 0,
                     id="simulate-born-degrees-base2"),
    ])
    def test_reencoded_document_is_byte_identical(self, runner, argv, exit_code):
        result = runner.invoke(main, argv)
        assert result.exit_code == exit_code, result.output
        text = result.stdout
        assert text.isascii()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        if doc["command"] == "simulate":
            # the records replaced the envelope's one empty list
            assert text.count('"trajectory": ') == 1
            assert len(doc["results"]["trajectory"]) == doc["input"]["steps"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9", "--phi-i", "1.1"],
        ["simulate", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9", "--steps", "5",
         "--outcome", "born", "--seed", "3"],
        ["oracle", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9", "--grid", "32x64"],
        ["landscape", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9", "--grid", "9x14"],
    ], ids=lambda argv: argv[0])
    def test_stdout_skips_the_ansi_strip(self, runner, monkeypatch, argv):
        # CliRunner's stdout is no terminal, where `click.echo` would run its
        # ANSI-strip regex over the document; no document goes through it
        expected = runner.invoke(main, argv)
        assert expected.exit_code == 0, expected.output

        def refuse(text):
            raise AssertionError("a document went through click's ANSI strip")

        monkeypatch.setattr(click.utils, "strip_ansi", refuse)
        monkeypatch.setattr(click._compat, "strip_ansi", refuse)
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert result.output == expected.output


# exact eigenstates of their axis: the first record is already no-collapse
_EIGEN_STARTS = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, math.pi, 1.0), (1.0, 0.0, math.pi, 2.0)]


class TestTrajectoryRecords:
    """`simulate` writes its records from one template (`cli._write_records`)
    with the bytes of their `to_dict` documents through ``json.dumps``."""

    @settings(max_examples=120, deadline=None)
    @given(
        start=st.one_of(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
                      st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)),
            st.sampled_from(_EIGEN_STARTS),
        ),
        mode=st.sampled_from(["strict", "reflective"]),
        outcome=st.sampled_from(["born", "risk:born-surprise", "risk:alignment",
                                 "risk:constant"]),
        steps=st.integers(1, 40),
        base=st.sampled_from(["e", "2"]),
        tol=st.sampled_from(["1e-12", "0"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stdout_matches_json_dumps_of_dicts(self, start, mode, outcome, steps, base,
                                                tol, seed):
        rho, tau, theta, phi = start
        argv = ["simulate", "--rho", repr(rho), "--tau", repr(tau), "--theta-i", repr(theta),
                "--phi-i", repr(phi), "--steps", str(steps), "--mode", mode,
                "--outcome", outcome, "--seed", str(seed), "--entropy-base", base,
                "--tol", tol]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        config = SimConfig(steps, mode, outcome, seed, cli._BASES[base], float(tol))
        records = simulate(PureState(rho, tau), Axis(theta, phi), config)
        doc = json.loads(result.stdout)
        doc["results"]["trajectory"] = [ts.to_dict() for ts in records]
        assert result.stdout == json.dumps(doc, indent=2) + "\n"
        if start in _EIGEN_STARTS:
            assert records[0].no_collapse

    def test_reuse_follows_identity(self, monkeypatch):
        formatted = []

        def counting(value):
            formatted.append(value)
            return float.__repr__(value) if math.isfinite(value) else json.dumps(value)

        monkeypatch.setattr(cli, "_float", counting)
        first = TrajectoryStep(0, PureState(0.7, 0.4), Axis(0.9, 1.1), 0.6, 1,
                               PureState(0.2, 3.0), Axis(2.1, 4.0), 0.5, 0.25, False)
        after = first.state_after
        # equal to the state walked out of, but another object of other floats
        twin = PureState(float(repr(after.rho)), float(repr(after.tau)))
        assert twin == after and twin is not after and twin.rho is not after.rho
        second = TrajectoryStep(1, twin, first.axis_next, 0.3, -1, PureState(0.4, 1.0),
                                Axis(0.5, 0.6), 0.0, 0.0, False)
        # shares no object with the record before it; -0.0 == 0.0 but is
        # written "-0.0"
        third = TrajectoryStep(2, PureState(0.9, 5.0), Axis(0.3, 0.2), math.nan, 1,
                               PureState(0.1, 2.0), Axis(1.3, 3.3), -0.0, -0.0, False)
        # no-collapse: walks out as it walked in, and then repeats
        fourth = TrajectoryStep(3, third.state_after, third.axis_next, 1.0, 1,
                                third.state_after, third.axis_next, 0.0, 0.0, True)
        fifth = TrajectoryStep(4, fourth.state_before, fourth.axis_measured, fourth.p_up, 1,
                               fourth.state_after, fourth.axis_next, fourth.s_i,
                               fourth.s_up_next, True)
        records = [first, second, third, fourth, fifth]
        # the records at their depth in the envelope: "trajectory" in "results"
        written = '{\n  "results": {\n    "trajectory": %s\n  }\n}' % cli._write_records(records)
        dicts = [ts.to_dict() for ts in records]
        assert written == json.dumps({"results": {"trajectory": dicts}}, indent=2)
        # 11 floats a record: the twin's two and the unshared record's 11 are
        # formatted; a no-collapse record formats only p_up, s_i and s_up_next
        assert len(formatted) == 11 + (11 - 2) + 11 + 3 + 3
        assert any(value is twin.rho for value in formatted)
        assert any(value is twin.tau for value in formatted)
        assert not any(value is first.axis_next.theta for value in formatted[11:])


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


# sha256 of stdout for a fixed command set, recorded on Python 3.11.7, numpy
# 2.4.6 and click 8.4.0: numpy's vectorized `log` decides the landscape and
# oracle grid bytes.  The 3-vector dots are the plain float sum `_dot3`, the
# same on any BLAS build.  A deliberate change to the emitted bytes
# re-records the digest it moves and says why in CHANGES.md; anything else
# must keep them.
# The first cases cover solve in both modes and bases, the oracle plain,
# excluded, on an eigenstate and infeasible (exit 3), simulate under each
# outcome rule, and landscape csv and tsv; the reordered argv lists pin the
# input echo to the declared flag order.
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
     "2350803f75a34826dfee0174323e75d17b0fdf052cafe64001a4ebf70ab0c20d"),
    ("landscape-tsv", f"landscape {_STATE} --grid 20x40 --format tsv", 0,
     "edba8873f45545c137c25fda0f58c34d8039f1fa686e9375b6ff172102e550c8"),
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
    # small and odd grids, base 2, degrees, amplitudes and the merged circle
    ("landscape-2x3-base2-degrees",
     f"landscape {_STATE} --grid 2x3 --entropy-base 2 --degrees", 0,
     "cc4972a7c2539fa60010313401d599bbb0a12427f603091240eb929d09786421"),
    ("landscape-tsv-amplitudes",
     "landscape --amp-up 0.6+0.2j --amp-down 0.5 --theta-i 0.9 --phi-i 1.1 "
     "--grid 7x5 --format tsv",
     0, "5176e7b82b5b149cf91c5d669f996740e91cc0fa9c131ad3e51b2dce3354074b"),
    ("oracle-odd-grid-base2-exclude",
     f"oracle {_STATE} --mode reflective --grid 37x91 --entropy-base 2 "
     "--exclude-trivial 0.1",
     0, "444869d546683fbbcf8c535b12cdfd5c66d072903be890b137d200dd1c1563ac"),
    ("oracle-merged-circle",
     "oracle --rho 0.5 --theta-i 0 --mode reflective --grid 64x128",
     0, "92bcf4d4928d57ec47db53ac65a64a28e71b4d40f126ca623bc88af1d2269408"),
    # a strict run that absorbs (records with "no_collapse": true, an echo
    # with "seed": null) and a base-2 Born run at --tol 0
    ("simulate-strict-absorbs", f"simulate {_STATE} --steps 4", 0,
     "54bf1c3f43af00544da5d9d2a8886fc5777e34de1a87cd398dad08c25e0b4b64"),
    ("simulate-born-tol0-base2",
     f"simulate {_STATE} --steps 6 --outcome born --seed 0 --tol 0 --entropy-base 2",
     0, "e49602dc18eac4aa7712a346a99a7ac2981fa6cef109c144cd671b929f175b75"),
    # the landscape's antipodal row pairing: a middle row left unpaired, a
    # pole axis, an eigenstate, an odd column count (no antipodal column),
    # and the default 200x400 grid
    ("landscape-odd-rows", f"landscape {_STATE} --grid 11x16", 0,
     "0472d18308a65b692e91f263a75caabb3a44ce66440aac6204e066be60dae5c1"),
    ("landscape-pole-axis", "landscape --rho 0.7 --tau 0.4 --theta-i 0 --grid 12x24", 0,
     "69685810393d8762e80d925d9e934c48b9c528966c1e00f070f13074f9398c8c"),
    ("landscape-eigenstate", "landscape --rho 1 --theta-i 0 --grid 8x8", 0,
     "74003ce4e9c7291af0f91a831d634e495000b1942fe32c4035d715562261ce95"),
    ("landscape-odd-columns", f"landscape {_STATE} --grid 10x15", 0,
     "56cc697558a6c34e71135806d09c7580ca1e9d9dde3ecc2e2efe8d2b1e91b7bf"),
    ("landscape-default-grid", f"landscape {_STATE}", 0,
     "ea8b7e0a91ca76d4725f88caa46d765210720dcdf2e471937351dfbc6bee90b6"),
    # cells that orjson spells unlike `repr`: 8 in [1e-5, 1e-4), 12 below
    ("landscape-respelled-cells",
     "landscape --rho 0.999999999 --tau 0.4 --theta-i 0.9 --phi-i 1.1 --grid 400x4 "
     "--format tsv",
     0, "06a8886b780b10cd925eea9fc00d4dd917df901104d4d7b4775533bc902aa762"),
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

    @pytest.mark.parametrize(
        "command",
        [case[1] for case in _PINNED if case[1].startswith("landscape")],
        ids=[case[0] for case in _PINNED if case[1].startswith("landscape")],
    )
    def test_landscape_is_the_cell_by_cell_table(self, runner, monkeypatch, command):
        # on each pinned shape `_table`'s text is the one that formats every
        # cell by its own `repr`
        calls = []

        def recording_table(*args):
            calls.append(args)
            return _table(*args)

        monkeypatch.setattr(cli, "_table", recording_table)
        result = runner.invoke(main, command.split())
        assert result.exit_code == 0, result.output
        (args,) = calls
        assert result.output == landscape_table(*args)

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
