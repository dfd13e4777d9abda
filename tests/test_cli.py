"""Command-line contract: envelopes, exit codes, round-trips, formats."""

import csv
import dataclasses
import importlib
import io
import json
import math
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from digest_outputs import PINNED
from helpers import landscape_table, run_cli, run_python
from spincollapse import Axis, PureState, SimConfig, TrajectoryStep, __version__, simulate
from spincollapse import cli
from spincollapse.cli import _table
from spincollapse.solver import MODES, Extremum, _entropy_grid, solve

H_QUARTER = 0.5623351446188083
H_QUARTER_BITS = 0.8112781244591328  # same value in base 2
PI_THIRD = "1.0471975511965976"


def _json(result):
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


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
    def test_strict_example(self):
        doc = _json(run_cli(["solve", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                             "--phi-i", "0", "--mode", "strict"]))
        res = doc["results"]
        assert res["no_collapse"] is False
        assert res["objective"] == 0.0
        got = {(round(a["theta"], 9), round(a["phi"], 9)) for a in res["minimizers"]}
        assert got == {
            (round(math.pi / 3, 9), 0.0),
            (round(2 * math.pi / 3, 9), round(math.pi, 9)),
        }

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_near_eigenstate_at_zero_tol_reports_two_minimizers(self, mode):
        doc = _json(run_cli(["solve", "--rho", "0.5377366313690835", "--tau",
                             "2.673200529835764", "--theta-i", "1.4952512277980856", "--phi-i",
                             "2.673200529835764", "--tol", "0", "--mode", mode]))
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

    def test_eigenstate_no_collapse(self):
        doc = _json(run_cli(["solve", "--rho", "1", "--tau", "0", "--theta-i", "0"]))
        assert doc["results"]["no_collapse"] is True
        assert doc["results"]["minimizers"] == [{"theta": 0.0, "phi": 0.0}]

    def test_degenerate_reflective_on_great_circle(self):
        doc = _json(run_cli(["solve", "--rho", "0.5", "--tau", "0", "--theta-i", "0", "--mode",
                             "reflective"]))
        # Bloch vector is +x; minimizers must be orthogonal to it
        for a in doc["results"]["minimizers"]:
            nx = math.sin(a["theta"]) * math.cos(a["phi"])
            assert abs(nx) <= 1e-9

    def test_degrees_matches_radians(self):
        deg = _json(run_cli(["solve", "--rho", "1", "--theta-i", "60", "--degrees"]))
        rad = _json(run_cli(["solve", "--rho", "1", "--theta-i", PI_THIRD]))
        assert deg["results"] == rad["results"]

    def test_amplitudes_match_probability_weight(self):
        amp = _json(run_cli(["solve", "--amp-up", "1", "--amp-down", "0", "--theta-i",
                             PI_THIRD]))
        rho = _json(run_cli(["solve", "--rho", "1", "--theta-i", PI_THIRD]))
        assert amp["results"] == rho["results"]

    @pytest.mark.parametrize("scale", ["1.5e308", repr(2.0**-1070)])
    def test_amplitudes_at_extreme_scales(self, scale):
        # the pair is rescaled by a power of two before its norm overflows or
        # turns subnormal, so it solves like the unit-scale pair
        def results(amp):
            argv = ["solve", "--amp-up", amp, "--amp-down", amp, "--theta-i", PI_THIRD]
            return _json(run_cli(argv))["results"]

        assert results(scale) == results("1")

    def test_base_two_rescales_objective(self):
        doc = _json(run_cli(["solve", "--rho", "1", "--theta-i", PI_THIRD, "--mode",
                             "reflective", "--entropy-base", "2"]))
        assert doc["entropy_base"] == "2"
        assert doc["results"]["objective"] == pytest.approx(
            H_QUARTER_BITS, abs=1e-12
        )


class TestLandscapeCommand:
    def test_two_by_two_grid(self):
        result = run_cli(["landscape", "--rho", "1", "--tau", "0", "--theta-i", "0", "--grid",
                          "2x2"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
        assert len(rows) == 4
        assert list(rows[0].keys()) == [
            "theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up",
        ]
        north = [r for r in rows if float(r["theta_f"]) == 0.0]
        for r in north:
            assert float(r["p_up"]) == 1.0
            assert float(r["s_f"]) == 0.0

    def test_self_transfer_is_zero(self):
        result = run_cli(["landscape", "--rho", "0.3", "--theta-i", "0", "--grid", "3x4"])
        rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
        for r in rows:
            if float(r["theta_f"]) == 0.0:  # the measured axis itself
                assert abs(float(r["s_up"])) <= 1e-12

    def test_feasible_rows_cluster_on_level_colatitudes(self):
        result = run_cli(["landscape", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                          "--grid", "200x400"])
        rows = list(csv.DictReader(io.StringIO(result.stdout.decode())))
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

    def test_tsv_format(self):
        result = run_cli(["landscape", "--rho", "1", "--theta-i", "0", "--grid", "2x2",
                          "--format", "tsv"])
        header = result.stdout.decode().splitlines()[0]
        assert header.split("\t") == [
            "theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up",
        ]

    def test_no_command_loads_json(self):
        # every command writes through orjson alone.  orjson 3.8 imports
        # json itself, as the base of its JSONDecodeError, so json is barred
        # only once orjson is in: an import of it after that raises
        script = (
            "import sys\n"
            "import orjson\n"
            "sys.modules['json'] = None\n"
            "from spincollapse.cli import main\n"
            "state = ['--rho', '0.7', '--theta-i', '0.9']\n"
            "for name, *flags in (['solve'], ['oracle', '--grid', '8x16'],\n"
            "                     ['simulate', '--steps', '3', '--outcome', 'risk:alignment'],\n"
            "                     ['landscape', '--grid', '4x8']):\n"
            "    main([name, *state, *flags], standalone_mode=False)\n"
            "    print(name, file=sys.stderr)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["solve", "oracle", "simulate", "landscape"]

    def test_json_format_rejected(self):
        result = run_cli(["landscape", "--rho", "1", "--theta-i", "0", "--format", "json"])
        assert result.exit_code == 2

    def test_grid_must_be_at_least_two(self):
        result = run_cli(["landscape", "--rho", "1", "--theta-i", "0", "--grid", "1x5"])
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
    """`cli._table` writes blocks of grid rows by orjson and re-spells by
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
        result = run_cli(argv)
        assert result.exit_code == 0, result.stderr
        grids = _entropy_grid(PureState(rho, tau), Axis(theta_i, phi_i),
                              n_theta, n_phi, {"e": math.e, "2": 2.0}[base])
        assert result.stdout.decode() == landscape_table(*grids, "\t" if fmt == "tsv" else ",")

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

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 2), (12, 100), (11, 512), (3, 600),
                                                (7, 513)])
    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["csv", "tsv"])
    def test_block_edges(self, n_theta, n_phi, delimiter):
        # each orjson call writes whole grid rows, about `_BLOCK_LINES` lines:
        # one block; a short last block (5 rows of 100 to a block); one row
        # to a block; rows longer than a block.  A cell to re-spell stands on
        # the first and on the last line of every block
        thetas, phis, *grids = _entropy_grid(PureState(0.7, 0.4), Axis(0.9, 1.1),
                                             n_theta, n_phi, math.e)
        rows = max(1, cli._BLOCK_LINES // n_phi)
        for r0 in range(0, n_theta, rows):
            grids[0][r0, 0] = 5e-05
            grids[3][min(r0 + rows, n_theta) - 1, -1] = -1e17
        assert _table(thetas, phis, *grids, delimiter) == landscape_table(
            thetas, phis, *grids, delimiter)

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
    def test_defaults_small_discrepancy(self):
        doc = _json(run_cli(["oracle", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD]))
        assert abs(doc["results"]["discrepancy"]) <= 0.01
        assert doc["results"]["oracle"]["no_collapse"] is False

    def test_eigenstate_both_no_collapse(self):
        doc = _json(run_cli(["oracle", "--rho", "1", "--theta-i", "0"]))
        assert doc["results"]["no_collapse"] is True
        assert doc["results"]["solver"]["no_collapse"] is True
        assert doc["results"]["oracle"]["no_collapse"] is True

    def test_exclude_trivial_finds_boundary_minimum(self):
        doc = _json(run_cli(["oracle", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                             "--mode", "reflective", "--exclude-trivial", "0.2"]))
        assert 0.05 <= doc["results"]["oracle"]["objective"] <= 0.07
        assert any("boundary" in w for w in doc["warnings"])

    def test_infeasible_grid_exits_three(self):
        result = run_cli(["oracle", "--rho", "0.9", "--tau", "0.3", "--theta-i", "1.0",
                          "--phi-i", "0.5", "--grid", "8x8", "--constraint-tol", "1e-9"])
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert doc["results"]["oracle"] == {
            "error": "infeasible-grid",
            "message": "no grid point satisfies |residual| <= 1e-09 on a 8x8 grid; "
                       "refine the grid or loosen the tolerance",
        }
        assert doc["results"]["discrepancy"] is None

    def test_exclusion_emptied_grid_names_the_radius(self):
        result = run_cli(["oracle", "--rho", "0.3", "--theta-i", "1.0", "--grid", "40x80",
                          "--exclude-trivial", "1.5707963267948966"])
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        assert doc["results"]["oracle"] == {
            "error": "infeasible-grid",
            "message": "every grid point with |residual| <= 0.005 on a 40x80 grid "
                       "lies within the exclusion radius 1.5707963267948966 of the "
                       "measured axis or its antipode; lower the radius",
        }
        assert doc["results"]["discrepancy"] is None


class TestSimulateCommand:
    def test_strict_absorbs(self):
        doc = _json(run_cli(["simulate", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                             "--phi-i", "0", "--steps", "3", "--mode", "strict", "--outcome",
                             "risk:born-surprise"]))
        steps = doc["results"]["trajectory"]
        assert [s["no_collapse"] for s in steps] == [False, True, True]
        assert any("stand-in" in w for w in doc["warnings"])
        assert doc["results"]["rng"] is None

    def test_reflective_alternates_azimuth(self):
        doc = _json(run_cli(["simulate", "--rho", "1", "--tau", "0", "--theta-i", PI_THIRD,
                             "--phi-i", "0", "--steps", "3", "--mode", "reflective", "--outcome",
                             "risk:born-surprise"]))
        steps = doc["results"]["trajectory"]
        assert all(not s["no_collapse"] for s in steps)
        azimuths = [s["axis_measured"]["phi"] for s in steps]
        assert azimuths[0] == pytest.approx(0.0, abs=1e-9)
        assert azimuths[1] == pytest.approx(math.pi, abs=1e-9)
        assert azimuths[2] == pytest.approx(0.0, abs=1e-9)

    def test_eigenstate_single_record(self):
        doc = _json(run_cli(["simulate", "--rho", "1", "--theta-i", "0", "--steps", "1"]))
        steps = doc["results"]["trajectory"]
        assert len(steps) == 1 and steps[0]["no_collapse"] is True

    def test_born_reports_rng(self):
        doc = _json(run_cli(["simulate", "--rho", "0.7", "--theta-i", "0.9", "--steps", "2",
                             "--outcome", "born", "--seed", "5"]))
        assert doc["results"]["rng"] == "numpy.random.PCG64"

    def test_born_without_seed_is_usage_error(self):
        result = run_cli(["simulate", "--rho", "1", "--theta-i", "1", "--steps", "1",
                          "--outcome", "born"])
        assert result.exit_code == 2
        assert "seed" in result.stderr

    def test_unknown_risk_lists_builtins(self):
        result = run_cli(["simulate", "--rho", "1", "--theta-i", "1", "--steps", "1",
                          "--outcome", "risk:leap-of-faith"])
        assert result.exit_code == 2
        for name in ("constant", "born-surprise", "alignment"):
            assert name in result.stderr

    def test_identical_runs_bit_identical(self):
        argv = ["simulate", "--rho", "0.7", "--tau", "0.4", "--theta-i", "0.9",
                "--phi-i", "1.1", "--steps", "5", "--mode", "reflective",
                "--outcome", "born", "--seed", "7"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first.exit_code == 0
        assert first.stdout == second.stdout


class TestEnvelope:
    def test_structure(self):
        doc = _json(run_cli(["solve", "--rho", "1", "--theta-i", "1"]))
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
    def test_round_trip_from_input_echo(self, argv):
        first = _json(run_cli(argv))
        replay = _argv_from_echo(first["command"], first["input"])
        second = _json(run_cli(replay))
        assert second == first

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "doc.json"
        result = run_cli(["solve", "--rho", "1", "--theta-i", "1", "--out", str(target)])
        assert result.exit_code == 0
        assert result.stdout == b""
        doc = json.loads(target.read_text())
        assert doc["command"] == "solve"

    def test_unwritable_out_is_usage_error(self, tmp_path):
        result = run_cli(["solve", "--rho", "1", "--theta-i", "1", "--out",
                          str(tmp_path / "missing" / "doc.json")])
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
    def test_reencoded_document_is_byte_identical(self, argv, exit_code):
        result = run_cli(argv)
        assert result.exit_code == exit_code, result.stderr
        text = result.stdout.decode()
        assert text.isascii()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        if doc["command"] == "simulate":
            # the records replaced the envelope's one empty list
            assert text.count('"trajectory": ') == 1
            assert len(doc["results"]["trajectory"]) == doc["input"]["steps"]


# every value an echo can hold: no value, a flag, an integer up to the
# largest seed, a finite float, at each notation edge too, and text,
# non-ASCII, astral or DEL, or holding what reads like a number
_SIGNED_EDGES = st.sampled_from(
    [*_EDGES, 1e-12, 1e20, math.nextafter(1e-5, 0.0), 2.2250738585072014e-308, 0.0]
).flatmap(lambda x: st.sampled_from([x, -x]))
_ECHO_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**64 - 1),
    st.sampled_from([2**64 - 1, 2**63, -2**63]), _FINITE, _SIGNED_EDGES, st.text(),
    st.sampled_from(["1e-05+0j", "e-", "1e1", "0.0000", "0.00001", " 1e-5,", "1e16",
                     "\uff10.6", "\U0001d7ce.6", "\x7f", "null"]),
)


class TestDocumentWriter:
    """`cli._envelope` has orjson write a whole document in one call, with
    the bytes of ``json.dumps(doc, indent=2) + "\\n"``."""

    @staticmethod
    def _json_dumps(echo, results, warnings) -> str:
        doc = {"tool": {"name": "spincollapse", "version": __version__}, "command": "solve",
               "input": echo, "entropy_base": "e", "mode": "strict", "results": results,
               "warnings": warnings}
        return json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(
        echo=st.dictionaries(st.text(max_size=8), _ECHO_VALUES, max_size=8),
        results=st.recursive(_ECHO_VALUES, lambda inner: st.lists(inner, max_size=4) | (
            st.dictionaries(st.text(max_size=8), inner, max_size=4)), max_leaves=16),
        warnings=st.lists(st.text(), max_size=3),
    )
    def test_matches_json_dumps(self, echo, results, warnings):
        text = cli._envelope("solve", echo, "e", "strict", results, warnings)
        assert text == self._json_dumps(echo, results, warnings)

    def test_every_notation_edge(self):
        # each float edge in each place a number can stand: an echo value,
        # a list item and the last item of an object or a list
        edges = [x for edge in [*_EDGES, 1e-12, 1e20, 2.2250738585072014e-308, 0.0]
                 for x in (edge, -edge)]
        echo = {f"x{k}": x for k, x in enumerate(edges)}
        results = {"list": edges, "objects": [{"a": x, "b": x} for x in edges]}
        text = cli._envelope("solve", echo, "e", "strict", results, [])
        assert text == self._json_dumps(echo, results, [])


# exact eigenstates of their axis: the first record is already no-collapse
_EIGEN_STARTS = [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, math.pi, 1.0), (1.0, 0.0, math.pi, 2.0)]


class TestTrajectoryRecords:
    """`simulate`'s document, written with its records by one orjson call
    (`cli._envelope`), holds the bytes of their `to_dict` documents through
    ``json.dumps``."""

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
        result = run_cli(argv)
        assert result.exit_code == 0, result.stderr
        config = SimConfig(steps, mode, outcome, seed, cli._BASES[base], float(tol))
        records = simulate(PureState(rho, tau), Axis(theta, phi), config)
        doc = json.loads(result.stdout)
        doc["results"]["trajectory"] = [ts.to_dict() for ts in records]
        assert result.stdout.decode() == json.dumps(doc, indent=2) + "\n"
        if start in _EIGEN_STARTS:
            assert records[0].no_collapse

    @staticmethod
    def _record(index, values, no_collapse=False):
        """A record with these 11 floats in its float fields, in `to_dict`'s
        order, its states and axes built past their constructors' checks."""
        def raw(cls, **fields):
            obj = object.__new__(cls)
            obj.__dict__.update(fields)
            return obj

        rho_b, tau_b, theta_m, phi_m, p_up, rho_a, tau_a, theta_n, phi_n, s_i, s_up = values
        return TrajectoryStep(
            index, raw(PureState, rho=rho_b, tau=tau_b), raw(Axis, theta=theta_m, phi=phi_m),
            p_up, 1 - 2 * (index % 2), raw(PureState, rho=rho_a, tau=tau_a),
            raw(Axis, theta=theta_n, phi=phi_n), s_i, s_up, no_collapse)

    def test_every_notation_edge_in_every_field(self):
        # each notation edge of `repr` against orjson: the nonzero |x| < 1e-4,
        # both sides of 1e-4, the smallest subnormal and the signed zeros
        edges = [1.5e-05, -1.5e-05, 9.99e-05, 1e-04, 1e-07, 5e-324, -0.0, 0.0]
        # record k holds edge k + j in its float field j, so every field
        # holds every edge
        records = [self._record(k, [edges[(k + j) % len(edges)] for j in range(11)],
                                no_collapse=k % 3 == 0)
                   for k in range(len(edges))]
        written = cli._envelope("simulate", {}, "e", "strict", {"trajectory": records}, [])
        doc = json.loads(written)
        doc["results"]["trajectory"] = [ts.to_dict() for ts in records]
        assert written == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_raises_and_prints_nothing(self, monkeypatch, bad):
        for field in range(11):
            values = [0.5] * 11
            values[field] = bad
            records = [self._record(0, [0.25] * 11), self._record(1, values)]
            monkeypatch.setattr(cli, "simulate", lambda *args: records)
            result = run_cli(["simulate", "--rho", "0.7", "--theta-i", "0.9", "--steps", "2"])
            assert isinstance(result.exception, ValueError)
            assert "non-finite" in str(result.exception)
            assert result.stdout == b""

    def test_orjson_reads_exactly_the_fields(self):
        # orjson writes a dataclass as its instance __dict__, in insertion
        # order: a cached public attribute would change the record bytes
        runs = [simulate(PureState(rho, 0.4), Axis(theta, 1.1), SimConfig(4, mode, outcome, 3))
                for rho, theta in ((0.7, 0.9), (1.0, 0.0))
                for mode in ("strict", "reflective")
                for outcome in ("born", "risk:alignment")]
        doc = runs[0][0].to_dict()
        assert [f.name for f in dataclasses.fields(TrajectoryStep)] == list(doc)
        assert [f.name for f in dataclasses.fields(PureState)] == list(doc["state_before"])
        assert [f.name for f in dataclasses.fields(Axis)] == list(doc["axis_measured"])
        for ts in (ts for run in runs for ts in run):
            for obj in (ts, ts.state_before, ts.axis_measured, ts.state_after, ts.axis_next):
                assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]
        assert any(ts.no_collapse for run in runs for ts in run)
        # and `solve`'s axes and extrema, which `cli._solve_results` hands on
        sols = [solve(PureState(0.7, 0.4), Axis(0.9, 1.1), mode) for mode in MODES]
        assert [f.name for f in dataclasses.fields(Extremum)] == ["axis", "value", "kind"]
        for obj in (obj for sol in sols for e in sol.extrema
                    for obj in (*sol.minimizers, e, e.axis)):
            assert list(vars(obj)) == [f.name for f in dataclasses.fields(obj)]


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
            # values no JSON document can hold: a seed beyond 64 bits and an
            # infinite oracle flag
            ["simulate", "--rho", "0.7", "--theta-i", "1", "--steps", "1",
             "--outcome", "born", "--seed", str(2**64)],
            ["oracle", "--rho", "0.7", "--theta-i", "1", "--constraint-tol", "inf"],
            ["oracle", "--rho", "0.7", "--theta-i", "1", "--exclude-trivial", "inf"],
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
    def test_exit_code_two(self, argv):
        # a usage error raises nothing past `main` and prints no document
        result = run_cli(argv)
        assert (result.exit_code, result.stdout, result.exception) == (2, b"", None)
        assert "Error: " in result.stderr

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--rho", "0.7", "--theta-i", "1", "--bogus", "1"],
         "No such option '--bogus'."),
        (["solve", "--rho", "0.7", "--phi-i", "1"], "Missing option '--theta-i'."),
        (["solve", "--rho", "0.7", "--theta-i", "1", "--mode", "sideways"],
         "Invalid value for '--mode': 'sideways' is not one of 'strict', 'reflective'."),
        (["simulate", "--rho", "0.7", "--theta-i", "1", "--steps", "1", "--seed", "-1"],
         "Invalid value for '--seed': -1 is not in the range 0<=x<=18446744073709551615"),
        # no abbreviation: --th is none of --theta-i, --tau and --tol
        (["solve", "--rho", "0.7", "--th", "1"], "No such option '--th'."),
        (["solve", "--rho", "0.7", "--theta-i", "1", "--degrees=1"],
         "Option '--degrees' does not take a value."),
        (["simulate", "--rho", "0.7", "--theta-i", "1", "--steps"],
         "Option '--steps' requires an argument."),
        (["solve", "--rho", "0.7", "--theta-i", "1", "0.5"],
         "Got unexpected extra argument (0.5)"),
        (["solve", "--rho", "x", "--theta-i", "1"],
         "Invalid value for '--rho': could not convert string to float: 'x'"),
        (["measure", "--rho", "0.7"], "No such command 'measure'."),
        (["--rho", "0.7"], "No such option '--rho'."),
    ])
    def test_message_on_stderr_only(self, argv, message):
        result = run_cli(argv)
        assert (result.exit_code, result.stdout) == (2, b"")
        command = f"spincollapse {argv[0]}" if argv[0] in cli._COMMANDS else "spincollapse"
        assert result.stderr.endswith(f"Try '{command} --help' for help.\n\nError: {message}\n")

    def test_no_arguments_prints_help_to_stderr(self):
        result = run_cli([])
        assert (result.exit_code, result.stdout) == (2, b"")
        assert result.stderr == run_cli(["--help"]).stdout.decode()

    @pytest.mark.parametrize("grid", ["4x4", "400"])
    def test_oracle_checks_grid_before_tol(self, grid):
        # a bad grid is reported before a bad --tol, whatever its size
        argv = ["oracle", "--rho", "0.7", "--theta-i", "1", "--grid", grid, "--tol", "-1"]
        result = run_cli(argv)
        assert result.exit_code == 2
        assert "grid" in result.stderr and "eigen_tol" not in result.stderr

    def test_version(self):
        result = run_cli(["--version"])
        assert result.exit_code == 0
        assert result.stdout.decode() == f"spincollapse, version {__version__}\n"


class TestArgv:
    """`cli._parse` reads each command's argv against the command's rows of
    the flag table."""

    _SOLVE = ["solve", "--rho", "0.7", "--theta-i", "0.9"]

    def test_value_reads_like_an_option(self):
        # a value flag takes the next token as it stands, a leading dash too
        doc = _json(run_cli(["solve", "--amp-up", "-0.6+0.2j", "--amp-down", "-0.5",
                             "--theta-i", "0.9", "--phi-i", "-1.1"]))
        assert doc["input"]["amp_up"] == "-0.6+0.2j"
        assert doc["input"]["amp_down"] == "-0.5"
        assert doc["input"]["phi_i"] == -1.1

    def test_equals_and_space_spellings_agree(self, tmp_path):
        spaced = run_cli([*self._SOLVE, "--mode", "reflective"])
        joined = run_cli(["solve", "--rho=0.7", "--theta-i=0.9", "--mode=reflective"])
        assert spaced.exit_code == 0 and joined == spaced
        # the value is the text after the first "=", an "=" in it too
        target = tmp_path / "a=b"
        assert run_cli([*self._SOLVE, f"--out={target}"]).exit_code == 0
        assert target.read_bytes() == run_cli(self._SOLVE).stdout

    def test_last_of_a_repeated_flag_wins(self):
        repeated = run_cli(["solve", "--rho", "0.1", "--theta-i", "0.9", "--rho", "0.7",
                            "--mode", "reflective", "--mode", "strict"])
        assert repeated.exit_code == 0 and repeated == run_cli(self._SOLVE)

    def test_double_dash_ends_the_flags(self):
        assert run_cli([*self._SOLVE, "--"]) == run_cli(self._SOLVE)
        result = run_cli([*self._SOLVE, "--", "--mode", "reflective"])
        assert (result.exit_code, result.stdout) == (2, b"")
        assert "unexpected extra argument (--mode reflective)" in result.stderr

    def test_help_is_the_table(self):
        # each command's --help lists its rows in order, before any flag
        # is checked: here the required ones are missing
        for name, (fn, rows, _) in cli._COMMANDS.items():
            result = run_cli([name, "--help"])
            assert (result.exit_code, result.stderr) == (0, "")
            text = result.stdout.decode()
            summary = fn.__doc__.partition("\n")[0]
            assert text.startswith(f"Usage: spincollapse {name} [OPTIONS]\n\n  {summary}\n")
            options = text.partition("\nOptions:\n")[2].splitlines()
            assert [line.split()[0] for line in options if line.startswith("  --")] == [
                *(row.flag for row in rows), "--help"]
            assert max(map(len, text.splitlines())) <= 80
        listed = run_cli(["--help"]).stdout.decode().partition("\nCommands:\n")[2]
        assert [line.split()[0] for line in listed.splitlines()] == sorted(cli._COMMANDS)

    def test_main_returns_or_exits_with_the_code(self, monkeypatch, capsys):
        assert cli.main.main is cli.main
        monkeypatch.setattr(sys, "argv", ["spincollapse", "--version"])
        assert cli.main(standalone_mode=False) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--rho", "0.9", "--tau", "0.3", "--theta-i", "1.0",
                      "--phi-i", "0.5", "--grid", "8x8", "--constraint-tol", "1e-9"])
        assert exc.value.code == 3
        assert capsys.readouterr().out.startswith("spincollapse, version")

    def test_runs_without_click(self):
        # the CLI imports no argument-parsing package: the four commands,
        # --version and each --help run with click barred
        script = (
            "import sys\n"
            "sys.modules['click'] = None\n"
            "from spincollapse.cli import main\n"
            "state = ['--rho', '0.7', '--theta-i', '0.9']\n"
            "for argv in (['solve', *state], ['oracle', *state, '--grid', '8x16'],\n"
            "             ['simulate', *state, '--steps', '3', '--outcome', 'born',\n"
            "              '--seed', '4'],\n"
            "             ['landscape', *state, '--grid', '4x8'], ['--version'], ['--help'],\n"
            "             ['solve', '--help'], ['oracle', '--help'],\n"
            "             ['simulate', '--help'], ['landscape', '--help']):\n"
            "    print(argv[0], main(argv, standalone_mode=False), file=sys.stderr)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "solve 0", "oracle 0", "simulate 0", "landscape 0", "--version 0", "--help 0",
            "solve 0", "oracle 0", "simulate 0", "landscape 0"]

    @pytest.mark.parametrize("argv, exit_code", [
        (["solve", "--rho", "0.7", "--theta-i", "0.9"], 0),
        (["solve", "--rho", "0.7", "--theta-i", "0.9", "--bogus"], 2),
        (["oracle", "--rho", "0.9", "--tau", "0.3", "--theta-i", "1.0", "--phi-i", "0.5",
          "--grid", "8x8", "--constraint-tol", "1e-9"], 3),
    ])
    def test_module_exit_codes(self, argv, exit_code):
        proc = run_python("-m", "spincollapse.cli", *argv)
        assert proc.returncode == exit_code, proc.stderr
        assert (proc.stdout == "") == (exit_code == 2)
        assert ("Error: " in proc.stderr) == (exit_code == 2)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_console_script(self):
        # the [project.scripts] entry point, called the way an installed
        # script calls it: its own name as argv[0] and main() with no arguments
        import tomllib

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, _, attr = scripts["spincollapse"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main

        def script(*argv):
            return run_python("-c", f"import sys\nfrom {module} import {attr} as main\n"
                              f"sys.argv = ['spincollapse', *{argv!r}]\nsys.exit(main())\n")

        version = script("--version")
        assert (version.returncode, version.stdout, version.stderr) == (
            0, "spincollapse, version 0.1.0\n", "")
        bare = script()
        assert (bare.returncode, bare.stdout) == (2, "")
        assert bare.stderr.startswith("Usage: spincollapse [OPTIONS] COMMAND [ARGS]...\n")
        assert "\nCommands:\n" in bare.stderr


# the pinned commands that print a JSON document: a usage error prints none
_DOCUMENT_PINS = [case for case in PINNED
                  if not case[1].startswith("landscape") and case[2] != 2]


class TestPinnedBytes:
    # the stdout bytes and exit codes of `PINNED` are the ``cli.pinned.<name>``
    # lines of `DIGEST_LINES` in tests/test_scripts.py
    @pytest.mark.parametrize(
        "command",
        [case[1] for case in PINNED if case[1].startswith("landscape")],
        ids=[case[0] for case in PINNED if case[1].startswith("landscape")],
    )
    def test_landscape_is_the_cell_by_cell_table(self, monkeypatch, command):
        # on each pinned shape `_table`'s text is the one that formats every
        # cell by its own `repr`
        calls = []

        def recording_table(*args):
            calls.append(args)
            return _table(*args)

        monkeypatch.setattr(cli, "_table", recording_table)
        result = run_cli(command.split())
        assert result.exit_code == 0, result.stderr
        (args,) = calls
        assert result.stdout.decode() == landscape_table(*args)

    @pytest.mark.parametrize("name", [
        "solve-reflective-2", "oracle-exclude", "oracle-infeasible",
        "simulate-strict-absorbs", "simulate-born-tol0-base2",
    ])
    def test_out_file_equals_stdout(self, tmp_path, name):
        _, command, exit_code = next(case for case in PINNED if case[0] == name)
        printed = run_cli(command.split())
        assert printed.exit_code == exit_code, printed.stderr
        target = tmp_path / "doc.json"
        result = run_cli([*command.split(), "--out", str(target)])
        assert result.exit_code == exit_code, result.stderr
        assert result.stdout == b""
        assert target.read_bytes() == printed.stdout

    @pytest.mark.parametrize(
        "command, exit_code",
        [case[1:] for case in _DOCUMENT_PINS], ids=[case[0] for case in _DOCUMENT_PINS],
    )
    def test_replays_from_input_echo(self, command, exit_code):
        first = run_cli(command.split())
        assert first.exit_code == exit_code, first.stderr
        doc = json.loads(first.stdout)
        second = run_cli(_argv_from_echo(doc["command"], doc["input"]))
        assert second.exit_code == exit_code, second.stderr
        assert second.stdout == first.stdout
