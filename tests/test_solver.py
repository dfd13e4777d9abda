"""Constrained solver: closed form vs grid oracle vs circle descent."""

import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spincollapse import (
    DEFAULT_ATOL,
    Axis,
    Extremum,
    InfeasibleGridError,
    NoCollapseError,
    PureState,
    SimConfig,
    antipode,
    axis_from_vector,
    azimuth_descent,
    binary_entropy,
    bloch_vector,
    born_up,
    brute_force_oracle,
    constraint_residual,
    feasible_set,
    s_up,
    solve,
    state_from_bloch,
    state_from_eigenvector,
    step,
    unit_vector,
)

from spincollapse import solver
from spincollapse.solver import (
    MODES,
    _band_candidates,
    _collapse_frame,
    _entropy_grid,
    _grid,
    _grid_dot,
)
from spincollapse.spin import (
    TWO_PI,
    _bloch_xyz,
    _born_frame,
    _dot3,
    _reduce_angles,
    _unit_xyz,
)

import helpers
from helpers import (
    angle_between,
    bloch_xyz_own,
    born_up_min_max,
    eigen_weights_own,
    grid_unmirrored,
    non_eigen_pair,
    triple_product,
    uniform_axis,
    uniform_state,
)

H_QUARTER = 0.5623351446188083  # binary_entropy(1/4), frozen
UP_Z = PureState(1.0, 0.0)
TILT = Axis(math.pi / 3, 0.0)


def _rotation(rng) -> np.ndarray:
    """Random rotation matrix via the axis-angle (Rodrigues) formula."""
    u = unit_vector(uniform_axis(rng))
    t = float(rng.uniform(0.1, math.pi))
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + math.sin(t) * k + (1 - math.cos(t)) * (k @ k)


class TestStrictMode:
    def test_keeps_axis_and_antipode(self):
        sol = solve(UP_Z, TILT, "strict")
        assert not sol.no_collapse
        assert sol.objective == 0.0
        got = {(round(a.theta, 12), round(a.phi, 12)) for a in sol.minimizers}
        assert got == {
            (round(math.pi / 3, 12), 0.0),
            (round(2 * math.pi / 3, 12), round(math.pi, 12)),
        }

    def test_minimizers_feasible(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            sol = solve(state, axis, "strict")
            for a in sol.minimizers:
                assert abs(constraint_residual(state, axis, a)) <= 1e-9

    def test_minimizers_sorted(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            for mode in ("strict", "reflective"):
                sol = solve(state, axis, mode)
                keys = [(a.theta, a.phi) for a in sol.minimizers]
                assert keys == sorted(keys)
                ext = [(e.axis.theta, e.axis.phi) for e in sol.extrema]
                assert ext == sorted(ext)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve(UP_Z, TILT, "fancy")


class TestReflectiveMode:
    def test_mirror_pair_for_tilted_axis(self):
        sol = solve(UP_Z, TILT, "reflective")
        got = {(round(a.theta, 9), round(a.phi, 9)) for a in sol.minimizers}
        assert got == {
            (round(math.pi / 3, 9), round(math.pi, 9)),
            (round(2 * math.pi / 3, 9), 0.0),
        }
        assert sol.objective == pytest.approx(H_QUARTER, abs=1e-12)
        assert {e.kind for e in sol.extrema} == {"min"}

    def test_shallow_tilt_mirrors_are_circle_maxima(self):
        # colatitude pi/6 < pi/4: the mirrors sit on top of their circles
        sol = solve(UP_Z, Axis(math.pi / 6, 0.0), "reflective")
        mirror = {(round(a.theta, 9), round(a.phi, 9)) for a in sol.minimizers}
        assert mirror == {
            (round(math.pi / 6, 9), round(math.pi, 9)),
            (round(5 * math.pi / 6, 9), 0.0),
        }
        assert sol.objective == pytest.approx(H_QUARTER, abs=1e-12)
        kinds = {
            (round(e.axis.theta, 9), round(e.axis.phi, 9)): e.kind for e in sol.extrema
        }
        for key in mirror:
            assert kinds[key] == "max"

    def test_minimizers_feasible_and_in_plane(self, rng):
        for _ in range(100):
            state, axis = non_eigen_pair(rng)
            sol = solve(state, axis, "reflective")
            m = bloch_vector(state)
            n_i = unit_vector(axis)
            for a in sol.minimizers:
                assert abs(constraint_residual(state, axis, a)) <= 1e-9
                assert abs(triple_product(m, n_i, unit_vector(a))) <= 1e-9

    def test_objective_closed_form(self, rng):
        for _ in range(100):
            state, axis = non_eigen_pair(rng)
            sol = solve(state, axis, "reflective")
            cos_b = float(np.dot(unit_vector(axis), bloch_vector(state)))
            cos_2b = 2.0 * cos_b * cos_b - 1.0
            assert sol.objective == pytest.approx(
                binary_entropy(0.5 * (1.0 + abs(cos_2b))), abs=1e-9
            )

    def test_mirror_is_reflection_about_bloch_vector(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            m = bloch_vector(state)
            n_i = unit_vector(axis)
            if abs(float(np.dot(n_i, m))) <= 1e-6:
                continue  # merged-circle case has no distinct mirror
            sol = solve(state, axis, "reflective")
            r = 2.0 * float(np.dot(n_i, m)) * m - n_i
            dots = [abs(float(np.dot(unit_vector(a), r))) for a in sol.minimizers]
            assert max(dots) >= 1.0 - 1e-12

    def test_degenerate_great_circle_returns_trivial_pair(self):
        # Bloch vector orthogonal to the axis: p = 1/2, circles merge,
        # the mirrors coincide with the trivial pair
        sol = solve(PureState(0.5, 0.0), Axis(0.0, 0.0), "reflective")
        assert [(a.theta, a.phi) for a in sol.minimizers] == [
            (0.0, 0.0),
            (math.pi, 0.0),
        ]
        assert sol.objective <= 1e-12
        assert len(sol.extrema) == 2


class TestNoCollapse:
    def test_solve_flags_eigenstate(self):
        for s in (+1, -1):
            axis = Axis(1.1, 0.7)
            state = state_from_eigenvector(axis, s)
            sol = solve(state, axis)
            assert sol.no_collapse
            assert sol.minimizers == (axis,)
            assert sol.objective == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda state, axis, **kw: feasible_set(state, axis, **kw),
            lambda state, axis, **kw: azimuth_descent(state, axis, 0, 1.0, **kw),
        ],
        ids=["feasible_set", "azimuth_descent"],
    )
    @pytest.mark.parametrize(
        "state, eigen_tol",
        [
            (UP_Z, DEFAULT_ATOL),
            # p = 1e-20 clears a zero tolerance, but n_i . m rounds to -1
            (PureState(1e-20, 0.0), 0.0),
        ],
        ids=["eigenstate", "eigenstate-at-float-resolution"],
    )
    def test_feasible_set_raises(self, build, state, eigen_tol):
        with pytest.raises(NoCollapseError):
            build(state, Axis(0.0, 0.0), eigen_tol=eigen_tol)

    @pytest.mark.parametrize(
        "call",
        [
            lambda **kw: solve(UP_Z, TILT, **kw),
            lambda **kw: feasible_set(UP_Z, TILT, **kw),
            lambda **kw: azimuth_descent(UP_Z, TILT, 0, 1.0, **kw),
            lambda **kw: brute_force_oracle(UP_Z, TILT, grid=(16, 16), **kw),
        ],
        ids=["solve", "feasible_set", "azimuth_descent", "brute_force_oracle"],
    )
    # min(p, 1 - p) <= 1/2 always, so a tolerance of 1/2 or more would call
    # every state an eigenstate
    @pytest.mark.parametrize("eigen_tol", [-1.0, math.nan, 0.5, 0.6, math.inf])
    def test_bad_eigen_tol_rejected(self, call, eigen_tol):
        if eigen_tol >= 0.5:
            message = re.escape(f"eigen_tol must be below 1/2, got {eigen_tol!r}")
        else:
            message = "eigen_tol must be non-negative"
        with pytest.raises(ValueError, match=message):
            call(eigen_tol=eigen_tol)

    def test_eigen_tol_just_below_half_accepted(self):
        # p = 1/2 exactly: min(p, 1 - p) clears any tolerance below 1/2
        sol = solve(PureState(0.5, 1.3), Axis(0.0, 0.0), eigen_tol=math.nextafter(0.5, 0.0))
        assert not sol.no_collapse

    # the base is checked with the other arguments, before the eigenstate
    # check, so an eigenstate input does not hide a bad base
    @pytest.mark.parametrize(
        "call",
        [
            lambda state, axis, **kw: solve(state, axis, "reflective", **kw),
            lambda state, axis, **kw: brute_force_oracle(state, axis, grid=(16, 16), **kw),
            lambda state, axis, **kw: s_up(axis, TILT, **kw),
        ],
        ids=["solve", "brute_force_oracle", "s_up"],
    )
    @pytest.mark.parametrize("state, axis", [(UP_Z, Axis(0.0, 0.0)), (UP_Z, TILT)],
                             ids=["eigenstate", "generic"])
    @pytest.mark.parametrize("base", [1.0, -2.0, math.nan])
    def test_bad_base_rejected(self, call, state, axis, base):
        with pytest.raises(ValueError, match="invalid logarithm base"):
            call(state, axis, base=base)

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_solve_flags_eigenstate_at_float_resolution(self, mode):
        # agrees with feasible_set: no mirror pair 4e-10 rad off +-n_i
        axis = Axis(0.0, 0.0)
        sol = solve(PureState(1e-20, 0.0), axis, mode, eigen_tol=0.0)
        assert sol.no_collapse
        assert sol.minimizers == (axis,)
        assert sol.extrema == (Extremum(axis, 0.0, "min"),)

    def test_oracle_raises(self):
        with pytest.raises(NoCollapseError):
            brute_force_oracle(UP_Z, Axis(0.0, 0.0), grid=(16, 16))

    def test_oracle_raises_at_float_resolution(self):
        with pytest.raises(NoCollapseError, match="float resolution"):
            brute_force_oracle(
                PureState(1e-20, 0.0), Axis(0.0, 0.0), grid=(16, 16), eigen_tol=0.0
            )

    def test_eigen_tolerance_boundary(self):
        nearly_up = PureState(1.0 - 1e-13, 0.0)
        assert solve(nearly_up, Axis(0.0, 0.0)).no_collapse
        barely_mixed = PureState(1.0 - 1e-10, 0.0)
        assert not solve(barely_mixed, Axis(0.0, 0.0)).no_collapse

    @pytest.mark.parametrize("mode", MODES)
    def test_mirrors_on_trivial_angles_reported_once(self, mode):
        # n_i along the Bloch vector up to rounding: at eigen_tol=0 the state
        # collapses, and the mirrors +-r round to the canonical angles of +-n_i
        state = PureState(0.5377366313690835, 2.673200529835764)
        axis = Axis(1.4952512277980856, 2.673200529835764)
        sol = solve(state, axis, mode, eigen_tol=0.0)
        n_i = (1.4952512277980856, 2.673200529835764)
        opposite = (1.6463414257917075, 5.814793183425557)
        mirror_value = 1.6142867579807968e-14
        assert not sol.no_collapse
        assert [(a.theta, a.phi) for a in sol.minimizers] == [n_i, opposite]
        assert sol.objective == (0.0 if mode == "strict" else mirror_value)
        # equal angles sort by value, then by kind
        assert [((e.axis.theta, e.axis.phi), e.value, e.kind) for e in sol.extrema] == [
            (n_i, 0.0, "min"),
            (n_i, mirror_value, "max"),
            (opposite, 0.0, "min"),
            (opposite, mirror_value, "max"),
        ]

    def test_near_eigenstates_report_two_minimizers(self, rng):
        # axes along the Bloch vector up to rounding: at eigen_tol=0 a few
        # pairs collapse, and their mirrors often round onto +-n_i
        collapsed = 0
        for _ in range(800):
            theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
            state, axis = PureState(math.cos(theta / 2.0) ** 2, phi), Axis(theta, phi)
            for mode in MODES:
                sol = solve(state, axis, mode, eigen_tol=0.0)
                if sol.no_collapse:
                    continue
                collapsed += 1
                assert len({(a.theta, a.phi) for a in sol.minimizers}) == 2
                assert len(sol.minimizers) == 2
        assert collapsed >= 20


class TestFeasibleSet:
    def test_levels_are_born_probabilities(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            fs = feasible_set(state, axis)
            p = born_up(state, axis)
            assert fs.levels[0] == p
            if len(fs.levels) == 2:
                assert fs.levels[1] == pytest.approx(1.0 - p, abs=1e-15)

    def test_circle_points_hold_the_level(self, rng):
        for _ in range(30):
            state, axis = non_eigen_pair(rng)
            fs = feasible_set(state, axis)
            for level in range(len(fs.levels)):
                for psi in rng.uniform(0.0, 2.0 * math.pi, size=5):
                    a = fs.axis_on_circle(level, float(psi))
                    assert born_up(state, a) == pytest.approx(
                        fs.levels[level], abs=1e-12
                    )
                    assert abs(constraint_residual(state, axis, a)) <= 1e-9

    def test_frame_orthonormal(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            fs = feasible_set(state, axis)
            for u in (fs.center, fs.in_plane, fs.out_of_plane):
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(np.dot(fs.center, fs.in_plane)) <= 1e-12
            assert abs(np.dot(fs.center, fs.out_of_plane)) <= 1e-12
            assert abs(np.dot(fs.in_plane, fs.out_of_plane)) <= 1e-12

    def test_azimuth_zero_is_measured_axis_on_first_circle(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            fs = feasible_set(state, axis)
            assert angle_between(fs.axis_on_circle(0, 0.0), axis) <= 1e-9

    def test_merged_level_for_balanced_probability(self):
        fs = feasible_set(PureState(0.5, 0.0), Axis(0.0, 0.0))
        assert fs.levels == (0.5,)
        assert fs.colatitudes[0] == pytest.approx(math.pi / 2, abs=1e-12)


class TestBruteForceOracle:
    def test_finds_trivial_minimum(self):
        axis, objective = brute_force_oracle(UP_Z, TILT, grid=(100, 200))
        assert objective <= 1e-3
        assert angle_between(axis, TILT) <= 2.0 * math.pi / 99

    def test_deterministic(self):
        a1 = brute_force_oracle(UP_Z, TILT, grid=(64, 64))
        a2 = brute_force_oracle(UP_Z, TILT, grid=(64, 64))
        assert a1 == a2

    def test_row_major_tie_break(self):
        # p = 1/2 everywhere on the feasible great circle; the measured axis
        # (the north pole) is feasible with objective 0 and fills the whole
        # first grid row, so the first-in-row-major rule must return phi = 0
        axis, objective = brute_force_oracle(
            PureState(0.5, 0.0), Axis(0.0, 0.0), grid=(33, 16)
        )
        assert axis == Axis(0.0, 0.0)
        assert objective <= 1e-12

    def test_respects_feasibility(self, rng):
        for _ in range(10):
            state, axis = non_eigen_pair(rng, margin=0.05)
            found, _ = brute_force_oracle(
                state, axis, grid=(120, 240), constraint_tol=5e-3
            )
            assert abs(constraint_residual(state, axis, found)) <= 5e-3

    def test_excluded_neighborhood_minimum_sits_on_the_boundary(self):
        # the feasible circle through the measured axis re-enters the kept
        # region right at the exclusion radius, so the constrained minimum
        # hugs the boundary and undercuts the mirror solution by far
        radius = 0.2
        axis, objective = brute_force_oracle(
            UP_Z, TILT, grid=(400, 800), exclude=radius
        )
        separation = min(angle_between(axis, TILT), angle_between(axis, antipode(TILT)))
        assert radius < separation <= radius + 0.06
        assert 0.05 <= objective <= 0.07
        mirror_objective = solve(UP_Z, TILT, "reflective").objective
        assert mirror_objective - objective > 0.4

    def test_exclusion_never_beats_unexcluded(self):
        _, base_obj = brute_force_oracle(UP_Z, TILT, grid=(200, 400))
        _, excl_obj = brute_force_oracle(UP_Z, TILT, grid=(200, 400), exclude=0.2)
        assert excl_obj >= base_obj

    @pytest.mark.parametrize("grid", [(40, 80), (400, 800)])
    def test_exclusion_boundary_is_strict(self, grid):
        # the answer's angle alpha to +-n_i, taken with the oracle's own
        # expression on the grid's trig: a radius of exactly alpha drops the
        # point, and one ulp less keeps it
        state, axis = PureState(0.7, 0.4), Axis(0.9, 1.1)
        found, _ = brute_force_oracle(state, axis, grid=grid, exclude=0.2)
        thetas, phis, (sin_t, cos_t, cos_p, sin_p) = _grid(*grid)
        i, j = np.flatnonzero(thetas == found.theta), np.flatnonzero(phis == found.phi)
        dot = _grid_dot(_unit_xyz(axis), (sin_t[i], cos_t[i], cos_p[j], sin_p[j]))
        alpha = float(np.arccos(np.minimum(np.abs(dot), 1.0))[0])
        assert alpha > 0.2
        assert brute_force_oracle(state, axis, grid=grid, exclude=alpha)[0] != found
        inside = math.nextafter(alpha, 0.0)
        assert brute_force_oracle(state, axis, grid=grid, exclude=inside)[0] == found

    def test_total_exclusion_is_infeasible(self):
        with pytest.raises(InfeasibleGridError, match=r"exclusion radius 3\.0 "):
            brute_force_oracle(UP_Z, TILT, grid=(64, 64), exclude=3.0)

    def test_exclusion_emptied_band_names_the_radius(self):
        # every band point lies within 2 beta ~ 0.28 of +-n_i; the plain
        # oracle finds one, so the exclusion, not the band, is to blame
        state, axis = PureState(0.995, 0.0), Axis(0.0, 0.0)
        brute_force_oracle(state, axis)
        with pytest.raises(InfeasibleGridError) as got:
            brute_force_oracle(state, axis, exclude=0.5)
        assert str(got.value) == (
            "every grid point with |residual| <= 0.005 on a 400x800 grid lies "
            "within the exclusion radius 0.5 of the measured axis or its "
            "antipode; lower the radius")

    @pytest.mark.parametrize("grid", [(8, 8), (37, 91)])
    def test_quarter_turn_exclusion_empties_any_grid(self, grid):
        # no direction lies farther than pi/2 from both n_i and -n_i
        with pytest.raises(InfeasibleGridError, match=r"exclusion radius 1\.5707963267948966 "):
            brute_force_oracle(PureState(0.3, 1.0), Axis(1.2, 0.4), grid=grid,
                               constraint_tol=0.3, exclude=0.5 * math.pi)

    @pytest.mark.parametrize("exclude", [None, 0.2])  # an empty band is the band's fault
    def test_tight_tolerance_on_coarse_grid_is_infeasible(self, exclude):
        with pytest.raises(InfeasibleGridError) as got:
            brute_force_oracle(
                PureState(0.9, 0.3),
                Axis(1.0, 0.5),
                grid=(8, 8),
                constraint_tol=1e-9,
                exclude=exclude,
            )
        assert str(got.value) == (
            "no grid point satisfies |residual| <= 1e-09 on a 8x8 grid; refine "
            "the grid or loosen the tolerance")

    @pytest.mark.parametrize("exclude", [None, 0.2])
    def test_fine_grid_within_spacing_bound(self, rng, exclude):
        # Every point of the sphere lies within cell/2 of a grid point.  The
        # exact minimum sits at angle R from n_i (R = 0 unexcluded, the
        # exclusion radius otherwise); the grid point nearest the circle point
        # at angle R + cell is kept and lies within R + 2 cell of n_i.  Its
        # n_f . m is within cell/2 of the level's, so its |residual| is at most
        # about ln(19) cell/4 = 1.6e-3 < tol for p_i in [0.05, 0.95].
        # No kept point lies within R of n_i or -n_i.
        grid, tol = (2000, 4000), 2e-3
        cell = math.hypot(math.pi / (grid[0] - 1), 2.0 * math.pi / grid[1])
        radius = 0.0 if exclude is None else exclude
        lower = binary_entropy(0.5 * (1.0 + math.cos(radius))) - 1e-12
        upper = binary_entropy(0.5 * (1.0 + math.cos(radius + 2.0 * cell)))
        for _ in range(10):
            state, axis = non_eigen_pair(rng, margin=0.05)
            found, objective = brute_force_oracle(
                state, axis, grid=grid, constraint_tol=tol, exclude=exclude
            )
            assert lower <= objective <= upper
            assert abs(constraint_residual(state, axis, found)) <= tol

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_oracle(UP_Z, TILT, grid=(4, 800))
        with pytest.raises(ValueError):
            brute_force_oracle(UP_Z, TILT, grid=(16, 16), constraint_tol=0.0)
        with pytest.raises(ValueError):
            brute_force_oracle(UP_Z, TILT, grid=(16, 16), exclude=-0.1)

    @pytest.mark.parametrize(
        "grid", [(8.9, 8.9), (16.0, 16), (16, "16"), ("16", "16"), "16x16", (16,), (16, 16, 16)])
    def test_grid_sizes_must_be_two_integers(self, grid):
        # a float size is not truncated, and the grid is checked first
        with pytest.raises(ValueError, match=r"grid must be two integer sizes, got "):
            brute_force_oracle(UP_Z, TILT, grid=grid, constraint_tol=-1.0)

    def test_numpy_integer_grid_sizes_accepted(self):
        grid = (np.int64(16), np.int32(24))
        assert brute_force_oracle(UP_Z, TILT, grid=grid) == brute_force_oracle(
            UP_Z, TILT, grid=(16, 24))


def _full_grid_oracle(state, axis, grid, constraint_tol, exclude, base):
    """The oracle as a masked argmin over the whole landscape grid."""
    thetas, phis, _p_up, s_f, _residual, s_up_grid = _entropy_grid(state, axis, *grid, base)
    keep = np.abs(s_f - binary_entropy(born_up(state, axis), base)) <= constraint_tol
    if not keep.any():
        raise InfeasibleGridError(
            f"no grid point satisfies |residual| <= {constraint_tol!r} on a "
            f"{grid[0]}x{grid[1]} grid; refine the grid or loosen the tolerance"
        )
    if exclude is not None:
        st, ct = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
        cp, sp = np.cos(phis)[None, :], np.sin(phis)[None, :]
        n = unit_vector(axis)
        dot_i = st * cp * n[0] + st * sp * n[1] + ct * n[2]
        keep &= np.arccos(np.clip(np.abs(dot_i), -1.0, 1.0)) > exclude
        if not keep.any():
            raise InfeasibleGridError(
                f"every grid point with |residual| <= {constraint_tol!r} on a "
                f"{grid[0]}x{grid[1]} grid lies within the exclusion radius "
                f"{exclude!r} of the measured axis or its antipode; lower the radius"
            )
    i, j = divmod(int(np.where(keep, s_up_grid, np.inf).argmin()), grid[1])
    return Axis(float(thetas[i]), float(phis[j])), float(s_up_grid[i, j])


def _oracle_cases():
    rng = np.random.Generator(np.random.PCG64(5150))
    pairs = [(f"generic{k}", *non_eigen_pair(rng)) for k in range(6)]
    pairs += [("north-pole", uniform_state(rng), Axis(0.0, 0.0)),
              ("south-pole", uniform_state(rng), Axis(math.pi, 0.0)),
              ("half", PureState(0.5, 0.0), Axis(0.0, 0.0)),
              ("half-tau", PureState(0.5, 1.3), Axis(0.0, 0.0))]
    cases = []
    for k, (name, state, axis) in enumerate(pairs):
        grid = [(37, 91), (64, 128), (33, 16)][k % 3]
        for exclude in (None, 0.05, 0.2):
            for base, base_name in ((math.e, "e"), (2.0, "2")):
                cases.append(pytest.param(
                    state, axis, grid, 5e-3, exclude, base,
                    id=f"{name}-{grid[0]}x{grid[1]}-exclude{exclude}-base{base_name}",
                ))
    infeasible = (PureState(0.9, 0.3), Axis(1.0, 0.5), (8, 8), 1e-9)
    cases.append(pytest.param(*infeasible, None, math.e, id="infeasible"))
    cases.append(pytest.param(*infeasible, 0.2, 2.0, id="infeasible-exclude-base2"))
    cases.append(pytest.param(UP_Z, TILT, (64, 64), 5e-3, 3.0, math.e, id="all-excluded"))
    # pole states (A = 0 on every row of the band prefilter), a band merged
    # across H(1/2) and the default grid
    cases.append(pytest.param(UP_Z, TILT, (37, 91), 5e-3, None, math.e, id="rho1-37x91"))
    cases.append(pytest.param(
        PureState(0.0, 0.0), TILT, (37, 91), 5e-3, 0.2, 2.0, id="rho0-37x91-exclude0.2-base2"))
    cases.append(pytest.param(
        *pairs[2][1:], (64, 128), 0.3, None, math.e, id="generic2-64x128-merged-tol0.3"))
    cases.append(pytest.param(*pairs[0][1:], (400, 800), 5e-3, None, math.e, id="generic0-400x800"))
    return cases


class TestOracleSubsetPath:
    """The oracle gathers the trig once at the band prefilter's candidates
    and scores s_f, the exclusion and s_up there; its masked argmin must be
    bit-equal to the one `_full_grid_oracle` takes over the full landscape
    surfaces."""

    @pytest.mark.parametrize(
        "state, axis, grid, constraint_tol, exclude, base", _oracle_cases()
    )
    def test_matches_full_grid_argmin(self, state, axis, grid, constraint_tol, exclude, base):
        kwargs = dict(grid=grid, constraint_tol=constraint_tol, exclude=exclude, base=base)
        try:
            expected = _full_grid_oracle(state, axis, grid, constraint_tol, exclude, base)
        except InfeasibleGridError as exc:
            with pytest.raises(InfeasibleGridError) as got:
                brute_force_oracle(state, axis, **kwargs)
            assert str(got.value) == str(exc)
            return
        found, objective = brute_force_oracle(state, axis, **kwargs)
        assert (found.theta.hex(), found.phi.hex(), objective.hex()) == (
            expected[0].theta.hex(), expected[0].phi.hex(), expected[1].hex()
        )


BAND_GRIDS = [(8, 8), (33, 16), (37, 91), (400, 800)]


def _check_band_superset(state, axis, grid, constraint_tol, base):
    """`_band_candidates` holds every point of the full-grid band, in
    strictly increasing row-major order."""
    level = binary_entropy(born_up(state, axis), base)
    if constraint_tol == "merge":  # the two levels join into one band
        constraint_tol = binary_entropy(0.5, base) - level + 0.05
    _thetas, _phis, _p_up, s_f, _residual, _s_up = _entropy_grid(state, axis, *grid, base)
    rows, cols = np.nonzero(np.abs(s_f - level) <= constraint_tol)
    got_rows, got_cols = _band_candidates(
        bloch_vector(state), level, constraint_tol, base, _grid(*grid)[2])
    got = got_rows * grid[1] + got_cols
    assert np.all(np.diff(got) > 0)
    missed = ~np.isin(rows * grid[1] + cols, got)
    assert not missed.any(), list(zip(rows[missed], cols[missed]))


def _band_cases():
    rng = np.random.Generator(np.random.PCG64(6161))
    pairs = [(f"generic{k}", *non_eigen_pair(rng)) for k in range(3)]
    pairs += [("rho0", PureState(0.0, 0.0), uniform_axis(rng)),
              ("rho1", UP_Z, TILT),
              ("rho1-north-axis", UP_Z, Axis(0.0, 0.0)),
              # level 0 at float resolution; on the theta = pi row n_f . m
              # rounds to 1, but A cos(phi - phi_m) + B exceeds it
              ("near-eigen", PureState(1e-60, 0.0), Axis(0.0, 0.0)),
              ("north-pole", uniform_state(rng), Axis(0.0, 0.0)),
              ("south-pole", uniform_state(rng), Axis(math.pi, 0.0)),
              ("half", PureState(0.5, 0.7), Axis(0.0, 0.0)),
              ("half-tilted", PureState(0.5, 0.0), Axis(math.pi / 2, 1.1))]
    cases = []
    for k, (name, state, axis) in enumerate(pairs):
        for g, grid in enumerate(BAND_GRIDS):
            for constraint_tol in (1e-9, 5e-3, "merge"):
                base, base_name = ((math.e, "e"), (2.0, "2"))[(k + g) % 2]
                cases.append(pytest.param(
                    state, axis, grid, constraint_tol, base,
                    id=f"{name}-{grid[0]}x{grid[1]}-tol{constraint_tol}-base{base_name}",
                ))
    return cases


class TestBandPrefilter:
    """The oracle's closed-form candidates must cover the exact band: a point
    it skipped could be the full-grid argmin.  The pole axes put the band on
    the theta = pi row, where the row's A is 0, as on the theta = 0 row."""

    @pytest.mark.parametrize("state, axis, grid, constraint_tol, base", _band_cases())
    def test_candidates_cover_band(self, state, axis, grid, constraint_tol, base):
        _check_band_superset(state, axis, grid, constraint_tol, base)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        st.floats(0.0, 2.0 * math.pi),
        st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
        st.floats(0.0, 2.0 * math.pi),
        st.sampled_from(BAND_GRIDS),
        st.one_of(st.sampled_from([1e-9, 5e-3, "merge"]), st.floats(1e-12, 1.0)),
        st.sampled_from([math.e, 2.0]),
    )
    def test_candidates_cover_band_hypothesis(
        self, rho, tau, theta, phi, grid, constraint_tol, base
    ):
        _check_band_superset(
            PureState(rho, tau), Axis(theta, phi), grid, constraint_tol, base)


# u, the unit roundoff (half an ulp of 1), and how far a cell of the mirrored
# grid may lie from the same cell of the unmirrored one (`grid_unmirrored`).
# A mirrored row takes the trig of theta_i where the unmirrored grid took that
# of theta_j, j = n_theta - 1 - i; a mirrored column that of phi_k, where it
# took that of phi_(k + n_phi/2).  linspace makes each angle fl(k fl(span/div)),
# so |theta_i + theta_j - pi| <= |pi - fl(pi)| + fl(pi) u + ulp(theta_i)/2
# + ulp(theta_j)/2 <= (1.1 + pi + 1 + 2) u = 7.3 u, and |phi_(k + n_phi/2) -
# phi_k - pi| <= (1.1 + pi + 2 + 4) u = 10.3 u.  (sin, cos) is 1-Lipschitz in
# its angle, and numpy's sin and cos are within an ulp (at most u below 1) on
# either grid, so a row's (st, ct) moves at most (7.3 + 2 sqrt 2) u and a
# column's (cp, sp) at most (10.3 + 2 sqrt 2) u.  With |v| = 1 the dot
# (st, ct) . (cp v0 + sp v1, v2) moves at most their sum, 23.3 u, plus 4 u of
# rounding on each side (four roundings of terms whose sizes add up to at most
# 1): 31.3 u.  p = fl(0.5 fl(1 + dot)) adds u a side and halves that: 16.7 u.
_U = 2.0 ** -53
_P_BOUND = 17 * _U
# An entropy reads hi = fl(0.5 fl(1 + |dot|)), which moves as p does, and the
# exact lo = 1 - hi; the bound allows lo _P_BOUND + u.  A nonzero lo is at
# least 2**-53, the smallest nonzero p: there |H'(q)| = ln((1 - q)/q)
# < 53 ln 2, and from 0, H(q) <= q (1 + ln(1/q)).  So H moves at most
# (53 ln 2 + 1)(_P_BOUND + u), plus 4 u of rounding a side (two logs and two
# products, terms below 0.37 each); base 2 divides by ln 2, and the residual
# subtracts s_i (u a side).  About 990 u, or 1.1e-13.
_H_BOUND = ((53 * math.log(2) + 1) * (_P_BOUND + _U) + 8 * _U) / math.log(2) + 2 * _U

_GRID_SIZES = dict(n_theta=st.integers(2, 80), n_phi=st.integers(2, 160))
_STATES = dict(
    rho=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    tau=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    theta_i=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    phi_i=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    base=st.sampled_from([math.e, 2.0]),
)


def _oracle_or_error(state, axis, **kwargs):
    try:
        return brute_force_oracle(state, axis, **kwargs)
    except (InfeasibleGridError, NoCollapseError) as exc:
        return type(exc)


class TestAntipodalGrid:
    """`_grid` builds the second half of its trig from the first, so the
    grid is exactly antipodal; `helpers.grid_unmirrored` keeps the trig of
    each angle on its own, and bounds how far any value moved."""

    @settings(max_examples=80, deadline=None)
    @given(**_GRID_SIZES, **_STATES)
    # m_z = 0 makes every pole-row dot with m a signed zero; theta_i = 0
    # makes n_i . n_f exactly cos(theta_f)
    @example(9, 14, 0.5, 0.4, 0.9, 1.1, math.e)
    @example(9, 15, 0.5, 0.4, 0.0, 1.1, 2.0)
    @example(10, 14, 0.7, 0.4, 0.0, 1.1, math.e)
    def test_mirror_identities(self, n_theta, n_phi, rho, tau, theta_i, phi_i, base):
        thetas, phis, trig = _grid(n_theta, n_phi)
        old_thetas, old_phis, _ = grid_unmirrored(n_theta, n_phi)
        assert thetas.tobytes() == old_thetas.tobytes()
        assert phis.tobytes() == old_phis.tobytes()
        s_t, c_t, c_p, s_p = (a.view("u8") for a in trig)
        rows = n_theta // 2
        i, j = np.arange(rows), n_theta - 1 - np.arange(rows)
        assert (s_t[j] == s_t[i]).all()
        assert (c_t[j] == (-trig[1][i]).view("u8")).all()
        if n_theta % 2:
            assert trig[1][rows].hex() == "0x0.0p+0"
        assert trig[0][0] == trig[0][-1] == 0.0
        h = n_phi // 2
        if n_phi % 2 == 0:
            assert (c_p[h:] == (-trig[2][:h]).view("u8")).all()
            assert (s_p[h:] == (-trig[3][:h]).view("u8")).all()
        state, axis = PureState(rho, tau), Axis(theta_i, phi_i)
        for v in (_bloch_xyz(state), _unit_xyz(axis)):
            # exactly negated at the antipode (n_theta - 1 - i, k + n_phi/2) of
            # (i, k), and on the pole rows at every column; compared as values,
            # since a sum x + (-x) is +0 on both sides
            dot = _grid_dot(v, (trig[0][:, None], trig[1][:, None], trig[2], trig[3]))
            assert (dot[-1] == -dot[0]).all()
            if n_phi % 2 == 0:
                assert (dot[::-1] == -np.roll(dot, h, axis=1)).all()
        *_, p_up, s_f, residual, s_up_grid = _entropy_grid(state, axis, n_theta, n_phi, base)
        for grid in (p_up, s_f, residual, s_up_grid):
            bits = grid.view("u8")
            assert (bits[0] == bits[0, 0]).all() and (bits[-1] == bits[-1, 0]).all()

    @settings(max_examples=80, deadline=None)
    @given(n_theta=st.integers(2, 80), n_phi=st.integers(1, 80).map(lambda k: 2 * k),
           **_STATES)
    @example(50, 100, 0.7, 0.4, 0.9, 1.1, math.e)  # the landscape of _STATE
    def test_mirror_rows_are_rows_turned_half_a_turn(
        self, n_theta, n_phi, rho, tau, theta_i, phi_i, base
    ):
        # what `_entropy_grid` documents: the grid is exactly antipodal and
        # the entropies even, so s_f, the residual and s_up of row
        # n_theta - 1 - i are row i's, rolled by n_phi/2, bit for bit
        *_, s_f, residual, s_up_grid = _entropy_grid(
            PureState(rho, tau), Axis(theta_i, phi_i), n_theta, n_phi, base)
        for grid in (s_f, residual, s_up_grid):
            turned = np.roll(grid, n_phi // 2, axis=1)[::-1]
            assert grid.tobytes() == turned.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**_GRID_SIZES, **_STATES)
    def test_cells_within_rounding_of_unmirrored(
        self, n_theta, n_phi, rho, tau, theta_i, phi_i, base
    ):
        args = PureState(rho, tau), Axis(theta_i, phi_i), n_theta, n_phi, base
        new = _entropy_grid(*args)
        with mock.patch.object(solver, "_grid", grid_unmirrored):
            old = _entropy_grid(*args)
        assert np.abs(new[2] - old[2]).max() <= _P_BOUND
        for got, want in zip(new[3:], old[3:]):
            assert np.abs(got - want).max() <= _H_BOUND

    @settings(max_examples=60, deadline=None)
    @given(
        n_theta=st.integers(8, 80), n_phi=st.integers(8, 160), **_STATES,
        exclude=st.sampled_from([None, 0.05, 0.2]),
        constraint_tol=st.sampled_from([5e-3, 0.05]),
    )
    def test_oracle_is_unmirrored_answer_or_its_antipode(
        self, n_theta, n_phi, rho, tau, theta_i, phi_i, base, exclude, constraint_tol
    ):
        # +-n_f now tie exactly, and the row-major rule picks between them.
        # A symmetric input (a pole axis, or phi_i = 0, where n_i has y = 0)
        # makes mirror-image columns tie too, so an answer may also move to
        # a point that ties with the unmirrored answer up to rounding.
        state, axis = PureState(rho, tau), Axis(theta_i, phi_i)
        kwargs = dict(grid=(n_theta, n_phi), constraint_tol=constraint_tol,
                      exclude=exclude, base=base)
        new = _oracle_or_error(state, axis, **kwargs)
        with mock.patch.object(solver, "_grid", grid_unmirrored):
            old = _oracle_or_error(state, axis, **kwargs)
            thetas, phis, _p, _s_f, _r, old_s_up = _entropy_grid(
                state, axis, n_theta, n_phi, base)
        if not isinstance(old, tuple):
            assert new is old
            return
        (found, objective), (old_found, old_objective) = new, old
        assert abs(objective - old_objective) <= _H_BOUND
        if min(angle_between(found, old_found),
               angle_between(found, antipode(old_found))) > 1e-12:
            row = old_s_up[thetas == found.theta][0]
            cells = row if found.theta in (0.0, math.pi) else row[phis == found.phi]
            assert cells.min() <= old_objective + 2 * _H_BOUND

class TestAzimuthDescent:
    def test_circle_minima_are_in_plane_and_descent_finds_them(self, rng):
        # dense scan: the circle minimum always sits at azimuth 0 or pi
        # (the in-plane points); descent from a random start matches it
        scan = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        step = scan[1] - scan[0]
        for _ in range(20):
            state, axis = non_eigen_pair(rng, margin=0.05)
            fs = feasible_set(state, axis)
            for level in range(len(fs.levels)):
                values = [
                    s_up(axis, fs.axis_on_circle(level, float(q))) for q in scan
                ]
                psi_scan = float(scan[int(np.argmin(values))])
                off_plane = min(
                    psi_scan, abs(psi_scan - math.pi), 2.0 * math.pi - psi_scan
                )
                assert off_plane <= step + 1e-12
                # descent never climbs and lands on one of the two in-plane
                # critical values (whichever basin the start falls into)
                psi0 = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
                _, value = azimuth_descent(state, axis, level, psi0)
                assert value <= s_up(axis, fs.axis_on_circle(level, psi0)) + 1e-12
                in_plane_values = (
                    s_up(axis, fs.axis_on_circle(level, 0.0)),
                    s_up(axis, fs.axis_on_circle(level, math.pi)),
                )
                assert min(abs(value - v) for v in in_plane_values) <= 1e-6

    def test_descent_agrees_with_closed_form_mirror(self):
        psi, value = azimuth_descent(UP_Z, TILT, 0, 2.0)
        assert psi == pytest.approx(math.pi, abs=1e-4)
        assert value == pytest.approx(H_QUARTER, abs=1e-12)

    @pytest.mark.parametrize(
        "state, axis, level",
        [
            (PureState(0.5, 0.0), Axis(0.0, 0.0), 1),  # one merged circle
            (UP_Z, TILT, -1),
            (UP_Z, TILT, 2),
        ],
    )
    def test_level_out_of_range_rejected(self, state, axis, level):
        with pytest.raises(ValueError, match="level must lie in"):
            azimuth_descent(state, axis, level, 1.0)
        with pytest.raises(ValueError, match="level must lie in"):
            feasible_set(state, axis).axis_on_circle(level, 1.0)

    @pytest.mark.parametrize(
        "level", [1.0, 0.5, 0.0, True, False, np.float64(1.0), np.True_, "1", None])
    @pytest.mark.parametrize("route", ["azimuth_descent", "axis_on_circle"])
    def test_level_must_be_an_integer(self, route, level):
        # it used to raise a bare TypeError for a float, and read True as 1
        state = PureState(0.3, 0.0)
        with pytest.raises(ValueError, match="level must lie in"):
            if route == "azimuth_descent":
                azimuth_descent(state, TILT, level, 1.0)
            else:
                feasible_set(state, TILT).axis_on_circle(level, 1.0)

    @pytest.mark.parametrize("level", [np.int64(1), np.int32(0), np.uint8(1)])
    def test_numpy_integer_level_accepted(self, level):
        state = PureState(0.3, 0.0)
        assert azimuth_descent(state, TILT, level, 1.0) == azimuth_descent(
            state, TILT, int(level), 1.0)
        fs = feasible_set(state, TILT)
        assert fs.axis_on_circle(level, 1.0) == fs.axis_on_circle(int(level), 1.0)

    @pytest.mark.parametrize("psi0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, psi0):
        # it used to return (nan, 0.0): a silent objective at the global minimum
        with pytest.raises(ValueError, match="psi0 must be finite"):
            azimuth_descent(PureState(0.7, 0.4), Axis(0.9, 1.1), 0, psi0)

    def test_stops_when_no_step_decreases(self, monkeypatch):
        # near psi = pi on the second circle the objective reaches 0 and the
        # line search finds no decrease at float resolution: the descent must
        # stop there instead of spending its iteration cap on sub-ulp steps
        import spincollapse.solver as solver_module

        calls = []

        def counting(p, base=math.e):
            calls.append(p)
            return binary_entropy(p, base)

        monkeypatch.setattr(solver_module, "binary_entropy", counting)
        psi, _ = azimuth_descent(UP_Z, TILT, 1, math.pi - 0.2)
        assert len(calls) < 1000
        assert abs(psi - math.pi) <= 1e-6

    @settings(max_examples=150, deadline=None)
    @given(
        cos_beta=st.floats(-0.96, 0.96),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        turn=st.floats(0.0, 2.0 * math.pi),
        level=st.integers(0, 1),
        psi0=st.floats(0.0, 2.0 * math.pi),
    )
    def test_settles_in_plane_on_the_stated_domain(self, cos_beta, theta, phi, turn,
                                                   level, psi0):
        # the docstring's domain, the one `oracle_sweep` draws its pairs from:
        # p_i in [0.02, 0.98] and a tilt 0.15 rad or more from pi/4 and 3*pi/4
        beta = math.acos(cos_beta)
        assume(min(abs(beta - math.pi / 4), abs(beta - 3 * math.pi / 4)) >= 0.15)
        axis = Axis(theta, phi)
        # the Bloch vector: tilted by beta from n toward a direction u normal to n
        u = (math.cos(turn) * unit_vector(Axis(theta + 0.5 * math.pi, phi))
             + math.sin(turn) * np.array([-math.sin(phi), math.cos(phi), 0.0]))
        state = state_from_bloch(cos_beta * unit_vector(axis) + math.sin(beta) * u)
        level = min(level, len(feasible_set(state, axis).levels) - 1)
        psi, _ = azimuth_descent(state, axis, level, psi0)
        assert min(abs(psi), abs(psi - math.pi), abs(psi - 2.0 * math.pi)) <= 1e-6

    @pytest.mark.parametrize("state, axis, level, psi0, fewer", [
        # p_i = 0.0021: the circle is so small that the objective is flat at
        # float resolution well before psi = 0 or pi, and the descent stalls
        (UP_Z, Axis(math.acos(2 * 0.0021 - 1), 0.0), 0, 0.3, 8),
        (UP_Z, Axis(math.acos(2 * 0.0021 - 1), 0.0), 1, math.pi - 0.3, 8),
        # a descent that creeps toward psi = 0 a few float spacings a step,
        # which a stop at one full spacing would cut short
        (PureState(0.7683254544817271, 4.682428672809294),
         Axis(0.8213638850017897, 4.2258929668079865), 0, 0.3642697502294028, 1),
    ])
    def test_halving_stops_where_steps_stop_moving_psi(self, monkeypatch, state, axis,
                                                       level, psi0, fewer):
        # a step of at most a quarter of psi's float spacing rounds back to
        # psi, so the line search stops there: the result is bit for bit
        # that of halving down to 1e-20, for far fewer objective evaluations
        import spincollapse.solver as solver_module

        calls = []

        def counting(p, base=math.e):
            calls.append(p)
            return binary_entropy(p, base)

        monkeypatch.setattr(solver_module, "binary_entropy", counting)
        monkeypatch.setattr(helpers, "binary_entropy", counting)
        psi, value = azimuth_descent(state, axis, level, psi0)
        now = len(calls)
        expected = helpers.azimuth_descent_to_1e_20(state, axis, level, psi0)
        assert [psi.hex(), value.hex()] == [v.hex() for v in expected]
        assert fewer * now <= len(calls) - now


class TestFloatPathAgainstNumpy:
    """The float-triple geometry pinned bit for bit to the numpy route it
    replaced: `np.cross` for the circle frame, and `axis_from_vector` on the
    array mirror 2 (n_i . m) m - n_i for the reflective minimizers.  The dots
    are the plain left-to-right float sum, written out: `np.dot` rounds a
    3-vector dot as the BLAS kernel does, which differs from build to build."""

    def test_frame_and_mirrors_bit_equal(self, rng):
        pairs = [non_eigen_pair(rng) for _ in range(300)]
        pairs += [(uniform_state(rng), Axis(t, 0.0)) for t in (0.0, math.pi) for _ in range(20)]
        pairs += [(PureState(0.5, float(tau)), Axis(0.0, 0.0)) for tau in (0.0, 1.0, 4.0)]
        pairs += [(UP_Z, Axis(math.pi / 2, 0.3)), (PureState(0.5, 0.0), Axis(1.0, 0.0))]
        mirrors = 0
        for state, axis in pairs:
            p = born_up(state, axis)
            if min(p, 1.0 - p) <= DEFAULT_ATOL:
                continue  # eigenstate: no frame, no mirrors
            fs = feasible_set(state, axis)
            crossed = np.cross(fs.center, fs.in_plane)
            assert fs.out_of_plane.tobytes() == crossed.tobytes()
            m, n_i = bloch_vector(state), unit_vector(axis)
            (mx, my, mz), (nx, ny, nz) = m.tolist(), n_i.tolist()
            cosb = min(1.0, max(-1.0, nx * mx + ny * my + nz * mz))
            e1 = n_i - cosb * m
            ux, uy, uz = e1.tolist()
            e1 = e1 / math.sqrt(ux * ux + uy * uy + uz * uz)
            assert fs.in_plane.tobytes() == e1.tobytes()
            if abs(cosb) <= DEFAULT_ATOL:
                continue  # merged circle: the mirrors are the trivial pair
            r = 2.0 * cosb * m - n_i
            expected = sorted(
                (axis_from_vector(r), axis_from_vector(-r)), key=lambda a: (a.theta, a.phi)
            )
            got = solve(state, axis, "reflective").minimizers
            assert [repr(a) for a in got] == [repr(a) for a in expected]
            mirrors += 1
        assert mirrors >= 300


def _reference_angles(theta, phi) -> tuple[float, float]:
    """The reducing route of `Axis`, taken by every input: the finite check,
    then `_reduce_angles` on both angles as floats."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"axis angles must be finite, got ({theta!r}, {phi!r})")
    return _reduce_angles(float(theta), float(phi))


def _wrapped_axis(theta: float, phi: float) -> Axis:
    """An `Axis` holding the given angles, built without `__init__`: the
    least memory an axis can take."""
    axis = object.__new__(Axis)
    object.__setattr__(axis, "theta", theta)
    object.__setattr__(axis, "phi", phi)
    return axis


def _hex(*values) -> list[str]:
    return [float.hex(v) for v in values]


# raw angles at the edges of the canonical region 0 < theta < pi, 0 < phi < 2 pi
_EDGE_ANGLES = [
    0.0, -0.0, math.pi, math.nextafter(math.pi, 0.0), TWO_PI, math.nextafter(TWO_PI, 0.0),
    -1.0, -math.pi, -TWO_PI, -7.5, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf,
    0, 1, 3, 7, -2, np.float64(1.0), np.float64(math.pi), np.float64(-0.0), np.float64(math.nan),
    # just inside the region, but rounding onto its edge as floats
    Fraction(math.pi) - Fraction(1, 2**80), Fraction(TWO_PI) - Fraction(1, 2**80),
    Fraction(1, 2**1100), Decimal(math.pi).next_minus(),
]


class TestCanonicalAngles:
    """For every input, `Axis` stores the floats of its reducing route
    (`_reference_angles`) or raises its error: canonical floats, such as every
    axis the solver builds, come out as they went in."""

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 1.0, 0.5, 1e-20, 1e-13, 1.0 - 1e-16])),
        tau=st.one_of(st.floats(0.0, 2.0 * math.pi), st.sampled_from([0.0, -0.0, math.pi])),
        theta=st.one_of(st.floats(0.0, math.pi),
                        st.sampled_from([0.0, -0.0, math.pi / 2, math.pi])),
        phi=st.one_of(st.floats(-1.0, 7.0), st.sampled_from([0.0, -0.0, math.pi])),
        eigen_tol=st.sampled_from([DEFAULT_ATOL, 0.0]),
    )
    @example(rho=0.5, tau=1.3, theta=0.0, phi=0.0, eigen_tol=DEFAULT_ATOL)  # p = 1/2
    @example(rho=1.0, tau=0.0, theta=math.pi / 2, phi=-0.0, eigen_tol=DEFAULT_ATOL)
    @example(rho=1e-13, tau=0.3, theta=0.0, phi=0.0, eigen_tol=0.0)  # near-eigenstate
    @example(rho=0.0, tau=0.0, theta=-0.0, phi=math.pi, eigen_tol=0.0)  # eigenstate
    def test_wrapping_matches_axis(self, rho, tau, theta, phi, eigen_tol):
        state, axis = PureState(rho, tau), Axis(theta, phi)
        for mode in MODES:
            sol = solve(state, axis, mode, eigen_tol=eigen_tol)
            config = SimConfig(1, mode, "risk:constant", eigen_tol=eigen_tol)
            axes = [e.axis for e in sol.extrema] + list(sol.minimizers)
            axes.append(step(state, axis, config).axis_next)
            for built in axes:
                assert type(built) is Axis
                assert _hex(built.theta, built.phi) == _hex(
                    *_reference_angles(built.theta, built.phi))

    @settings(max_examples=500, deadline=None)
    @given(
        theta=st.one_of(st.floats(), st.sampled_from(_EDGE_ANGLES)),
        phi=st.one_of(st.floats(), st.sampled_from(_EDGE_ANGLES)),
    )
    @example(theta=math.nextafter(math.pi, 0.0), phi=math.nextafter(TWO_PI, 0.0))
    @example(theta=5e-324, phi=5e-324)
    @example(theta=1.0, phi=-0.0)
    @example(theta=-0.0, phi=1.0)
    @example(theta=math.pi, phi=1.0)
    @example(theta=1.0, phi=TWO_PI)
    @example(theta=Fraction(math.pi) - Fraction(1, 2**80), phi=1.0)
    @example(theta=1.0, phi=Fraction(TWO_PI) - Fraction(1, 2**80))
    @example(theta=Decimal(math.pi).next_minus(), phi=1.0)
    @example(theta=1.0, phi=math.nan)
    @example(theta=np.float64(1.0), phi=np.float64(2.0))
    @example(theta=1, phi=2)
    def test_raw_input_matches_reference(self, theta, phi):
        try:
            expected = _reference_angles(theta, phi)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                Axis(theta, phi)
            assert str(raised.value) == str(err)
            return
        axis = Axis(theta, phi)
        assert type(axis.theta) is float and type(axis.phi) is float
        assert _hex(axis.theta, axis.phi) == _hex(*expected)

    def test_canonical_axis_allocates_no_more_than_wrapping(self):
        # setting the fields through the instance `__dict__` would build a
        # dict per axis: about 1.7 times the memory of `Axis` on CPython 3.11;
        # reducing the angles would build two floats (48 bytes) per axis
        def allocated(make) -> int:
            tracemalloc.start()
            try:
                axes = [make(1.0, 2.0) for _ in range(1000)]  # alive while measured
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # the total drifts by a few dozen bytes from one measurement to the
        # next; under a byte per axis is that drift, not an object per axis
        assert allocated(Axis) <= allocated(_wrapped_axis) + 1000


def _collapse_frame_min_max(state, axis_i, n_i, eigen_tol):
    """`_collapse_frame` as it was written with `min` and `max`, and with p,
    m and the eigenstate weights each from its own formula: the oracle of
    its comparison tests and of the numbers it reads from `_born_frame`."""
    p = born_up_min_max(state, axis_i)
    if min(p, 1.0 - p) <= eigen_tol:
        raise NoCollapseError(
            f"state is an eigenstate of the measured axis (born probability {p!r})"
        )
    m = bloch_xyz_own(state)
    cosb = min(1.0, max(-1.0, _dot3(n_i, m)))
    if abs(cosb) >= 1.0:
        raise NoCollapseError(
            f"state is an eigenstate of the measured axis at float resolution "
            f"(n_i . m = {cosb!r}, born probability {p!r})"
        )
    return (p, m, cosb, *eigen_weights_own(axis_i))


def _frame_record(frame, state, axis, eigen_tol, n_i=None):
    """The float bits of a collapse frame, or its error text."""
    try:
        p, m, cosb, c2, s2 = frame(
            state, axis, _unit_xyz(axis) if n_i is None else n_i, eigen_tol)
    except NoCollapseError as exc:
        return str(exc)
    return _hex(p, *m, cosb, c2, s2)


FRAME_TOLS = (0.0, 1e-12, 0.3)


class TestCollapseFrameClamps:
    """`_collapse_frame` tests by comparison; on every input it returns the
    bits, or raises the error, of the `min`/`max` version."""

    @settings(max_examples=500, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 1.0, 0.5, 1e-20, 1e-13, 1.0 - 1e-16])),
        tau=st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi])),
        theta=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])),
        phi=st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi])),
        eigen_tol=st.sampled_from(FRAME_TOLS),
    )
    @example(rho=0.5, tau=1.3, theta=0.0, phi=0.0, eigen_tol=0.3)  # p = 1/2
    @example(rho=1.0, tau=0.0, theta=math.pi / 2, phi=0.0, eigen_tol=0.0)
    @example(rho=0.5, tau=1.0, theta=math.pi / 2, phi=1.0, eigen_tol=0.0)  # p past 1
    def test_matches_min_max_oracle(self, rho, tau, theta, phi, eigen_tol):
        state, axis = PureState(rho, tau), Axis(theta, phi)
        assert _frame_record(_collapse_frame, state, axis, eigen_tol) == _frame_record(
            _collapse_frame_min_max, state, axis, eigen_tol)

    def test_edges_match_min_max_oracle(self, rng):
        # certain states on and off the poles; eigenstates read on their own
        # axis and on its antipode, where n_i . m can round to +-1
        pairs = [(PureState(rho, 0.0), Axis(theta, 0.0))
                 for rho in (0.0, 1.0) for theta in (0.0, math.pi, 1.0)]
        for _ in range(200):
            axis = uniform_axis(rng)
            for s in (1, -1):
                state = state_from_eigenvector(axis, s)
                pairs += [(state, axis), (state, antipode(axis))]
        records = [_frame_record(_collapse_frame, state, axis, tol)
                   for state, axis in pairs for tol in FRAME_TOLS]
        assert records == [_frame_record(_collapse_frame_min_max, state, axis, tol)
                           for state, axis in pairs for tol in FRAME_TOLS]
        assert any("at float resolution" in r for r in records if isinstance(r, str))

    @pytest.mark.parametrize("scale, reads", [
        (math.nan, "-1.0"),  # a NaN dot reads as the lower clamp
        (3.0, "1.0"),
        (-3.0, "-1.0"),
    ])
    def test_dot_outside_the_open_interval_reads_clamped(self, scale, reads):
        # an n_i off the unit sphere, along m: n_i . m = 3, -3 or NaN
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        n_i = tuple(scale * x for x in _bloch_xyz(state))
        got = _frame_record(_collapse_frame, state, axis, 0.0, n_i)
        assert got == _frame_record(_collapse_frame_min_max, state, axis, 0.0, n_i)
        assert f"(n_i . m = {reads}, born probability " in got


class TestFrameReadsOneKernel:
    """One `_born_frame` call gives a step its Born probability, Bloch vector
    and both eigenstate weights.  Bit for bit, they are what `born_up`,
    `_bloch_xyz` and `state_from_eigenvector(axis, +1)` and `(axis, -1)`
    give, and what each gave from its own formula (`tests/helpers.py`)."""

    @staticmethod
    def _check(state, axis):
        p, m, c2, s2 = _born_frame(state, axis)
        assert _hex(p) == _hex(born_up(state, axis)) == _hex(born_up_min_max(state, axis))
        assert _hex(*m) == _hex(*_bloch_xyz(state)) == _hex(*bloch_xyz_own(state))
        up, down = state_from_eigenvector(axis, 1), state_from_eigenvector(axis, -1)
        assert _hex(c2, s2) == _hex(up.rho, down.rho) == _hex(*eigen_weights_own(axis))
        for eigen_tol in FRAME_TOLS:
            try:
                frame = _collapse_frame(state, axis, _unit_xyz(axis), eigen_tol)
            except NoCollapseError:
                continue
            assert _hex(frame[0], *frame[1], *frame[3:]) == _hex(p, *m, c2, s2)

    @settings(max_examples=500, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 1.0, 0.5, 1e-20, 1e-13, 1.0 - 1e-16])),
        tau=st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi])),
        theta=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])),
        phi=st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi])),
    )
    @example(rho=0.5, tau=1.3, theta=0.0, phi=0.0)  # p = 1/2 at the pole
    @example(rho=1e-13, tau=0.3, theta=0.0, phi=0.0)  # a near-eigenstate
    def test_matches_entry_points_and_own_formulas(self, rho, tau, theta, phi):
        self._check(PureState(rho, tau), Axis(theta, phi))

    def test_edges(self, rng):
        # rho 0, 1 and 1/2, the poles, and eigenstates read on their own axis
        # and on its antipode
        pairs = [(PureState(rho, tau), Axis(theta, phi))
                 for rho in (0.0, 1.0, 0.5) for tau in (0.0, 2.5)
                 for theta, phi in ((0.0, 0.0), (math.pi, 0.0), (1.0, 2.5), (0.5 * math.pi, 0.0))]
        for _ in range(50):
            axis = uniform_axis(rng)
            for s in (1, -1):
                state = state_from_eigenvector(axis, s)
                pairs += [(state, axis), (state, antipode(axis))]
        for state, axis in pairs:
            self._check(state, axis)


class TestInvariances:
    def test_rotational_covariance(self, rng):
        for _ in range(25):
            state, axis = non_eigen_pair(rng, margin=0.05)
            if abs(float(np.dot(unit_vector(axis), bloch_vector(state)))) <= 1e-3:
                continue  # stay away from the merged-circle degeneracy
            rot = _rotation(rng)
            state_r = state_from_bloch(rot @ bloch_vector(state))
            axis_r = Axis(*_rotated_angles(rot, axis))
            for mode in ("strict", "reflective"):
                sol = solve(state, axis, mode)
                sol_r = solve(state_r, axis_r, mode)
                assert sol_r.objective == pytest.approx(sol.objective, abs=1e-9)
                rotated = sorted(
                    (_rotated_angles(rot, a) for a in sol.minimizers)
                )
                got = sorted((a.theta, a.phi) for a in sol_r.minimizers)
                for (t1, p1), (t2, p2) in zip(rotated, got):
                    a1, a2 = Axis(t1, p1), Axis(t2, p2)
                    assert angle_between(a1, a2) <= 1e-9

    def test_base_change_keeps_minimizers(self, rng):
        for _ in range(50):
            state, axis = non_eigen_pair(rng)
            for mode in ("strict", "reflective"):
                nat = solve(state, axis, mode, base=math.e)
                two = solve(state, axis, mode, base=2.0)
                assert [(a.theta, a.phi) for a in nat.minimizers] == [
                    (a.theta, a.phi) for a in two.minimizers
                ]
                assert two.objective == pytest.approx(
                    nat.objective / math.log(2.0), abs=1e-12
                )


def _rotated_angles(rot: np.ndarray, axis: Axis) -> tuple[float, float]:
    a = axis_from_vector(rot @ unit_vector(axis))
    return a.theta, a.phi
