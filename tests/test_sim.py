"""Trajectory simulation: frozen paths, absorption, reproducible sampling."""

import math

import pytest

from spincollapse import (
    RNG_NAME,
    Axis,
    PureState,
    SimConfig,
    make_rng,
    s_i,
    simulate,
    state_from_eigenvector,
    step,
)

from helpers import non_eigen_pair

H_QUARTER = 0.5623351446188083  # binary_entropy(1/4) == binary_entropy(3/4)

UP_Z = PureState(1.0, 0.0)
TILT = Axis(math.pi / 3, 0.0)

SCHEMA_KEYS = {
    "index",
    "state_before",
    "axis_measured",
    "p_up",
    "s",
    "state_after",
    "axis_next",
    "s_i",
    "s_up_next",
    "no_collapse",
}


class TestConfigValidation:
    def test_accepts_defaults(self):
        cfg = SimConfig(steps=3)
        assert cfg.mode == "strict" and cfg.outcome == "risk:born-surprise"

    @pytest.mark.parametrize("steps", [0, -1, 2.0, True])
    def test_bad_steps(self, steps):
        with pytest.raises(ValueError):
            SimConfig(steps=steps)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, mode="loose")

    @pytest.mark.parametrize(
        "outcome", ["dice", "risk:", "risk:unknown", "bornlike", None, 3]
    )
    def test_bad_outcome(self, outcome):
        with pytest.raises(ValueError):
            SimConfig(steps=1, outcome=outcome)

    def test_born_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(steps=1, outcome="born")
        SimConfig(steps=1, outcome="born", seed=0)

    def test_bad_entropy_base(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, entropy_base=1.0)

    def test_bad_eigen_tol(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, eigen_tol=-1e-9)


class TestReflectiveTrajectory:
    def test_frozen_three_step_path(self):
        cfg = SimConfig(steps=3, mode="reflective", outcome="risk:born-surprise")
        traj = simulate(UP_Z, TILT, cfg)
        assert [t.s for t in traj] == [+1, -1, -1]
        assert [t.no_collapse for t in traj] == [False, False, False]

        expect_axes = [(math.pi / 3, 0.0), (math.pi / 3, math.pi), (0.0, 0.0)]
        for t, (th, ph) in zip(traj, expect_axes):
            assert t.axis_measured.theta == pytest.approx(th, abs=1e-12)
            assert t.axis_measured.phi == pytest.approx(ph, abs=1e-12)

        expect_p = [0.75, 0.25, 0.25]
        expect_rho_after = [0.75, 0.25, 0.0]
        for t, p, rho in zip(traj, expect_p, expect_rho_after):
            assert t.p_up == pytest.approx(p, abs=1e-12)
            assert t.state_after.rho == pytest.approx(rho, abs=1e-12)
            assert t.state_after.tau == pytest.approx(0.0, abs=1e-12)
            assert t.s_i == pytest.approx(H_QUARTER, abs=1e-12)

        # collapse chains: each step measures the axis proposed by the last
        for prev, nxt in zip(traj, traj[1:]):
            assert prev.axis_next == nxt.axis_measured
            assert prev.state_after == nxt.state_before

        # the transfer entropy to the mirror axis matches the solver objective
        assert traj[0].s_up_next == pytest.approx(H_QUARTER, abs=1e-12)

    def test_alternating_azimuth(self):
        cfg = SimConfig(steps=3, mode="reflective", outcome="risk:born-surprise")
        azimuths = [t.axis_measured.phi for t in simulate(UP_Z, TILT, cfg)]
        assert azimuths[0] == pytest.approx(0.0, abs=1e-9)
        assert azimuths[1] == pytest.approx(math.pi, abs=1e-9)
        assert azimuths[2] == pytest.approx(0.0, abs=1e-9)


class TestStrictTrajectory:
    def test_absorbs_after_first_collapse(self):
        cfg = SimConfig(steps=4, mode="strict", outcome="risk:born-surprise")
        traj = simulate(UP_Z, TILT, cfg)
        assert [t.no_collapse for t in traj] == [False, True, True, True]
        frozen = traj[1]
        for t in traj[2:]:
            assert t.state_before == frozen.state_before
            assert t.axis_measured == frozen.axis_measured
            assert t.s == frozen.s
        # once absorbed the outcome is certain and entropies vanish
        for t in traj[1:]:
            assert min(t.p_up, 1.0 - t.p_up) <= 1e-12
            assert t.s_i <= 1e-12
            assert t.s_up_next == 0.0
            assert t.axis_next == t.axis_measured
            assert t.state_after == t.state_before


class TestNoCollapse:
    def test_eigenstate_single_step(self):
        axis = Axis(1.1, 0.4)
        for s_val in (+1, -1):
            state = state_from_eigenvector(axis, s_val)
            cfg = SimConfig(steps=1)
            (t,) = simulate(state, axis, cfg)
            assert t.no_collapse
            assert t.s == s_val
            assert t.axis_next == axis and t.axis_measured == axis
            assert t.state_after == state
            assert t.s_i <= 1e-12 and t.s_up_next == 0.0


class TestOutcomeRules:
    def test_constant_risk_always_up(self):
        cfg = SimConfig(steps=3, mode="reflective", outcome="risk:constant")
        traj = simulate(UP_Z, TILT, cfg)
        assert all(t.s == +1 for t in traj if not t.no_collapse)

    def test_born_same_seed_bit_identical(self):
        cfg = SimConfig(steps=6, mode="reflective", outcome="born", seed=123)
        a = [t.to_dict() for t in simulate(UP_Z, TILT, cfg)]
        b = [t.to_dict() for t in simulate(UP_Z, TILT, cfg)]
        assert a == b

    def test_born_seed_changes_draws(self):
        # seeds verified to draw on opposite sides of p = 3/4 on step one
        up = simulate(UP_Z, TILT, SimConfig(steps=1, outcome="born", seed=7))
        down = simulate(UP_Z, TILT, SimConfig(steps=1, outcome="born", seed=42))
        assert up[0].s == +1
        assert down[0].s == -1

    def test_born_frequency_loose(self):
        rng = make_rng(7)
        cfg = SimConfig(steps=1, outcome="born", seed=0)  # rng passed explicitly
        hits = 0
        n = 500
        for _ in range(n):
            hits += step(UP_Z, TILT, cfg, rng).s == +1
        assert 0.68 <= hits / n <= 0.82

    def test_step_born_needs_rng(self):
        cfg = SimConfig(steps=1, outcome="born", seed=1)
        with pytest.raises(ValueError, match="rng"):
            step(UP_Z, TILT, cfg, rng=None)

    def test_rng_is_documented(self):
        assert RNG_NAME == "numpy.random.PCG64"
        assert make_rng(0).bit_generator.__class__.__name__ == "PCG64"


class TestConservation:
    def test_outcome_entropy_carries_to_the_proposed_axis(self, rng):
        # the axis handed to the next step holds the same outcome entropy,
        # on the pre-collapse state, as the axis just measured; no-collapse
        # steps satisfy this trivially because the axis is unchanged
        for mode in ("strict", "reflective"):
            cfg = SimConfig(steps=4, mode=mode, outcome="risk:born-surprise")
            for _ in range(25):
                state, axis = non_eigen_pair(rng)
                for t in simulate(state, axis, cfg):
                    assert abs(t.s_i - s_i(t.state_before, t.axis_next)) <= 1e-9


class TestSerialization:
    def test_schema_keys_exact(self):
        cfg = SimConfig(steps=2, mode="reflective")
        for t in simulate(UP_Z, TILT, cfg):
            d = t.to_dict()
            assert set(d.keys()) == SCHEMA_KEYS
            assert set(d["state_before"].keys()) == {"rho", "tau"}
            assert set(d["axis_measured"].keys()) == {"theta", "phi"}

    def test_indices_sequential(self):
        cfg = SimConfig(steps=5, mode="reflective")
        assert [t.index for t in simulate(UP_Z, TILT, cfg)] == list(range(5))
