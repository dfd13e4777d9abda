"""Trajectory simulation: frozen paths, absorption, reproducible sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincollapse import (
    RNG_NAME,
    Axis,
    PureState,
    SimConfig,
    binary_entropy,
    bloch_vector,
    born_up,
    make_rng,
    s_i,
    s_up,
    simulate,
    solve,
    state_from_eigenvector,
    step,
    unit_vector,
)

from helpers import non_eigen_pair, uniform_axis, uniform_state

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

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_eigenstate_at_float_resolution(self, mode):
        # p = 1e-20 clears a zero tolerance, but n_i . m rounds to -1: the
        # step must not collapse, and must not pick s = +1 at p = 1e-20
        state, axis = PureState(1e-20, 0.0), Axis(0.0, 0.0)
        cfg = SimConfig(steps=1, mode=mode, outcome="risk:constant", eigen_tol=0.0)
        t = step(state, axis, cfg)
        assert t.no_collapse
        assert t.s == -1
        assert t.axis_next == axis and t.state_after == state


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


OUTCOMES = ("born", "risk:born-surprise", "risk:alignment", "risk:constant")


def _hex(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _check_step_against_routes(state, axis, mode, outcome, base, eigen_tol):
    """`step` against `solve`, `s_up`, `born_up` and `binary_entropy`, bit for bit."""
    config = SimConfig(steps=1, mode=mode, outcome=outcome, seed=0,
                       entropy_base=base, eigen_tol=eigen_tol)
    t = step(state, axis, config, make_rng(3))
    sol = solve(state, axis, mode, base=base, eigen_tol=eigen_tol)
    first = sol.minimizers[0]
    assert t.no_collapse == sol.no_collapse
    assert _hex(t.axis_next.theta, t.axis_next.phi) == _hex(first.theta, first.phi)
    assert _hex(t.p_up) == _hex(born_up(state, axis))
    assert _hex(t.s_i) == _hex(binary_entropy(t.p_up, base))
    if t.no_collapse:
        assert t.axis_next == axis and t.state_after == state
        assert _hex(t.s_up_next) == _hex(0.0)
    else:
        assert _hex(t.s_up_next) == _hex(s_up(axis, t.axis_next, base))
    return t.no_collapse


def _pinning_pairs() -> list[tuple[PureState, Axis]]:
    rng = np.random.Generator(np.random.PCG64(20261018))
    pairs = [non_eigen_pair(rng) for _ in range(12)]
    pairs += [(uniform_state(rng), Axis(theta, 0.0)) for theta in (0.0, math.pi)]
    pairs += [(PureState(rho, 0.0), uniform_axis(rng)) for rho in (0.0, 1.0)]
    pairs += [(PureState(rho, 0.0), Axis(theta, 0.0))
              for rho in (0.0, 1.0) for theta in (0.0, math.pi)]
    # p = 1/2: the Bloch vector is perpendicular to the axis (merged circle)
    pairs += [(PureState(0.5, 1.3), Axis(0.0, 0.0)),
              (PureState(0.5, 0.0), Axis(math.pi / 2, math.pi / 2))]
    # near-eigenstates: at eigen_tol=0, p clears the tolerance; for the
    # smallest ones n_i . m rounds to -1 (no collapse at float resolution)
    pairs += [(PureState(rho, 0.3), Axis(0.0, 0.0)) for rho in (1e-20, 1e-17, 1e-13)]
    pairs += [(PureState(1.0 - 1e-16, 1.1), Axis(0.0, 0.0))]
    for s in (1, -1):
        axis = uniform_axis(rng)
        pairs.append((state_from_eigenvector(axis, s), axis))
    return pairs


class TestStepPinnedToSolve:
    """`step` reads the collapse frame once and picks its next axis from the
    solver's candidate pair; every reported float must equal the one the
    independent public routes compute, compared by `float.hex`."""

    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_seeded_pairs(self, mode, outcome, base):
        for eigen_tol in (1e-12, 0.0):
            branches = {
                _check_step_against_routes(state, axis, mode, outcome, base, eigen_tol)
                for state, axis in _pinning_pairs()
            }
            assert branches == {False, True}  # collapse and no-collapse steps

    @settings(max_examples=150, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.5, 1e-20, 1e-13, 1.0 - 1e-16])),
        tau=st.floats(0.0, 2.0 * math.pi),
        theta=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2, math.pi])),
        phi=st.floats(0.0, 2.0 * math.pi),
        mode=st.sampled_from(["strict", "reflective"]),
        outcome=st.sampled_from(OUTCOMES),
        base=st.sampled_from([math.e, 2.0]),
        eigen_tol=st.sampled_from([1e-12, 0.0]),
    )
    def test_any_pair(self, rho, tau, theta, phi, mode, outcome, base, eigen_tol):
        state, axis = PureState(rho, tau), Axis(theta, phi)
        _check_step_against_routes(state, axis, mode, outcome, base, eigen_tol)


def _cos_beta(state: PureState, axis: Axis) -> float:
    return float(np.dot(bloch_vector(state), unit_vector(axis)))


class TestTentMap:
    """On a reflective collapse step the state becomes +-n_i and the next axis
    is the mirror +-(2 cos(beta) m - n_i), so |cos beta| follows the tent-map
    identity |cos beta_{k+1}| = |cos 2 beta_k| from step to step."""

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_cos_beta_doubles(self, outcome):
        rng = np.random.Generator(np.random.PCG64(7))
        checked = 0
        for seed in range(20):
            state, axis = non_eigen_pair(rng)
            config = SimConfig(steps=60, mode="reflective", outcome=outcome, seed=seed)
            traj = simulate(state, axis, config)
            for prev, nxt in zip(traj, traj[1:]):
                if prev.no_collapse:
                    continue
                cosb = _cos_beta(prev.state_before, prev.axis_measured)
                cos_next = _cos_beta(nxt.state_before, nxt.axis_measured)
                assert abs(abs(cos_next) - abs(2.0 * cosb * cosb - 1.0)) <= 1e-14
                checked += 1
        assert checked >= 20 * 30
