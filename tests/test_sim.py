"""Trajectory simulation: frozen paths, absorption, reproducible sampling."""

import dataclasses
import math
import pickle
import sys
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincollapse import (
    RNG_NAME,
    Axis,
    PureState,
    SimConfig,
    TrajectoryStep,
    axis_from_vector,
    binary_entropy,
    bloch_vector,
    born_up,
    make_rng,
    s_i,
    s_up,
    simulate,
    solve,
    state_from_bloch,
    state_from_eigenvector,
    step,
    unit_vector,
)

import spincollapse.entropy
import spincollapse.risk
import spincollapse.simulate
import spincollapse.solver
import spincollapse.spin

# the package binds `spincollapse.simulate` to the function of that name
SIMULATE_MODULE = sys.modules["spincollapse.simulate"]

from helpers import min_risk_outcome, non_eigen_pair, uniform_axis, uniform_state

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

    @pytest.mark.parametrize("outcome, message", [
        (1, "outcome must be a string, got 1"),
        ("Born", "outcome must be 'born' or 'risk:<name>', got 'Born'"),
        ("risk:", "unknown risk function ''; builtins are: constant, born-surprise, alignment"),
        ("risk:leap-of-faith", "unknown risk function 'leap-of-faith'; builtins are: "
                               "constant, born-surprise, alignment"),
    ])
    def test_bad_outcome_message(self, outcome, message):
        with pytest.raises(ValueError) as exc:
            SimConfig(steps=1, outcome=outcome)
        assert str(exc.value) == message

    def test_born_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(steps=1, outcome="born")
        SimConfig(steps=1, outcome="born", seed=0)

    @pytest.mark.parametrize("outcome", ["born", "risk:constant"])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_bad_seed(self, seed, outcome):
        # checked whatever the outcome rule; bool is an int subclass, but
        # seed=True is a mistake, not seed 1
        with pytest.raises(ValueError, match=f"seed must be .*, got {seed!r}"):
            SimConfig(steps=1, outcome=outcome, seed=seed)

    def test_bad_entropy_base(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, entropy_base=1.0)

    def test_bad_eigen_tol(self):
        with pytest.raises(ValueError):
            SimConfig(steps=1, eigen_tol=-1e-9)

    @pytest.mark.parametrize("eigen_tol", [0.5, 0.9, math.inf])
    def test_eigen_tol_of_half_or_more(self, eigen_tol):
        # it would call every state an eigenstate: p_up 0.92 read as certain
        with pytest.raises(ValueError, match=f"eigen_tol must be below 1/2, got {eigen_tol!r}"):
            SimConfig(steps=3, mode="reflective", outcome="born", seed=1, eigen_tol=eigen_tol)


class TestReflectiveTrajectory:
    def test_frozen_three_step_path(self):
        cfg = SimConfig(steps=3, mode="reflective", outcome="risk:born-surprise")
        traj = simulate(UP_Z, TILT, cfg)
        assert [t.s for t in traj] == [+1, -1, +1]
        assert [t.no_collapse for t in traj] == [False, False, False]

        # the third axis is the mirror r = 2 cos(beta) m - n_i = -z itself
        expect_axes = [(math.pi / 3, 0.0), (math.pi / 3, math.pi), (math.pi, 0.0)]
        for t, (th, ph) in zip(traj, expect_axes):
            assert t.axis_measured.theta == pytest.approx(th, abs=1e-12)
            assert t.axis_measured.phi == pytest.approx(ph, abs=1e-12)

        expect_p = [0.75, 0.25, 0.75]
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

    @pytest.mark.parametrize("index", [True, False, 1.0, "a", None, -1], ids=repr)
    def test_step_rejects_a_bad_index(self, index):
        # as for `SimConfig.steps`: a bool, a non-integer or a negative value is a mistake
        cfg = SimConfig(steps=1, outcome="risk:constant")
        with pytest.raises(ValueError) as exc:
            step(UP_Z, TILT, cfg, index=index)
        assert str(exc.value) == f"index must be a non-negative integer, got {index!r}"

    @pytest.mark.parametrize("index", [0, 7, 2**40, np.int64(3)], ids=repr)
    def test_step_keeps_a_good_index(self, index):
        cfg = SimConfig(steps=1, outcome="risk:constant")
        record = step(UP_Z, TILT, cfg, index=index)
        assert record.to_dict()["index"] == index
        assert type(record.index) is int

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
RULE_NAMES = ("constant", "born-surprise", "alignment")


def _hex(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _frame_free_minimizer(sol, state: PureState, axis: Axis, mode: str) -> Axis:
    """The minimizer of `sol` that points along n_i in strict mode and along
    the mirror r = 2 (n_i . m) m - n_i otherwise; the other one is its
    antipode, so the two dots are +-1 and the pick does not depend on how
    the target is rounded."""
    n_i, m = unit_vector(axis), bloch_vector(state)
    target = n_i if mode == "strict" else 2.0 * float(np.dot(n_i, m)) * m - n_i
    return max(sol.minimizers, key=lambda a: float(np.dot(unit_vector(a), target)))


def _check_step_against_routes(state, axis, mode, outcome, base, eigen_tol):
    """`step` against `solve`, `s_up`, `born_up`, `binary_entropy` and
    `state_from_eigenvector`, bit for bit, and a risk step's outcome
    against the minimize-the-risk reference `min_risk_outcome`."""
    config = SimConfig(steps=1, mode=mode, outcome=outcome, seed=0,
                       entropy_base=base, eigen_tol=eigen_tol)
    t = step(state, axis, config, make_rng(3))
    sol = solve(state, axis, mode, base=base, eigen_tol=eigen_tol)
    picked = _frame_free_minimizer(sol, state, axis, mode)
    assert t.no_collapse == sol.no_collapse
    assert _hex(t.axis_next.theta, t.axis_next.phi) == _hex(picked.theta, picked.phi)
    assert _hex(t.p_up) == _hex(born_up(state, axis))
    assert _hex(t.s_i) == _hex(binary_entropy(t.p_up, base))
    if t.no_collapse:
        assert t.axis_next == axis and t.state_after == state
        assert _hex(t.s_up_next) == _hex(0.0)
    else:
        assert _hex(t.s_up_next) == _hex(s_up(axis, t.axis_next, base))
        assert _hex(t.state_after.rho, t.state_after.tau) == _hex(
            *astuple(state_from_eigenvector(axis, t.s)))
        if config._risk is not None:
            assert t.s == min_risk_outcome(config._risk, state, axis, t.axis_next)[0]
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
    """`step` reads the collapse frame once and builds only its frame-free
    next axis: n_i in strict mode, the mirror r = 2 (n_i . m) m - n_i in
    reflective mode.  That axis must be, bit for bit, the one of `solve`'s
    minimizers along n_i or r, and every other reported float must equal the
    one the independent public routes compute, compared by `float.hex`."""

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


class TestRiskOutcomePinned:
    """Every collapsing record of a risk run carries the outcome
    `min_risk_outcome` picks from the record's own state, axis and next
    axis; a no-collapse record carries the certain outcome, whatever the
    rule."""

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    @pytest.mark.parametrize("rule", RULE_NAMES)
    def test_every_record(self, rule, mode):
        rng = np.random.Generator(np.random.PCG64(20261021))
        pairs = _pinning_pairs() + [(uniform_state(rng), uniform_axis(rng)) for _ in range(40)]
        picked = []
        for eigen_tol in (1e-12, 0.0):
            for state, axis in pairs:
                config = SimConfig(steps=25, mode=mode, outcome=f"risk:{rule}",
                                   eigen_tol=eigen_tol)
                for t in simulate(state, axis, config):
                    if t.no_collapse:
                        assert t.s == (1 if t.p_up >= 0.5 else -1)
                        continue
                    assert t.s == min_risk_outcome(rule, t.state_before, t.axis_measured,
                                                   t.axis_next)[0]
                    picked.append(t.s)
        assert len(picked) >= (1000 if mode == "reflective" else 100)
        assert set(picked) == ({1} if rule == "constant" else {1, -1})


def _closed_form_pick(rule, state: PureState, axis: Axis, axis_f: Axis) -> int:
    """The outcome of `rule`'s closed form for measuring `state` along `axis`
    with candidate `axis_f`, fed the public routes' p, m and n_f."""
    spin = spincollapse.spin
    pick = spincollapse.risk._OUTCOMES[rule]
    return pick(born_up(state, axis), spin._bloch_xyz(state), *spin._unit_xyz(axis_f))


class TestClosedFormOutcomes:
    """Each builtin rule's outcome in closed form, which a risk step calls,
    picks what `min_risk_outcome` picks under that rule, at the edges of the
    tie: p = 1/2 and its float neighbours, the merged great circle, and
    n_f . m = +-0.0."""

    def test_half_and_its_neighbours(self):
        rng = np.random.Generator(np.random.PCG64(20261022))
        z = Axis(0.0, 0.0)
        rhos = (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0))
        for rho in rhos:
            for tau in (0.0, 1.3, math.pi, 5.0):
                state = PureState(rho, tau)
                assert born_up(state, z).hex() == rho.hex()  # +z reads rho exactly
                candidates = [z, Axis(math.pi, 0.0), Axis(math.pi / 2, tau)]
                candidates += [uniform_axis(rng) for _ in range(20)]
                for rule in RULE_NAMES:
                    for axis_f in candidates:
                        s = min_risk_outcome(rule, state, z, axis_f)[0]
                        assert _closed_form_pick(rule, state, z, axis_f) == s
        # the tie at 1/2 goes to +1; just below it, 1 - p rounds to 1/2
        born = "born-surprise"
        assert [_closed_form_pick(born, PureState(rho, 0.0), z, z) for rho in rhos] == [-1, 1, 1]

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_merged_circle_pairs(self, mode):
        spin = spincollapse.spin
        merged = [(state, axis) for state, axis in _pinning_pairs()
                  if spincollapse.solver._merged(
                      spin._dot3(spin._unit_xyz(axis), spin._bloch_xyz(state)))]
        assert len(merged) >= 2
        for state, axis in merged:
            for rule in RULE_NAMES:
                config = SimConfig(steps=1, mode=mode, outcome=f"risk:{rule}")
                t = step(state, axis, config)
                assert not t.no_collapse
                s = min_risk_outcome(rule, state, axis, t.axis_next)[0]
                assert _closed_form_pick(rule, state, axis, t.axis_next) == s == t.s

    @pytest.mark.parametrize("m, d, s", [
        ((0.0, 0.0, 0.0), "0x0.0p+0", 1),
        ((-0.0, 0.0, -0.0), "0x0.0p+0", 1),
        ((-0.0, -0.0, -0.0), "-0x0.0p+0", 1),
        ((5e-324, 0.0, 0.0), "0x0.0000000000001p-1022", 1),
        ((-5e-324, 0.0, 0.0), "-0x0.0000000000001p-1022", -1),
    ])
    def test_alignment_at_signed_zero(self, monkeypatch, m, d, s):
        # no float state and axis give n_f . m = -0.0, so the reference rule
        # is fed this m and n_f in place of `_bloch_xyz` and `_unit_xyz`
        n = (1.0, 1.0, 1.0)
        spin = spincollapse.spin
        assert spin._dot3(n, m).hex() == d
        monkeypatch.setattr(spin, "_bloch_xyz", lambda state: m)
        monkeypatch.setattr(spin, "_unit_xyz", lambda axis: n)
        assert min_risk_outcome("alignment", UP_Z, TILT, TILT)[0] == s
        assert spincollapse.risk._OUTCOMES["alignment"](0.5, m, *n) == s


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

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0),
        tau=st.floats(0.0, 2.0 * math.pi),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entropies_blind_to_outcomes(self, rho, tau, theta, phi, seed):
        # |cos beta| follows the same map whatever the outcomes, and s_i =
        # H((1 + cos beta)/2) and s_up_next = H(cos^2 beta) (the next axis
        # makes 2 cos^2 beta - 1 with n_i) read only |cos beta|: Born runs
        # of any seed and every rule give the same entropies step by step.
        # The map stretches a rounding error by up to 4 a step, so the runs
        # are compared where no step loses digits of cos beta: up to the
        # first step within 1e-3 of an eigenstate in p_up, and on planes 0.05
        # rad or more from the poles (every state and axis of a reflective
        # run lies in the plane of the first ones), since near +z rho =
        # cos^2(theta/2) holds a direction at distance d to about 1e-16 / d.
        state, axis = PureState(rho, tau), Axis(theta, phi)
        normal = np.cross(bloch_vector(state), unit_vector(axis))
        assume(abs(normal[2]) >= 0.05 * np.linalg.norm(normal) > 0.0)
        born = simulate(state, axis, SimConfig(16, "reflective", "born", seed))
        for outcome in OUTCOMES[1:]:
            ruled = simulate(state, axis, SimConfig(16, "reflective", outcome))
            for a, b in zip(born, ruled):
                if min(a.p_up, 1.0 - a.p_up, b.p_up, 1.0 - b.p_up) < 1e-3:
                    break  # both runs collapse on every step before this one
                assert abs(a.s_i - b.s_i) <= 1e-9
                assert abs(a.s_up_next - b.s_up_next) <= 1e-9


def _chained_steps(state, axis, config) -> list[dict]:
    """`simulate` spelled out as a chain of public `step` calls."""
    rng = make_rng(config.seed) if config.outcome == "born" else None
    docs = []
    for k in range(config.steps):
        t = step(state, axis, config, rng, index=k)
        docs.append(t.to_dict())
        state, axis = t.state_after, t.axis_next
    return docs


def _check_simulate_is_chained(state, axis, mode, outcome, base, eigen_tol, steps, seed=0):
    config = SimConfig(steps=steps, mode=mode, outcome=outcome, seed=seed,
                       entropy_base=base, eigen_tol=eigen_tol)
    docs = [t.to_dict() for t in simulate(state, axis, config)]
    assert repr(docs) == repr(_chained_steps(state, axis, config))  # exact, -0.0 too
    return [d["no_collapse"] for d in docs]


class TestSimulateIsChainedStep:
    """`simulate` stops stepping once a step is no-collapse and repeats that
    step under the remaining indices; its documents must equal a chain of
    public `step` calls exactly, absorbed tail included."""

    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_seeded_pairs(self, mode, outcome, base):
        patterns = set()
        for eigen_tol in (1e-12, 0.0):
            for state, axis in _pinning_pairs():
                flags = _check_simulate_is_chained(
                    state, axis, mode, outcome, base, eigen_tol, steps=7, seed=11)
                patterns.add((flags[0], flags[1]))
        assert (True, True) in patterns  # an eigenstate start: every step absorbed
        if mode == "strict":
            assert (False, True) in patterns  # collapses once, absorbed from step 2

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
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_pair(self, rho, tau, theta, phi, mode, outcome, base, eigen_tol,
                      steps, seed):
        _check_simulate_is_chained(PureState(rho, tau), Axis(theta, phi), mode, outcome,
                                   base, eigen_tol, steps, seed)


class TestBornDraws:
    """A Born step takes one uniform of the caller's generator when it
    collapses and none otherwise.  `simulate` owns its generator and reads
    the same stream from one array of draws, so a long Born run, with
    hundreds of collapsing steps, equals chained `step` calls record for
    record."""

    @staticmethod
    def _advanced(seed: int, draws: int) -> dict:
        rng = make_rng(seed)
        for _ in range(draws):
            rng.random()
        return rng.bit_generator.state

    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("state, axis, collapses", [
        (PureState(0.3, 1.0), Axis(1.2, 0.4), True),
        (PureState(0.5, 1.3), Axis(0.0, 0.0), True),  # p = 1/2
        (UP_Z, Axis(0.0, 0.0), False),  # eigenstate
        (PureState(1e-20, 0.3), Axis(0.0, 0.0), False),  # n_i . m rounds to -1
    ])
    def test_step_takes_one_draw_per_collapse(self, state, axis, collapses, outcome, mode):
        config = SimConfig(steps=1, mode=mode, outcome=outcome, seed=9, eigen_tol=0.0)
        rng = make_rng(9)
        t = step(state, axis, config, rng)
        assert t.no_collapse is not collapses
        draws = 1 if collapses and outcome == "born" else 0
        assert rng.bit_generator.state == self._advanced(9, draws)

    @pytest.mark.parametrize("steps", [255, 256, 257, 773])
    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("mode", ["strict", "reflective"])
    def test_long_born_run_is_chained_step(self, steps, base, mode):
        """Every draw of a long Born run lands on the step a chain of `step`
        calls gives it; a strict run absorbs after its first step."""
        flags = _check_simulate_is_chained(PureState(0.3, 1.0), Axis(1.2, 0.4), mode,
                                           "born", base, 1e-12, steps, seed=steps)
        assert flags[-1] is (mode == "strict")  # reflective runs never absorb here


class TestLongRunLaw:
    """Folded into [0, pi/2], beta follows the tent map in x = beta / (pi/2),
    whose invariant law is uniform: each octile of folded beta holds 1/8 of
    the steps and the mean s_i is 2 ln 2 - 1 nats.  The outcome rule does not
    move beta, so one seeded reflective Born run tests the law.

    Both bounds come from the tent map's mixing, fixed before the run.  The
    octile of x_k is the 3-bit word (b_k, b_k+1, b_k+2) of the map's itinerary,
    whose bits are independent and fair, so the counts are overlapping 3-bit
    word counts.  Their chi-square has mean 7 but a heavier tail than
    chi-square on 7 degrees of freedom: over 2e4 Monte Carlo sets of 20,000
    words its 99.9th percentile is 37.3, so the bound is 40.  The
    autocovariance of s_i at lag k falls as 8^-k (5.6e-3 at lag 1, against a
    variance of 5.6e-2), so the mean's standard error over 20,000 steps is
    sqrt(0.0690 / 20000) = 1.86e-3; the bound is four of them, 7.5e-3."""

    STEPS, SEED = 20000, 20261018
    LAW = 2.0 * math.log(2.0) - 1.0

    def test_octiles_and_mean_entropy(self):
        config = SimConfig(steps=self.STEPS, mode="reflective", outcome="born",
                           seed=self.SEED)
        traj = simulate(PureState(0.3, 1.0), Axis(1.2, 0.4), config)
        assert not any(t.no_collapse for t in traj)
        counts = [0] * 8
        for t in traj:
            x = math.acos(min(1.0, abs(2.0 * t.p_up - 1.0))) / (0.5 * math.pi)
            counts[min(int(8 * x), 7)] += 1
        expected = self.STEPS / 8
        chi2 = sum((c - expected) ** 2 for c in counts) / expected
        assert chi2 <= 40.0, counts
        mean_s_i = sum(t.s_i for t in traj) / self.STEPS
        assert abs(mean_s_i - self.LAW) <= 7.5e-3


class TestReflectivePlane:
    """After a collapse m' = s n and n' = 2 (n . m) m - n, so every axis of a
    reflective run lies in the plane of m_0 and n_0: |n_k . nu|, the lift
    off that plane (nu its unit normal), is rounding alone.  It is
    heavy-tailed.  Near a tilt beta of 0 or pi the plane is fixed only by
    the small difference of m and n, so rounding tilts it by about
    2**-53 / sin(beta), and the tent map reaches a tilt below x with a
    chance near x per step.  A run is chaotic, so any change of rounding
    draws new paths: the bounds must hold on starts not used to set them.
    These starts lift at most 6.2e-13 in 100 steps and 4.6e-11 in 2,000.
    On 20,400 runs of 100 steps from other seeds, 22 passed 5e-12 and none
    1e-10 (the largest 7.8e-11); on 2,400 runs of 2,000 steps, 3 passed
    1e-10 and none 1e-9 (the largest 2.3e-10)."""

    STARTS, STEPS = 20, 2000

    @staticmethod
    def _starts(seed: int, count: int):
        rng = np.random.Generator(np.random.PCG64(seed))
        while count:
            state, axis = uniform_state(rng), uniform_axis(rng)
            normal = np.cross(bloch_vector(state), unit_vector(axis))
            if np.linalg.norm(normal) >= 0.2:
                count -= 1
                yield state, axis, normal / np.linalg.norm(normal)

    @pytest.mark.parametrize("outcome", ["born", "risk:alignment", "risk:born-surprise"])
    def test_axes_stay_in_the_starting_plane(self, outcome):
        for k, (state, axis, normal) in enumerate(self._starts(11, self.STARTS)):
            config = SimConfig(steps=self.STEPS, mode="reflective", outcome=outcome,
                               seed=k if outcome == "born" else None)
            lift = [abs(float(unit_vector(t.axis_measured) @ normal))
                    for t in simulate(state, axis, config)]
            assert max(lift[:100]) <= 1e-10 and max(lift) <= 1e-9, (k, max(lift))


UNIT_ROUNDOFF = 2.0**-53  # of a double


def _mp_unit(theta, phi):
    return (mpmath.sin(theta) * mpmath.cos(phi), mpmath.sin(theta) * mpmath.sin(phi),
            mpmath.cos(theta))


def _merged_edge():
    """Steps with |cos beta| at the `_merged` threshold: rho = 1/2 with
    tau a few spacings either side of acos(+-1e-12), measured along x."""
    for sign in (1.0, -1.0):
        edge = math.acos(sign * 1e-12)
        for k in range(-24, 25, 6):
            yield PureState(0.5, edge + k * 2.0**-52), Axis(math.pi / 2, 0.0)


def _near_eigen_edge():
    """Steps whose p_up (or 1 - p_up) lies just above the default
    eigen_tol of 1e-12: Bloch vectors at the angle gamma from -n_i (or
    n_i) with sin^2(gamma/2) = p."""
    for theta, phi in [(0.3, 1.0), (1.2, 4.0), (2.9, 5.5), (math.pi / 2, 0.0)]:
        n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
             math.cos(theta))
        e = (math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
             -math.sin(theta))
        for p in (1.5e-12, 3e-12, 1e-11):
            gamma = 2.0 * math.asin(math.sqrt(p))
            for sign in (-1.0, 1.0):
                bloch = [sign * math.cos(gamma) * a + math.sin(gamma) * b
                         for a, b in zip(n, e)]
                yield state_from_bloch(bloch), Axis(theta, phi)
    for rho in (1.5e-12, 1.0 - 2.0**-39):  # along z, p_up is rho itself
        yield PureState(rho, 2.0), Axis(0.0, 0.0)


def _pole_edge():
    """Steps measured along a pole, and steps from a state at a pole."""
    for theta in (0.0, math.pi):
        for rho, tau in [(0.3, 1.0), (0.9, 6.0), (1e-3, 2.0)]:
            yield PureState(rho, tau), Axis(theta, 0.0)
    for rho in (0.0, 1.0):
        for theta, phi in [(0.3, 1.0), (2.0, 6.2), (math.pi / 2, 0.0)]:
            yield PureState(rho, 0.0), Axis(theta, phi)


class TestOneStepErrorBudget:
    """One reflective risk-rule `step` against a 100-digit `mpmath`
    evaluation of the same formulas, from the same input floats: p_up =
    (1 + n_i . m)/2, the next axis r/|r| with r = 2 (n_i . m) m - n_i (or
    -n_i on the merged great circle), and the eigenstate (cos^2(theta/2),
    phi) or (sin^2(theta/2), phi + pi) of the outcome the step took.  The
    branch is the one the float step took: at the `_merged` threshold the
    exact cos(beta) can lie on the other side of it, where the two axes
    differ by up to 2e-12.

    The bound on the axis is 16 * 2**-53 / sin(beta), the size of the
    plane tilt that rounding leaves after a step (`TestReflectivePlane`).
    One step does not reach it: its axis error stays near 11 * 2**-53 on
    generic inputs and below 4 * 2**-53 next to an eigenstate.  On generic
    inputs (sin(beta) >= 0.1) every error is at most 16 * 2**-53: the
    README records the worst one seen as the one-step error eps_1."""

    RULES = ("risk:constant", "risk:born-surprise", "risk:alignment")

    @staticmethod
    def _errors(state, axis, outcome):
        """(p_up, axis, rho, tau) errors of the step, with the exact sin(beta)
        and whether the step took the merged branch; None without a
        collapse.  The tau of a state at rho 0 or 1 is gauge, and not read."""
        t = step(state, axis, SimConfig(steps=1, mode="reflective", outcome=outcome))
        if t.no_collapse:
            return None
        cosb = spincollapse.solver._collapse_frame(
            state, axis, spincollapse.spin._unit_xyz(axis), 1e-12)[2]
        merged = spincollapse.solver._merged(cosb)
        mp = mpmath.mpf
        with mpmath.workdps(100):
            rho, tau, theta, phi = map(mp, (state.rho, state.tau, axis.theta, axis.phi))
            q = mpmath.sqrt(rho * (1 - rho))
            m = (2 * q * mpmath.cos(tau), 2 * q * mpmath.sin(tau), 2 * rho - 1)
            n = _mp_unit(theta, phi)
            c = sum(a * b for a, b in zip(n, m))
            r = [-b for b in n] if merged else [2 * c * a - b for a, b in zip(m, n)]
            norm = mpmath.sqrt(sum(x * x for x in r))
            got = _mp_unit(mp(t.axis_next.theta), mp(t.axis_next.phi))
            if t.s == 1:
                rho_after, tau_after = mpmath.cos(theta / 2) ** 2, phi
            else:
                rho_after = mpmath.sin(theta / 2) ** 2
                tau_after = (phi + mpmath.pi) % (2 * mpmath.pi)
            turn = abs(t.state_after.tau - tau_after) % (2 * mpmath.pi)
            errors = (
                abs(t.p_up - (1 + c) / 2),
                mpmath.sqrt(sum((a - b / norm) ** 2 for a, b in zip(got, r))),
                abs(t.state_after.rho - rho_after),
                min(turn, 2 * mpmath.pi - turn) if 0.0 < t.state_after.rho < 1.0 else 0,
            )
            return tuple(map(float, errors)), float(mpmath.sqrt(1 - c * c)), merged

    def _check(self, state, axis, outcome):
        """The step's (sin(beta), merged) after checking its errors; None
        without a collapse."""
        found = self._errors(state, axis, outcome)
        if found is None:
            return None
        (p_err, axis_err, rho_err, tau_err), sinb, merged = found
        assert axis_err <= 16 * UNIT_ROUNDOFF / sinb, (axis_err, sinb)
        # tau after -1 is phi + pi rounded below 3*pi < 16 (half a spacing is
        # 8 * 2**-53) with the float pi, 1.1 * 2**-53 off, and past 2*pi the
        # float 2*pi, 2.2 * 2**-53 off, subtracted exactly
        assert max(p_err, rho_err) <= 8 * UNIT_ROUNDOFF and tau_err <= 12 * UNIT_ROUNDOFF
        if sinb >= 0.1:
            assert max(p_err, axis_err, rho_err, tau_err) <= 16 * UNIT_ROUNDOFF
        return sinb, merged

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(0.0, 1.0),
        tau=st.floats(0.0, 2.0 * math.pi),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        outcome=st.sampled_from(RULES),
    )
    def test_generic(self, rho, tau, theta, phi, outcome):
        assume(self._check(PureState(rho, tau), Axis(theta, phi), outcome) is not None)

    @pytest.mark.parametrize("outcome", RULES)
    def test_merged_threshold(self, outcome):
        merged = [self._check(state, axis, outcome)[1] for state, axis in _merged_edge()]
        assert any(merged) and not all(merged)

    @pytest.mark.parametrize("outcome", RULES)
    def test_next_to_an_eigenstate(self, outcome):
        for state, axis in _near_eigen_edge():
            p = born_up(state, axis)
            assert 1e-12 < min(p, 1.0 - p) <= 1.1e-11
            assert self._check(state, axis, outcome)[0] < 1e-5

    @pytest.mark.parametrize("outcome", RULES)
    def test_poles(self, outcome):
        for state, axis in _pole_edge():
            assert self._check(state, axis, outcome) is not None


class TestStepDoesEachThingOnce:
    """The work of one collapsing step, counted.  `_walk` writes the step's
    arithmetic out, so the count is of the `math` aliases it calls,
    patched on `spincollapse.simulate` as `entropy._log` is patched on
    `spincollapse.entropy`:
    - the first n_i takes sin(theta), cos(phi), sin(phi) and cos(theta),
      and each reflective step takes the same four for its next axis,
      whose unit vector it hands on as the next n_i;
    - the collapse frame takes one square root (q), and the cosine and
      sine of theta/2 (c2, s2), of tau (m) and the cosine of phi - tau (p);
      the sin(theta) of p is that of n_i;
    - each of the two entropies takes two logarithms, and a base other
      than e one more per run.
    It calls none of the routes it repeats (`born_up`, `_bloch_xyz`,
    `_born_frame`, `state_from_eigenvector`, `_unit_xyz`, `_collapse_frame`,
    `_binary_entropy`, `_dot_entropy`), leaves the base and `eigen_tol` to
    `SimConfig`, which checked them, and canonicalizes only the mirror it
    takes (none in strict mode, which hands on the measured axis itself):
    one `solver._merged`, one `solver._mirror`, one `_xyz_angles` and one
    `Axis` per reflective step, and `Axis` keeps the canonical angles as
    they are, so `_reduce_angles` never runs.  It builds its record once, through
    `TrajectoryStep.__init__`, which fills the instance dict (one `__dict__`
    read) instead of setting each field through `object.__setattr__`.  A
    collapsing risk step calls its rule's outcome in closed form once: each
    is counted by the code it runs, however it is reached."""

    ALIASES = ("_sqrt", "_sin", "_cos", "_log")
    NEVER = ("born_up", "_bloch_xyz", "_born_frame", "state_from_eigenvector", "_unit_xyz",
             "_collapse_frame", "_binary_entropy", "_dot_entropy", "_reduce_angles",
             "_check_base", "_check_eigen_tol", "antipode")
    COUNTED = ALIASES + NEVER + ("_merged", "_mirror", "_xyz_angles")
    RISK = tuple(f"_OUTCOMES[{name!r}]" for name in spincollapse.risk._OUTCOMES)

    @pytest.fixture(autouse=True)
    def _profile_off(self):
        yield
        sys.setprofile(None)

    @classmethod
    def _count(cls, monkeypatch) -> dict:
        calls = dict.fromkeys(cls.COUNTED + cls.RISK, 0)
        calls.update({"Axis.__init__": 0, "TrajectoryStep.__init__": 0,
                      "TrajectoryStep.__dict__": 0})

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (spincollapse.spin, spincollapse.entropy, spincollapse.solver,
                       spincollapse.risk, SIMULATE_MODULE):
            for name in cls.COUNTED:
                # the aliases are counted where `_walk` reads them; `entropy._log`
                # would count a `_binary_entropy` call twice
                if hasattr(module, name) and (name not in cls.ALIASES
                                              or module is SIMULATE_MODULE):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        # a closed form is reached through `risk._OUTCOMES`, so it is told
        # by the code it runs
        codes = {pick.__code__: f"_OUTCOMES[{name!r}]"
                 for name, pick in spincollapse.risk._OUTCOMES.items()}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        for cls in (Axis, TrajectoryStep):
            name = f"{cls.__name__}.__init__"
            monkeypatch.setattr(cls, "__init__", counted(name, cls.__init__))

        def getattribute(self, name):
            if name == "__dict__":
                calls["TrajectoryStep.__dict__"] += 1
            return object.__getattribute__(self, name)

        monkeypatch.setattr(TrajectoryStep, "__getattribute__", getattribute)
        return calls

    @classmethod
    def _expected(cls, outcome, *, collapses=0, reflective=0, logs=0, records=0,
                  no_collapses=0, extra_logs=0) -> dict:
        """The counts of a run: the first n_i, `collapses` frames, of which
        `reflective` hand on a mirror, `logs` entropies with their two
        logarithms each, and `no_collapses` frames of steps that end the run
        (each with its one `_binary_entropy`).  Each collapse of a risk run
        calls the closed form of its `outcome`'s rule."""
        want = dict.fromkeys(cls.COUNTED + cls.RISK, 0)
        if outcome != "born":
            want[f"_OUTCOMES[{outcome.removeprefix('risk:')!r}]"] = collapses
        frames = collapses + no_collapses
        want["_sqrt"] = frames
        want["_sin"] = 2 + 2 * frames + 2 * reflective
        want["_cos"] = 2 + 3 * frames + 2 * reflective
        want["_log"] = 2 * logs + extra_logs
        want["_binary_entropy"] = no_collapses
        want["_merged"] = want["_mirror"] = want["_xyz_angles"] = reflective
        want.update({"Axis.__init__": reflective, "TrajectoryStep.__init__": records,
                     "TrajectoryStep.__dict__": records})
        return want

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_call_counts(self, monkeypatch, outcome):
        config = SimConfig(steps=1, mode="reflective", outcome=outcome, seed=5)
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        rng = make_rng(5)
        calls = self._count(monkeypatch)
        t = step(state, axis, config, rng)
        assert not t.no_collapse and t.s_i > 0.0 and t.s_up_next > 0.0
        assert calls == self._expected(outcome, collapses=1, reflective=1, logs=2, records=1)
        assert calls["_sqrt"] == 1 and calls["_sin"] == 6 and calls["_cos"] == 7

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_strict_step_hands_on_the_measured_axis(self, monkeypatch, outcome):
        config = SimConfig(steps=1, mode="strict", outcome=outcome, seed=5)
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        rng = make_rng(5)
        calls = self._count(monkeypatch)
        t = step(state, axis, config, rng)
        assert not t.no_collapse
        assert t.axis_next is t.axis_measured
        # n_i . n_i rounds to 1: a certain outcome, whose entropy takes no log
        assert t.s_i > 0.0 and t.s_up_next == 0.0
        assert calls == self._expected(outcome, collapses=1, logs=1, records=1)

    def test_strict_run_builds_each_record_once(self, monkeypatch):
        # one collapse, one no-collapse step and an 18-step absorbed tail
        config = SimConfig(steps=20, mode="strict", outcome="risk:constant")
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        calls = self._count(monkeypatch)
        traj = simulate(state, axis, config)
        assert [t.no_collapse for t in traj] == [False] + [True] * 19
        assert traj[0].s_up_next == 0.0
        assert calls == self._expected(config.outcome, collapses=1, no_collapses=1, logs=1,
                                       records=20)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    def test_reflective_run_carries_n_i(self, monkeypatch, outcome):
        # each collapsing step builds its next axis's unit vector once and
        # hands it on as the next n_i; only the first n_i is built apart.  A
        # base-2 run takes log(2) once.
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        for base, extra_logs in ((math.e, 0), (2.0, 1)):
            config = SimConfig(steps=40, mode="reflective", outcome=outcome, seed=5,
                               entropy_base=base)
            calls = self._count(monkeypatch)
            traj = simulate(state, axis, config)
            monkeypatch.undo()
            assert not any(t.no_collapse for t in traj)
            assert all(t.s_i > 0.0 and t.s_up_next > 0.0 for t in traj)
            assert calls == self._expected(outcome, collapses=40, reflective=40, logs=80,
                                           records=40, extra_logs=extra_logs)

    @pytest.mark.parametrize("outcome", ["risk:born-surprise", "risk:alignment"])
    def test_risk_rule_reads_the_step_frame(self, monkeypatch, outcome):
        # the closed form reads the p, m and next unit vector the step holds,
        # so neither `born_up`, `_bloch_xyz` nor `_unit_xyz`, which the
        # reference rules call, runs
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        for mode, steps in (("reflective", 1), ("reflective", 40), ("strict", 1)):
            reflective = steps if mode == "reflective" else 0
            config = SimConfig(steps=steps, mode=mode, outcome=outcome)
            calls = self._count(monkeypatch)
            traj = simulate(state, axis, config)
            monkeypatch.undo()
            assert not any(t.no_collapse for t in traj)
            assert calls == self._expected(outcome, collapses=steps, reflective=reflective,
                                           logs=steps + reflective, records=steps)
            assert calls["born_up"] == calls["_bloch_xyz"] == calls["_unit_xyz"] == 0


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_step_path_calls_no_min_or_max(monkeypatch, outcome):
    # a two-argument `min` or `max` costs about 0.2 us on CPython 3.11; the
    # kernels of a step clamp by comparison instead
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (spincollapse.spin, spincollapse.solver, spincollapse.entropy,
                   spincollapse.risk, SIMULATE_MODULE):
        monkeypatch.setattr(module, "min", counted(min), raising=False)
        monkeypatch.setattr(module, "max", counted(max), raising=False)
    state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
    config = SimConfig(steps=1, mode="reflective", outcome=outcome, seed=5)
    assert not step(state, axis, config, make_rng(5)).no_collapse
    config = SimConfig(steps=20, mode="reflective", outcome=outcome, seed=5)
    assert not any(t.no_collapse for t in simulate(state, axis, config))
    assert calls == []
    PureState(1.0 + 1e-13, 0.0)  # the wrappers do count: rho is clamped to 1
    assert calls == ["max", "min"]


def test_planted_mirror_fault_reaches_step_and_solve(monkeypatch):
    # `solver._mirror` is where both `step` and `solve` build r = 2 cos(beta) m
    # - n_i, so a fault planted there shows in the trajectory and the solver
    state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
    config = SimConfig(steps=1, mode="reflective", outcome="risk:constant")
    step_before = step(state, axis, config).axis_next
    solve_before = solve(state, axis, "reflective").minimizers
    mirror = spincollapse.solver._mirror

    def tilted(m, n_i, cosb):
        x, y, z = mirror(m, n_i, cosb)
        return x + 1e-3, y, z

    monkeypatch.setattr(spincollapse.solver, "_mirror", tilted)
    step_after = step(state, axis, config).axis_next
    solve_after = solve(state, axis, "reflective").minimizers
    assert step_after != step_before
    assert all(a != b for a, b in zip(solve_after, solve_before))
    assert step_after in solve_after


def _records_of_every_route() -> list:
    """Records from both `step` branches and from a strict absorbed tail."""
    reflective = SimConfig(steps=1, mode="reflective", outcome="born", seed=3)
    collapsed = step(PureState(0.3, 1.0), Axis(1.2, 0.4), reflective, make_rng(3), index=4)
    eigen = step(UP_Z, Axis(0.0, 0.0), reflective, make_rng(3), index=2)
    strict = SimConfig(steps=4, mode="strict", outcome="risk:alignment")
    tail = simulate(PureState(0.6, 2.0), Axis(0.7, 5.0), strict)
    assert not collapsed.no_collapse and eigen.no_collapse
    assert [t.no_collapse for t in tail] == [False, True, True, True]
    return [collapsed, eigen, *tail]


class TestRecordContract:
    """The records `step` and `simulate` build go through `TrajectoryStep`'s
    own `__init__`, which fills the instance dict instead of setting each
    field through `object.__setattr__` as the generated frozen `__init__`
    would; each is still the record `TrajectoryStep(*values)` builds, with
    the whole frozen-dataclass surface."""

    NAMES = ("index", "state_before", "axis_measured", "p_up", "s", "state_after",
             "axis_next", "s_i", "s_up_next", "no_collapse")

    @pytest.mark.parametrize("k", range(6))
    def test_same_as_public_constructor(self, k):
        record = _records_of_every_route()[k]
        values = tuple(getattr(record, n) for n in self.NAMES)
        public = TrajectoryStep(*values)
        assert type(record) is TrajectoryStep
        assert tuple(f.name for f in dataclasses.fields(record)) == self.NAMES
        assert dataclasses.fields(record) == dataclasses.fields(public)
        assert record == public and public == record
        assert hash(record) == hash(public)
        assert repr(record) == repr(public)
        assert list(vars(record).items()) == list(vars(public).items())
        assert record.to_dict() == public.to_dict()
        moved = dataclasses.replace(record, index=99)
        assert moved == TrajectoryStep(99, *values[1:]) and record.index == values[0]
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is TrajectoryStep
        assert restored == record and repr(restored) == repr(record)
        for name in self.NAMES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert tuple(getattr(record, n) for n in self.NAMES) == values


def _random_rotation(q: tuple[float, float, float, float]) -> np.ndarray:
    """The rotation matrix of the normalized quaternion q = (w, x, y, z)."""
    w, x, y, z = np.array(q) / math.sqrt(sum(c * c for c in q))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(c * c for c in q) >= 0.01)


def _rotated_pair(rot: np.ndarray, state: PureState, axis: Axis):
    return state_from_bloch(rot @ bloch_vector(state)), axis_from_vector(rot @ unit_vector(axis))


def _step_vectors(t) -> np.ndarray:
    """The Bloch vectors and axes of one step, as rows."""
    return np.array([bloch_vector(t.state_before), unit_vector(t.axis_measured),
                     bloch_vector(t.state_after), unit_vector(t.axis_next)])


class TestFrameCovariance:
    """Rotating the frame rotates the trajectory: the next axis is the mirror
    r = 2 (n_i . m) m - n_i (n_i in strict mode), built from vectors alone, so
    the run in a rotated frame is the rotated run.

    Deterministic rules are compared path by path.  The reflective map
    doubles rounding error at every step, so over 15 steps it stays near
    1e-11, far inside 1e-8.  A rule's tie (p = 1/2 for `born-surprise`,
    n_next . m = 0 for `alignment`) is broken by rounding, in either frame,
    so paths that pass within 1e-9 of one are left out."""

    STEPS = 15

    @settings(max_examples=60, deadline=None)
    @given(q=quaternions, seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["strict", "reflective"]),
           outcome=st.sampled_from(["risk:born-surprise", "risk:alignment", "risk:constant"]))
    def test_deterministic_paths(self, q, seed, mode, outcome):
        rot = _random_rotation(q)
        state, axis = non_eigen_pair(np.random.Generator(np.random.PCG64(seed)))
        config = SimConfig(steps=self.STEPS, mode=mode, outcome=outcome)
        traj = simulate(state, axis, config)
        assume(all(t.no_collapse or abs(2.0 * t.p_up - 1.0) > 1e-9 for t in traj))
        turned = simulate(*_rotated_pair(rot, state, axis), config)
        assert [(t.s, t.no_collapse) for t in turned] == [(t.s, t.no_collapse) for t in traj]
        for t, u in zip(traj, turned):
            assert np.abs(_step_vectors(t) @ rot.T - _step_vectors(u)).max() <= 1e-8

    RUNS, BORN_STEPS = 400, 10

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(q=quaternions, mode=st.sampled_from(["strict", "reflective"]))
    def test_born_distribution(self, q, mode):
        # independent seeds in the two frames: the mean of each rotated-back
        # vector must agree within five standard errors at every step
        rot = _random_rotation(q)
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        turned_pair = _rotated_pair(rot, state, axis)

        def vectors(pair, seeds, back):
            runs = [[_step_vectors(t) @ back for t in simulate(*pair, SimConfig(
                steps=self.BORN_STEPS, mode=mode, outcome="born", seed=seed))]
                for seed in seeds]
            return np.array(runs)  # (run, step, vector, component)

        plain = vectors((state, axis), range(self.RUNS), np.eye(3))
        turned = vectors(turned_pair, range(self.RUNS, 2 * self.RUNS), rot)
        gap = np.abs(plain.mean(axis=0) - turned.mean(axis=0))
        spread = np.sqrt((plain.var(axis=0) + turned.var(axis=0)) / self.RUNS)
        assert (gap <= 5.0 * spread + 1e-9).all()
