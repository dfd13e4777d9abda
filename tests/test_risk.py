"""Outcome rules: the builtin names, and the values, validation and
minimize-the-risk selection of the reference in `helpers` that their closed
forms are checked against (`TestClosedFormOutcomes`, `TestRiskOutcomePinned`)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spincollapse import Axis, PureState, born_up, unit_vector
import spincollapse.risk
from spincollapse.spin import _bloch_xyz

from helpers import (
    RISK_RULES, alignment_risk, born_surprise_risk, constant_risk, min_risk_outcome,
    risk_value, uniform_axis, uniform_state,
)

NEG_LOG_THREE_QUARTERS = 0.2876820724517809  # -ln(3/4), frozen

UP_Z = PureState(1.0, 0.0)
TILT = Axis(math.pi / 3, 0.0)  # born_up(UP_Z, TILT) = 3/4
Z_AXIS = Axis(0.0, 0.0)


class TestBuiltins:
    def test_registry(self):
        # the order `SimConfig`'s error lists them in
        names = ["constant", "born-surprise", "alignment"]
        assert list(spincollapse.risk._OUTCOMES) == list(RISK_RULES) == names
        assert spincollapse.risk._STAND_IN == (
            "illustrative stand-in: the collapse model does not prescribe one")

    def test_constant_is_zero_and_ties_to_up(self):
        assert constant_risk(Z_AXIS, +1, UP_Z, TILT) == 0.0
        assert constant_risk(Z_AXIS, -1, UP_Z, TILT) == 0.0
        assert min_risk_outcome("constant", UP_Z, TILT, Z_AXIS) == (+1, 0.0)

    def test_born_surprise_values(self):
        assert born_surprise_risk(Z_AXIS, +1, UP_Z, TILT) == pytest.approx(
            NEG_LOG_THREE_QUARTERS, abs=1e-12
        )
        assert born_surprise_risk(Z_AXIS, -1, UP_Z, TILT) == pytest.approx(
            math.log(4.0), abs=1e-12
        )
        s, value = min_risk_outcome("born-surprise", UP_Z, TILT, Z_AXIS)
        assert s == +1
        assert value == pytest.approx(NEG_LOG_THREE_QUARTERS, abs=1e-12)

    def test_born_surprise_certain_hit_has_zero_risk(self):
        # an up eigenstate measured along its own axis: the +1 outcome is
        # certain, so its surprise is zero and the -1 outcome is vetoed
        assert min_risk_outcome("born-surprise", UP_Z, Z_AXIS, TILT) == (+1, 0.0)

    def test_born_surprise_ignores_candidate_axis(self, rng):
        for _ in range(50):
            state, axis = uniform_state(rng), uniform_axis(rng)
            a, b = uniform_axis(rng), uniform_axis(rng)
            for s in (+1, -1):
                assert born_surprise_risk(a, s, state, axis) == born_surprise_risk(
                    b, s, state, axis)

    def test_born_surprise_prefers_likelier_outcome(self, rng):
        for _ in range(100):
            state, axis = uniform_state(rng), uniform_axis(rng)
            picked, _ = min_risk_outcome("born-surprise", state, axis, uniform_axis(rng))
            p = born_up(state, axis)
            if abs(p - 0.5) > 1e-12:
                assert picked == (+1 if p > 0.5 else -1)

    def test_born_surprise_certain_loss_is_infinite(self):
        up, down = PureState(1.0, 0.0), PureState(0.0, 0.0)
        assert born_surprise_risk(TILT, -1, up, Z_AXIS) == math.inf
        assert min_risk_outcome("born-surprise", up, Z_AXIS, TILT) == (+1, 0.0)
        assert born_surprise_risk(TILT, +1, down, Z_AXIS) == math.inf
        assert min_risk_outcome("born-surprise", down, Z_AXIS, TILT) == (-1, 0.0)

    def test_alignment_uses_candidate_axis(self):
        # bloch = +z; candidate tilted by pi/3 from it: n_f . m = 1/2
        assert alignment_risk(TILT, +1, UP_Z, Z_AXIS) == pytest.approx(-0.5, abs=1e-12)
        assert alignment_risk(TILT, -1, UP_Z, Z_AXIS) == pytest.approx(+0.5, abs=1e-12)
        s, value = min_risk_outcome("alignment", UP_Z, Z_AXIS, TILT)
        assert (s, value) == (+1, pytest.approx(-0.5, abs=1e-12))
        # candidate past the equator: n_f . m = -1/2, so -1 aligns better
        far = Axis(2.0 * math.pi / 3, 0.0)
        s, value = min_risk_outcome("alignment", UP_Z, Z_AXIS, far)
        assert (s, value) == (-1, pytest.approx(-0.5, abs=1e-12))
        # the measured axis is irrelevant to this rule
        assert alignment_risk(TILT, +1, UP_Z, far) == alignment_risk(TILT, +1, UP_Z, Z_AXIS)


class TestSelection:
    def test_returns_outcome_and_its_risk_value(self):
        rule = lambda a, s, state, axis: 0.25 if s == -1 else 0.75
        assert min_risk_outcome("cheap-down", UP_Z, TILT, Z_AXIS, rule) == (-1, 0.25)

    def test_exact_tie_resolves_up(self):
        rule = lambda a, s, state, axis: 4.2
        assert min_risk_outcome("flat", UP_Z, TILT, Z_AXIS, rule) == (+1, 4.2)

    def test_single_veto_picks_the_other_outcome(self):
        rule = lambda a, s, state, axis: math.inf if s == 1 else 1.0
        assert min_risk_outcome("veto-up", UP_Z, TILT, Z_AXIS, rule) == (-1, 1.0)

    def test_double_veto_is_an_error(self):
        rule = lambda a, s, state, axis: math.inf
        with pytest.raises(ValueError) as exc:
            min_risk_outcome("veto-all", UP_Z, TILT, Z_AXIS, rule)
        assert str(exc.value) == "risk 'veto-all' vetoes every outcome (+inf for both)"

    def test_nan_up_raises_before_the_down_rule_runs(self):
        calls = []

        def rule(a, s, state, axis):
            calls.append(s)
            return math.nan if s == 1 else 0.0

        with pytest.raises(ValueError) as exc:
            min_risk_outcome("nan-up", UP_Z, TILT, Z_AXIS, rule)
        assert str(exc.value) == "risk 'nan-up' returned NaN for outcome +1"
        assert calls == [1]

    def test_nan_down_names_the_down_outcome(self):
        calls = []

        def rule(a, s, state, axis):
            calls.append(s)
            return math.nan if s == -1 else 0.0

        with pytest.raises(ValueError) as exc:
            min_risk_outcome("nan-down", UP_Z, TILT, Z_AXIS, rule)
        assert str(exc.value) == "risk 'nan-down' returned NaN for outcome -1"
        assert calls == [1, -1]

    def test_rule_sees_plain_int_outcomes_in_order(self):
        seen = []

        def rule(a, s, state, axis):
            seen.append((type(s), s))
            return 0.0

        min_risk_outcome("spy", UP_Z, TILT, Z_AXIS, rule)
        assert seen == [(int, 1), (int, -1)]

    @pytest.mark.parametrize("up, down, expected", [
        (2, 3, (1, 2.0)),
        (np.float64(0.5), np.float64(0.25), (-1, 0.25)),
        (True, False, (-1, 0.0)),
        (Fraction(1, 4), Fraction(1, 4), (1, 0.25)),
    ])
    def test_value_is_a_python_float(self, up, down, expected):
        rule = lambda a, s, state, axis: up if s == 1 else down
        s, value = min_risk_outcome("typed", UP_Z, TILT, Z_AXIS, rule)
        assert (s, value) == expected and type(value) is float

    def test_rule_exception_propagates_unchanged(self):
        error = ZeroDivisionError("inside the rule")

        def rule(a, s, state, axis):
            raise error

        with pytest.raises(ZeroDivisionError) as exc:
            min_risk_outcome("raises", UP_Z, TILT, Z_AXIS, rule)
        assert exc.value is error

    def test_selection_matches_evaluate(self, rng):
        # the pick is the lower of the two `risk_value` values, ties to +1
        for name in RISK_RULES:
            for _ in range(100):
                state, axis = uniform_state(rng), uniform_axis(rng)
                axis_f = uniform_axis(rng)
                up = risk_value(name, axis_f, 1, state, axis)
                down = risk_value(name, axis_f, -1, state, axis)
                expected = (-1, down) if down < up else (1, up)
                assert min_risk_outcome(name, state, axis, axis_f) == expected

    def test_constant_shift_never_changes_the_selection(self, rng):
        # adding the same constant to every risk leaves the argmin over
        # outcomes untouched; checked across all builtins on random inputs
        trials_per_rule = 334  # ~10^3 random inputs in total
        for name, base in RISK_RULES.items():
            shift = float(rng.uniform(-5.0, 5.0))

            def shifted(a, s, state, axis, _r=base, _c=shift):
                return _r(a, s, state, axis) + _c

            for _ in range(trials_per_rule):
                state, axis = uniform_state(rng), uniform_axis(rng)
                axis_f = uniform_axis(rng)
                s0, v0 = min_risk_outcome(name, state, axis, axis_f)
                s1, v1 = min_risk_outcome(name + "+c", state, axis, axis_f, shifted)
                assert s1 == s0
                if math.isfinite(v0):
                    assert v1 == pytest.approx(v0 + shift, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        0, 2, -2, True, False, 1.0, -1.0, np.float64(-1.0), np.True_, Fraction(1), "1", None,
    ])
    def test_invalid_outcome_rejected(self, bad):
        # the +1 risk is not read for True, nor for the float 1.0
        with pytest.raises(ValueError) as exc:
            risk_value("born-surprise", Axis(1.0, 1.0), bad, UP_Z, TILT)
        assert str(exc.value) == f"outcome must be +1 or -1, got {bad!r}"

    @pytest.mark.parametrize("s", [np.int64(1), np.int8(-1), np.uint16(1)])
    def test_numpy_integer_outcomes_accepted(self, s):
        seen = []

        def rule(a, k, state, axis):
            seen.append(k)
            return float(k)

        assert risk_value("spy", Z_AXIS, s, UP_Z, TILT, rule) == float(s)
        assert seen == [int(s)] and type(seen[0]) is int

    def test_nan_risk_rejected(self):
        rule = lambda a, s, state, axis: math.nan
        with pytest.raises(ValueError, match="NaN"):
            risk_value("broken", Z_AXIS, +1, UP_Z, TILT, rule)
        with pytest.raises(ValueError) as exc:
            risk_value("broken", Z_AXIS, -1, UP_Z, TILT, rule)
        assert str(exc.value) == "risk 'broken' returned NaN for outcome -1"


class TestContextFrame:
    """The reference rules read the Born weight p and the Bloch vector m of
    the state along the measured axis through `born_up` and `_bloch_xyz`."""

    def test_rules_read_born_up_and_bloch_vector(self, rng):
        # the rules' values, from `born_up` and `_bloch_xyz` written out
        for _ in range(200):
            state, axis = uniform_state(rng), uniform_axis(rng)
            axis_f = uniform_axis(rng)
            p_up = born_up(state, axis)
            m = _bloch_xyz(state)
            n = unit_vector(axis_f).tolist()
            for s in (+1, -1):
                p = p_up if s == 1 else 1.0 - p_up
                surprise = math.inf if p <= 0.0 else -math.log(p)
                assert born_surprise_risk(axis_f, s, state, axis) == surprise
                alignment = -float(s) * (n[0] * m[0] + n[1] * m[1] + n[2] * m[2])
                assert alignment_risk(axis_f, s, state, axis).hex() == alignment.hex()


class TestWellDefinedness:
    def test_equivalent_angle_inputs_give_identical_risks(self, rng):
        # a rule sees only canonical axes, so two spellings of the same
        # direction yield the same risk value bit for bit -- whether the
        # direction enters as the candidate axis or as the measured one
        for name in RISK_RULES:
            for _ in range(50):
                state = uniform_state(rng)
                theta = float(rng.uniform(1e-3, math.pi - 1e-3))
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                one = Axis(-theta, phi)
                other = Axis(theta, phi + math.pi)
                assert one == other
                fixed = uniform_axis(rng)
                for s in (+1, -1):
                    assert risk_value(name, one, s, state, fixed) == (
                        risk_value(name, other, s, state, fixed))
                    assert risk_value(name, fixed, s, state, one) == (
                        risk_value(name, fixed, s, state, other))

    def test_full_turn_shift_matches_within_float_noise(self, rng):
        state, measured = uniform_state(rng), uniform_axis(rng)
        for _ in range(50):
            axis = uniform_axis(rng)
            shifted = Axis(axis.theta, axis.phi + 2.0 * math.pi)
            for s in (+1, -1):
                a = risk_value("alignment", axis, s, state, measured)
                b = risk_value("alignment", shifted, s, state, measured)
                assert a == pytest.approx(b, abs=1e-12)
