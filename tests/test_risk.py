"""Outcome-selection rules: builtins, validation, and well-definedness."""

import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from spincollapse import (
    Axis,
    PureState,
    RiskContext,
    RiskFunction,
    born_up,
    builtin_risks,
    get_risk,
    select_outcome,
)

from helpers import uniform_axis, uniform_state

NEG_LOG_THREE_QUARTERS = 0.2876820724517809  # -ln(3/4), frozen

UP_Z = PureState(1.0, 0.0)
TILT = Axis(math.pi / 3, 0.0)  # born_up(UP_Z, TILT) = 3/4
Z_AXIS = Axis(0.0, 0.0)


class TestBuiltins:
    def test_registry(self):
        rules = builtin_risks()
        assert [r.name for r in rules] == ["constant", "born-surprise", "alignment"]
        for r in rules:
            assert "stand-in" in r.note

    def test_get_risk_unknown_lists_builtins(self):
        with pytest.raises(ValueError, match="constant.*born-surprise.*alignment"):
            get_risk("nope")

    def test_constant_is_zero_and_ties_to_up(self):
        rule = get_risk("constant")
        ctx = RiskContext(UP_Z, TILT)
        assert rule.evaluate(Z_AXIS, +1, ctx) == 0.0
        assert rule.evaluate(Z_AXIS, -1, ctx) == 0.0
        assert select_outcome(rule, Z_AXIS, ctx) == (+1, 0.0)

    def test_born_surprise_values(self):
        rule = get_risk("born-surprise")
        ctx = RiskContext(UP_Z, TILT)
        assert rule.evaluate(Z_AXIS, +1, ctx) == pytest.approx(
            NEG_LOG_THREE_QUARTERS, abs=1e-12
        )
        assert rule.evaluate(Z_AXIS, -1, ctx) == pytest.approx(
            math.log(4.0), abs=1e-12
        )
        s, value = select_outcome(rule, Z_AXIS, ctx)
        assert s == +1
        assert value == pytest.approx(NEG_LOG_THREE_QUARTERS, abs=1e-12)

    def test_born_surprise_certain_hit_has_zero_risk(self):
        # an up eigenstate measured along its own axis: the +1 outcome is
        # certain, so its surprise is zero and the -1 outcome is vetoed
        rule = get_risk("born-surprise")
        ctx = RiskContext(UP_Z, Z_AXIS)
        assert select_outcome(rule, TILT, ctx) == (+1, 0.0)

    def test_born_surprise_ignores_candidate_axis(self, rng):
        rule = get_risk("born-surprise")
        for _ in range(50):
            ctx = RiskContext(uniform_state(rng), uniform_axis(rng))
            a, b = uniform_axis(rng), uniform_axis(rng)
            for s in (+1, -1):
                assert rule.evaluate(a, s, ctx) == rule.evaluate(b, s, ctx)

    def test_born_surprise_prefers_likelier_outcome(self, rng):
        rule = get_risk("born-surprise")
        for _ in range(100):
            state, axis = uniform_state(rng), uniform_axis(rng)
            picked, _ = select_outcome(rule, uniform_axis(rng), RiskContext(state, axis))
            p = born_up(state, axis)
            if abs(p - 0.5) > 1e-12:
                assert picked == (+1 if p > 0.5 else -1)

    def test_born_surprise_certain_loss_is_infinite(self):
        rule = get_risk("born-surprise")
        up_ctx = RiskContext(PureState(1.0, 0.0), Z_AXIS)
        assert rule.evaluate(TILT, -1, up_ctx) == math.inf
        assert select_outcome(rule, TILT, up_ctx) == (+1, 0.0)
        down_ctx = RiskContext(PureState(0.0, 0.0), Z_AXIS)
        assert rule.evaluate(TILT, +1, down_ctx) == math.inf
        assert select_outcome(rule, TILT, down_ctx) == (-1, 0.0)

    def test_alignment_uses_candidate_axis(self):
        rule = get_risk("alignment")
        ctx = RiskContext(UP_Z, Z_AXIS)  # bloch = +z
        # candidate tilted by pi/3 from the bloch vector: n_f . m = 1/2
        assert rule.evaluate(TILT, +1, ctx) == pytest.approx(-0.5, abs=1e-12)
        assert rule.evaluate(TILT, -1, ctx) == pytest.approx(+0.5, abs=1e-12)
        s, value = select_outcome(rule, TILT, ctx)
        assert (s, value) == (+1, pytest.approx(-0.5, abs=1e-12))
        # candidate past the equator: n_f . m = -1/2, so -1 aligns better
        far = Axis(2.0 * math.pi / 3, 0.0)
        s, value = select_outcome(rule, far, ctx)
        assert (s, value) == (-1, pytest.approx(-0.5, abs=1e-12))
        # the measured axis in the context is irrelevant to this rule
        other_ctx = RiskContext(UP_Z, far)
        assert rule.evaluate(TILT, +1, other_ctx) == rule.evaluate(TILT, +1, ctx)


class TestSelection:
    def test_returns_outcome_and_its_risk_value(self):
        rule = RiskFunction("cheap-down", lambda a, s, c: 0.25 if s == -1 else 0.75)
        assert select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT)) == (-1, 0.25)

    def test_exact_tie_resolves_up(self):
        rule = RiskFunction("flat", lambda a, s, c: 4.2)
        assert select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT)) == (+1, 4.2)

    def test_single_veto_picks_the_other_outcome(self):
        rule = RiskFunction(
            "veto-up", lambda a, s, c: math.inf if s == 1 else 1.0
        )
        assert select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT)) == (-1, 1.0)

    def test_double_veto_is_an_error(self):
        rule = RiskFunction("veto-all", lambda a, s, c: math.inf)
        with pytest.raises(ValueError, match="vetoes every outcome"):
            select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT))

    def test_nan_up_raises_before_the_down_rule_runs(self):
        calls = []

        def rule(a, s, c):
            calls.append(s)
            return math.nan if s == 1 else 0.0

        with pytest.raises(ValueError) as exc:
            select_outcome(RiskFunction("nan-up", rule), Z_AXIS, RiskContext(UP_Z, TILT))
        assert str(exc.value) == "risk 'nan-up' returned NaN for outcome +1"
        assert calls == [1]

    def test_nan_down_names_the_down_outcome(self):
        calls = []

        def rule(a, s, c):
            calls.append(s)
            return math.nan if s == -1 else 0.0

        with pytest.raises(ValueError) as exc:
            select_outcome(RiskFunction("nan-down", rule), Z_AXIS, RiskContext(UP_Z, TILT))
        assert str(exc.value) == "risk 'nan-down' returned NaN for outcome -1"
        assert calls == [1, -1]

    def test_rule_sees_plain_int_outcomes_in_order(self):
        seen = []
        rule = RiskFunction("spy", lambda a, s, c: seen.append((type(s), s)) or 0.0)
        select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT))
        assert seen == [(int, 1), (int, -1)]

    @pytest.mark.parametrize("up, down, expected", [
        (2, 3, (1, 2.0)),
        (np.float64(0.5), np.float64(0.25), (-1, 0.25)),
        (True, False, (-1, 0.0)),
        (Fraction(1, 4), Fraction(1, 4), (1, 0.25)),
    ])
    def test_value_is_a_python_float(self, up, down, expected):
        rule = RiskFunction("typed", lambda a, s, c: up if s == 1 else down)
        s, value = select_outcome(rule, Z_AXIS, RiskContext(UP_Z, TILT))
        assert (s, value) == expected and type(value) is float

    def test_rule_exception_propagates_unchanged(self):
        error = ZeroDivisionError("inside the rule")

        def rule(a, s, c):
            raise error

        with pytest.raises(ZeroDivisionError) as exc:
            select_outcome(RiskFunction("raises", rule), Z_AXIS, RiskContext(UP_Z, TILT))
        assert exc.value is error

    def test_selection_matches_evaluate(self, rng):
        # select_outcome reads the rule directly; its pick is the lower of
        # the two `evaluate` values, ties to +1
        for rule in builtin_risks():
            for _ in range(100):
                ctx = RiskContext(uniform_state(rng), uniform_axis(rng))
                axis_f = uniform_axis(rng)
                up = rule.evaluate(axis_f, 1, ctx)
                down = rule.evaluate(axis_f, -1, ctx)
                expected = (-1, down) if down < up else (1, up)
                assert select_outcome(rule, axis_f, ctx) == expected

    def test_constant_shift_never_changes_the_selection(self, rng):
        # adding the same constant to every risk leaves the argmin over
        # outcomes untouched; checked across all builtins on random inputs
        trials_per_rule = 334  # ~10^3 random inputs in total
        for base in builtin_risks():
            shift = float(rng.uniform(-5.0, 5.0))
            shifted = RiskFunction(
                base.name + "+c",
                lambda a, s, c, _r=base.rule, _c=shift: _r(a, s, c) + _c,
            )
            for _ in range(trials_per_rule):
                ctx = RiskContext(uniform_state(rng), uniform_axis(rng))
                axis_f = uniform_axis(rng)
                s0, v0 = select_outcome(base, axis_f, ctx)
                s1, v1 = select_outcome(shifted, axis_f, ctx)
                assert s1 == s0
                if math.isfinite(v0):
                    assert v1 == pytest.approx(v0 + shift, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        0, 2, -2, True, False, 1.0, -1.0, np.float64(-1.0), np.True_, Fraction(1), "1", None,
    ])
    def test_invalid_outcome_rejected(self, bad):
        # the +1 risk is not read for True, nor for the float 1.0
        rule = get_risk("born-surprise")
        with pytest.raises(ValueError) as exc:
            rule.evaluate(Axis(1.0, 1.0), bad, RiskContext(UP_Z, TILT))
        assert str(exc.value) == f"outcome must be +1 or -1, got {bad!r}"

    @pytest.mark.parametrize("s", [np.int64(1), np.int8(-1), np.uint16(1)])
    def test_numpy_integer_outcomes_accepted(self, s):
        seen = []
        rule = RiskFunction("spy", lambda a, k, c: seen.append(k) or float(k))
        assert rule.evaluate(Z_AXIS, s, RiskContext(UP_Z, TILT)) == float(s)
        assert seen == [int(s)] and type(seen[0]) is int

    def test_nan_risk_rejected(self):
        rule = RiskFunction("broken", lambda a, s, c: math.nan)
        with pytest.raises(ValueError, match="NaN"):
            rule.evaluate(Z_AXIS, +1, RiskContext(UP_Z, TILT))
        with pytest.raises(ValueError) as exc:
            rule.evaluate(Z_AXIS, -1, RiskContext(UP_Z, TILT))
        assert str(exc.value) == "risk 'broken' returned NaN for outcome -1"


class TestRiskContextContract:
    """`RiskContext` sets its fields in its own `__init__`; the dataclass
    surface around it stays that of a frozen dataclass."""

    NAMES = ("state", "axis_measured")

    def test_frozen_dataclass_surface(self):
        state, axis = PureState(0.3, 1.0), Axis(1.2, 0.4)
        ctx = RiskContext(state, axis)
        assert tuple(f.name for f in dataclasses.fields(ctx)) == self.NAMES
        assert RiskContext.__match_args__ == self.NAMES
        assert ctx.state is state and ctx.axis_measured is axis
        same = RiskContext(axis_measured=Axis(1.2, 0.4), state=PureState(0.3, 1.0))
        assert ctx == same and hash(ctx) == hash(same)
        assert ctx != RiskContext(state, Axis(1.2, 0.5))
        assert repr(ctx) == f"RiskContext(state={state!r}, axis_measured={axis!r})"
        moved = dataclasses.replace(ctx, axis_measured=TILT)
        assert moved == RiskContext(state, TILT) and ctx.axis_measured is axis
        restored = pickle.loads(pickle.dumps(ctx))
        assert type(restored) is RiskContext
        assert restored == ctx and repr(restored) == repr(ctx)
        for name in self.NAMES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ctx, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(ctx, name)
        assert (ctx.state, ctx.axis_measured) == (state, axis)


class TestWellDefinedness:
    def test_equivalent_angle_inputs_give_identical_risks(self, rng):
        # a rule sees only canonical axes, so two spellings of the same
        # direction yield the same risk value bit for bit -- whether the
        # direction enters as the candidate axis or through the context
        for name in ("constant", "born-surprise", "alignment"):
            rule = get_risk(name)
            for _ in range(50):
                state = uniform_state(rng)
                theta = float(rng.uniform(1e-3, math.pi - 1e-3))
                phi = float(rng.uniform(0.0, 2.0 * math.pi))
                one = Axis(-theta, phi)
                other = Axis(theta, phi + math.pi)
                assert one == other
                fixed = uniform_axis(rng)
                for s in (+1, -1):
                    assert rule.evaluate(one, s, RiskContext(state, fixed)) == (
                        rule.evaluate(other, s, RiskContext(state, fixed))
                    )
                    assert rule.evaluate(fixed, s, RiskContext(state, one)) == (
                        rule.evaluate(fixed, s, RiskContext(state, other))
                    )

    def test_full_turn_shift_matches_within_float_noise(self, rng):
        rule = get_risk("alignment")
        ctx = RiskContext(uniform_state(rng), uniform_axis(rng))
        for _ in range(50):
            axis = uniform_axis(rng)
            shifted = Axis(axis.theta, axis.phi + 2.0 * math.pi)
            for s in (+1, -1):
                a = rule.evaluate(axis, s, ctx)
                b = rule.evaluate(shifted, s, ctx)
                assert a == pytest.approx(b, abs=1e-12)
