"""Outcome-selection rules for deterministic trajectory simulation.

After the solver proposes the next measurement axis, the simulator needs a
collapse outcome s in {+1, -1}.  The sampling route draws s from the Born
distribution; the rules here instead pick s by minimizing a user-supplied
scalar "risk" of observing each outcome, making the whole trajectory
deterministic and replayable.

A rule is any callable (axis_f, s, context) -> float: it sees the candidate
follow-up axis proposed by the solver, the outcome under consideration, and
a `RiskContext` holding the pre-collapse state together with the axis
currently being measured.  Rules are automatically well defined on
measurement directions -- a function of the canonical axis alone -- because
`Axis` canonicalizes its angles on construction.

No particular risk functional is singled out by the collapse model itself,
so the builtins are explicitly labelled illustrative stand-ins.

Next to each builtin sits its outcome in closed form: the s `select_outcome`
picks under that rule in a collapsing step, from the step's Born weight p,
Bloch vector m and candidate unit vector n_f.  A trajectory picks its risk
outcomes through these; `select_outcome` and the rules stay the reference
they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .spin import Axis, PureState, _bloch_xyz, _dot3, _outcome, _unit_xyz, born_up

__all__ = [
    "RiskContext",
    "RiskFunction",
    "builtin_risks",
    "get_risk",
    "select_outcome",
]

_STAND_IN = "illustrative stand-in: the collapse model does not prescribe one"


@dataclass(frozen=True)
class RiskContext:
    """What a rule may look at besides the candidate axis: the pre-collapse
    state and the axis currently being measured."""

    state: PureState
    axis_measured: Axis


@dataclass(frozen=True)
class RiskFunction:
    """A named rule assigning a scalar risk to each candidate outcome.

    `rule(axis_f, s, context)` may return +inf to veto an outcome outright
    (e.g. a Born-impossible one) but never NaN, which `evaluate` and
    `select_outcome` reject because it would make the selection
    order-dependent.  The outcome a rule sees is the plain int +1 or -1.
    """

    name: str
    rule: Callable[[Axis, int, RiskContext], float]
    note: str = ""

    def evaluate(self, axis_f: Axis, s: int, context: RiskContext) -> float:
        s = _outcome(s)
        value = float(self.rule(axis_f, s, context))
        if math.isnan(value):
            raise _nan_risk(self, s)
        return value


def _nan_risk(risk: RiskFunction, s: int) -> ValueError:
    """The error for a rule that returned NaN for outcome s."""
    return ValueError(f"risk {risk.name!r} returned NaN for outcome {s:+d}")


def _constant(axis_f: Axis, s: int, context: RiskContext) -> float:
    return 0.0


def _constant_outcome(p, m, nx, ny, nz) -> int:
    """`_constant`'s pick: both risks are 0.0, and the tie goes to +1."""
    return 1


def _born_surprise(axis_f: Axis, s: int, context: RiskContext) -> float:
    """Negative log Born probability of the outcome on the measured axis;
    certain losses are +inf.  Ignores the candidate axis."""
    p_up = born_up(context.state, context.axis_measured)
    p = p_up if s == 1 else 1.0 - p_up
    return math.inf if p <= 0.0 else -math.log(p)


def _born_surprise_outcome(p, m, nx, ny, nz) -> int:
    """`_born_surprise`'s pick: -1 iff -log(1 - p) < -log(p).  A collapsing
    step has 0 < p < 1, so neither risk is +inf or NaN."""
    return -1 if math.log(p) < math.log(1.0 - p) else 1


def _alignment(axis_f: Axis, s: int, context: RiskContext) -> float:
    """Penalize outcomes whose collapsed spin s*n_f would point away from the
    current Bloch vector: risk = -s * (n_f . m)."""
    return -float(s) * _dot3(_unit_xyz(axis_f), _bloch_xyz(context.state))


def _alignment_outcome(p, m, nx, ny, nz) -> int:
    """`_alignment`'s pick: the risks are -d and d for d = n_f . m, summed as
    `_dot3` does, so -1 iff d < 0.0; d = -0.0 ties and picks +1."""
    mx, my, mz = m
    return -1 if nx * mx + ny * my + nz * mz < 0.0 else 1


_BUILTINS = (
    RiskFunction("constant", _constant, _STAND_IN),
    RiskFunction("born-surprise", _born_surprise, _STAND_IN),
    RiskFunction("alignment", _alignment, _STAND_IN),
)


# each builtin rule's outcome in a collapsing step, called by `_walk` as
# pick(p, m, *n_f) with the step's Born weight, Bloch vector and candidate
# unit vector
_OUTCOMES = {
    _constant: _constant_outcome,
    _born_surprise: _born_surprise_outcome,
    _alignment: _alignment_outcome,
}


def builtin_risks() -> tuple[RiskFunction, ...]:
    """The bundled rules, each flagged as an illustrative stand-in."""
    return _BUILTINS


def get_risk(name: str) -> RiskFunction:
    for rf in _BUILTINS:
        if rf.name == name:
            return rf
    known = ", ".join(rf.name for rf in _BUILTINS)
    raise ValueError(f"unknown risk function {name!r}; builtins are: {known}")


def select_outcome(
    risk: RiskFunction, axis_f: Axis, context: RiskContext
) -> tuple[int, float]:
    """The outcome of lower risk at the candidate axis, with its risk value.

    Exact ties resolve to +1.  A +inf risk vetoes that outcome; if both
    outcomes are vetoed no selection is meaningful and a ValueError is
    raised.  The values are those of `risk.evaluate`, without its check of
    the outcome: `risk.rule` runs for +1 and then -1, each value goes
    through `float`, and a NaN raises before the next call.
    """
    rule = risk.rule
    up = float(rule(axis_f, 1, context))
    if math.isnan(up):
        raise _nan_risk(risk, 1)
    down = float(rule(axis_f, -1, context))
    if math.isnan(down):
        raise _nan_risk(risk, -1)
    s, value = (-1, down) if down < up else (1, up)
    if value == math.inf:
        raise ValueError(f"risk {risk.name!r} vetoes every outcome (+inf for both)")
    return s, value
