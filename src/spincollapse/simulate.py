"""Repeated-measurement trajectories under entropy-conserving axis updates.

Each step measures the current axis, fixes a collapse outcome, projects the
state onto the corresponding eigenvector, and hands one of the solver's
minimizing axes to the next step: the one built from the Bloch vector m and
the measured axis n_i alone, so a trajectory does not depend on the
coordinate frame.  Outcomes come either from sampling the Born distribution
(`outcome="born"`, seeded, reproducible) or from a deterministic risk rule
(`outcome="risk:<name>"`) evaluated at that proposed axis; deterministic
trajectories are bit-identical across runs by construction.

Mode shapes the long-run behaviour: "strict" re-measures n_i itself, so the
trajectory absorbs after one step into a fixed point where every later step
is a certain no-collapse repeat; "reflective" keeps the axis moving along
the mirror r = 2 (n_i . m) m - n_i, the reflection of -n_i about the
evolving Bloch vector.

Born sampling uses numpy's PCG64 generator (see `RNG_NAME`): outcome +1 is
taken when one uniform draw per step falls below the up probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .entropy import _binary_entropy, _check_base, _dot_entropy
from .risk import RiskContext, RiskFunction, get_risk, select_outcome
from .solver import (
    NoCollapseError,
    _check_eigen_tol,
    _check_mode,
    _collapse_frame,
    _next_axis,
)
from .spin import (
    DEFAULT_ATOL,
    Axis,
    PureState,
    _dot3,
    _unit_xyz,
    born_up,
    state_from_eigenvector,
)

__all__ = [
    "RNG_NAME",
    "SimConfig",
    "TrajectoryStep",
    "make_rng",
    "simulate",
    "step",
]

RNG_NAME = "numpy.random.PCG64"


def _parse_outcome(outcome: str) -> RiskFunction | None:
    """The risk rule `outcome` names, or None for Born sampling."""
    if not isinstance(outcome, str):
        raise ValueError(f"outcome must be a string, got {outcome!r}")
    if outcome == "born":
        return None
    if outcome.startswith("risk:"):
        return get_risk(outcome[len("risk:") :])
    raise ValueError(
        f"outcome must be 'born' or 'risk:<name>', got {outcome!r}"
    )


def make_rng(seed: int) -> np.random.Generator:
    """The simulator's generator; one uniform draw is consumed per step."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SimConfig:
    """Trajectory parameters, validated up front.

    `outcome="born"` requires a `seed` so every run is replayable; risk
    outcomes ignore the seed, which must still be None or a non-negative
    integer.  `entropy_base` only rescales reported entropies -- it never
    changes which axes are chosen.
    """

    steps: int
    mode: str = "strict"
    outcome: str = "risk:born-surprise"
    seed: int | None = None
    entropy_base: float = math.e
    eigen_tol: float = DEFAULT_ATOL
    # the risk rule, None for Born sampling: `outcome` parsed once, on construction
    _risk: RiskFunction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # bool is an int subclass, but steps=True is a mistake, not 1 step
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        _check_mode(self.mode)
        seed = self.seed  # checked even where the outcome rule ignores it
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
        ):
            raise ValueError(f"seed must be None or a non-negative integer, got {seed!r}")
        object.__setattr__(self, "_risk", _parse_outcome(self.outcome))
        if self._risk is None and self.seed is None:
            raise ValueError("outcome 'born' requires a seed for reproducibility")
        _check_base(self.entropy_base)
        _check_eigen_tol(self.eigen_tol)


@dataclass(frozen=True, init=False)
class TrajectoryStep:
    """One measurement: the state walked in, `axis_measured` was read out
    with outcome `s`, the state collapsed to `state_after`, and the solver
    proposed `axis_next`.  `s_i` is the outcome entropy before collapse and
    `s_up_next` the transfer entropy to the proposed axis."""

    index: int
    state_before: PureState
    axis_measured: Axis
    p_up: float
    s: int
    state_after: PureState
    axis_next: Axis
    s_i: float
    s_up_next: float
    no_collapse: bool

    def __init__(self, index, state_before, axis_measured, p_up, s, state_after,
                 axis_next, s_i, s_up_next, no_collapse) -> None:
        # the record the generated frozen __init__ builds, without its
        # `object.__setattr__` per field: the dict is filled in field order
        d = self.__dict__
        d["index"] = index
        d["state_before"] = state_before
        d["axis_measured"] = axis_measured
        d["p_up"] = p_up
        d["s"] = s
        d["state_after"] = state_after
        d["axis_next"] = axis_next
        d["s_i"] = s_i
        d["s_up_next"] = s_up_next
        d["no_collapse"] = no_collapse

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "state_before": {"rho": self.state_before.rho, "tau": self.state_before.tau},
            "axis_measured": {
                "theta": self.axis_measured.theta,
                "phi": self.axis_measured.phi,
            },
            "p_up": self.p_up,
            "s": self.s,
            "state_after": {"rho": self.state_after.rho, "tau": self.state_after.tau},
            "axis_next": {"theta": self.axis_next.theta, "phi": self.axis_next.phi},
            "s_i": self.s_i,
            "s_up_next": self.s_up_next,
            "no_collapse": self.no_collapse,
        }


def step(
    state: PureState,
    axis_i: Axis,
    config: SimConfig,
    rng: np.random.Generator | None = None,
    *,
    index: int = 0,
) -> TrajectoryStep:
    """Advance one measurement from (state, axis_i) under `config`.

    A no-collapse step (eigenstate input) reports the certain outcome and
    leaves both the state and the axis untouched.  The step reads the collapse
    frame once and builds only its next axis: n_i in strict mode, the mirror
    r = 2 (n_i . m) m - n_i in reflective mode.  That axis is, bit for bit,
    the one of `solve(...).minimizers` along n_i or r, and `s_up_next` is
    `s_up(axis_i, axis_next)`.
    """
    risk = config._risk
    if risk is None and rng is None:
        raise ValueError("born outcome sampling requires an rng; see make_rng()")

    base = config.entropy_base  # SimConfig checked it
    try:
        p, m, n_i, cosb = _collapse_frame(state, axis_i, config.eigen_tol)
    except NoCollapseError:
        # once per run: `simulate` copies this record for the rest of it
        p = born_up(state, axis_i)
        s = 1 if p >= 0.5 else -1
        return TrajectoryStep(
            index, state, axis_i, p, s, state, axis_i, _binary_entropy(p, base), 0.0, True
        )

    axis_next = _next_axis(axis_i, m, n_i, cosb, config.mode)
    if risk is None:
        s = 1 if rng.random() < p else -1
    else:
        s, _ = select_outcome(risk, axis_next, RiskContext(state, axis_i))

    state_after = state_from_eigenvector(axis_i, s)
    return TrajectoryStep(
        index,
        state,
        axis_i,
        p,
        s,
        state_after,
        axis_next,
        _binary_entropy(p, base),
        _dot_entropy(_dot3(n_i, _unit_xyz(axis_next)), base),
        False,
    )


def simulate(
    initial_state: PureState, initial_axis: Axis, config: SimConfig
) -> list[TrajectoryStep]:
    """Run `config.steps` measurements, threading state and axis through.

    A no-collapse step hands its own state and axis to the next step, draws
    no random number and calls no risk rule, so every later step repeats it
    exactly; the run stops stepping there and repeats it under the remaining
    indices.
    """
    rng = make_rng(config.seed) if config._risk is None else None
    state, axis = initial_state, initial_axis
    steps: list[TrajectoryStep] = []
    for k in range(config.steps):
        ts = step(state, axis, config, rng, index=k)
        steps.append(ts)
        if ts.no_collapse:
            rest = [getattr(ts, f.name) for f in fields(ts)[1:]]  # all but index
            steps += [TrajectoryStep(j, *rest) for j in range(k + 1, config.steps)]
            break
        state, axis = ts.state_after, ts.axis_next
    return steps
