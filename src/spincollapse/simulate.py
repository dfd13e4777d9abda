"""Repeated-measurement trajectories under entropy-conserving axis updates.

Each step measures the current axis, fixes a collapse outcome, projects the
state onto the corresponding eigenvector, and hands the solver's minimizing
axis to the next step.  Outcomes come either from sampling the Born
distribution (`outcome="born"`, seeded, reproducible) or from a deterministic
risk rule (`outcome="risk:<name>"`) evaluated at the solver's proposed axis;
deterministic trajectories are bit-identical across runs by construction.

Mode shapes the long-run behaviour: "strict" re-measures the just-collapsed
direction, so the trajectory absorbs after one step into a fixed point where
every later step is a certain no-collapse repeat; "reflective" keeps the
axis moving along mirror reflections about the evolving Bloch vector.

Born sampling uses numpy's PCG64 generator (see `RNG_NAME`): outcome +1 is
taken when one uniform draw per step falls below the up probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .entropy import _check_base, _s_up_vectors, binary_entropy
from .risk import RiskContext, RiskFunction, get_risk, select_outcome
from .solver import (
    MODES,
    NoCollapseError,
    _candidate_pair,
    _canonical,
    _check_eigen_tol,
    _collapse_frame,
)
from .spin import (
    DEFAULT_ATOL,
    Axis,
    PureState,
    born_up,
    state_from_eigenvector,
    unit_vector,
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


def _parse_outcome(outcome: str) -> tuple[str, RiskFunction | None]:
    if not isinstance(outcome, str):
        raise ValueError(f"outcome must be a string, got {outcome!r}")
    if outcome == "born":
        return "born", None
    if outcome.startswith("risk:"):
        return "risk", get_risk(outcome[len("risk:") :])
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
    outcomes ignore the seed.  `entropy_base` only rescales reported
    entropies -- it never changes which axes are chosen.
    """

    steps: int
    mode: str = "strict"
    outcome: str = "risk:born-surprise"
    seed: int | None = None
    entropy_base: float = math.e
    eigen_tol: float = DEFAULT_ATOL
    # ("born", None) or ("risk", rule): `outcome` parsed once, on construction
    _parsed_outcome: tuple[str, RiskFunction | None] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # bool is an int subclass, but steps=True is a mistake, not 1 step
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "_parsed_outcome", _parse_outcome(self.outcome))
        if self._parsed_outcome[0] == "born" and self.seed is None:
            raise ValueError("outcome 'born' requires a seed for reproducibility")
        _check_base(self.entropy_base)
        _check_eigen_tol(self.eigen_tol)


@dataclass(frozen=True)
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
    frame once; its next axis is `solve(...).minimizers[0]` and its
    `s_up_next` is `s_up(axis_i, axis_next)`, bit for bit.
    """
    kind, risk = config._parsed_outcome
    if kind == "born" and rng is None:
        raise ValueError("born outcome sampling requires an rng; see make_rng()")

    base = config.entropy_base
    p = born_up(state, axis_i)
    entropy_before = binary_entropy(p, base)
    try:
        _p, m, n_i, cosb = _collapse_frame(state, axis_i, config.eigen_tol, p)
    except NoCollapseError:
        s = 1 if p >= 0.5 else -1
        return TrajectoryStep(
            index, state, axis_i, p, s, state, axis_i, entropy_before, 0.0, True
        )

    axis_next = min(_candidate_pair(axis_i, m, n_i, cosb, config.mode), key=_canonical)
    if kind == "born":
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
        entropy_before,
        _s_up_vectors(n_i, unit_vector(axis_next), base),
        False,
    )


def simulate(
    initial_state: PureState, initial_axis: Axis, config: SimConfig
) -> list[TrajectoryStep]:
    """Run `config.steps` measurements, threading state and axis through."""
    rng = make_rng(config.seed) if config._parsed_outcome[0] == "born" else None
    state, axis = initial_state, initial_axis
    steps: list[TrajectoryStep] = []
    for k in range(config.steps):
        ts = step(state, axis, config, rng, index=k)
        steps.append(ts)
        state, axis = ts.state_after, ts.axis_next
    return steps
