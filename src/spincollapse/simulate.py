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

`_walk` builds every record of a run; `step` is its one-index run and
`simulate` its whole run.  It reads the config once per run and hands each
step's next axis on together with that axis's unit vector, which it has
already built for `s_up_next`, so no step recomputes the n_i of the one
before.  The eigenstate tolerance is checked where it comes in, by
`SimConfig`, and not again per step.  A step reads its per-axis numbers
once, from the collapse frame: the Born probability p, the Bloch vector m,
cos(beta) = n_i . m and the eigenstate weights cos^2(theta/2) and
sin^2(theta/2), with one square root and one half-angle cosine and sine
between them.  It collapses onto the eigenstate built from those weights,
bit for bit the state `state_from_eigenvector` builds.  The first
no-collapse step ends the loop: it repeats under every remaining index.

Born sampling uses numpy's PCG64 generator (see `RNG_NAME`): outcome +1 is
taken when one uniform draw per collapsing step falls below the up
probability.  `step` draws it from the caller's generator; `simulate` owns
its generator and draws one uniform per step of the run in one array,
whose leading draws are the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _integer,
    _unit_xyz,
    born_up,
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
    """The simulator's generator.  A Born run consumes one uniform draw per
    collapsing step, in order: `step` takes it with one `rng.random()`, and
    `simulate` reads the same stream from one `rng.random(steps)` array."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SimConfig:
    """Trajectory parameters, validated up front.

    `outcome="born"` requires a `seed` so every run is replayable; risk
    outcomes ignore the seed, which must still be None or a non-negative
    integer; both are stored as plain ints (`_integer`).  `entropy_base`
    only rescales reported entropies -- it never changes which axes are
    chosen.
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
        steps, seed = _integer(self.steps), _integer(self.seed)
        if steps is None or steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        _check_mode(self.mode)
        # checked even where the outcome rule ignores it
        if self.seed is not None and (seed is None or seed < 0):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "seed", seed)
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


def _walk(
    state: PureState, axis_i: Axis, config: SimConfig, indices, draw
) -> list[TrajectoryStep]:
    """Every record of a run: one per index of `indices`, in order.

    Each step hands the unit vector it builds for `s_up_next` on as the
    next step's n_i, so only the first one is built from its axis.  A
    no-collapse step hands its own state and axis on, draws nothing and
    calls no risk rule, so every later step repeats it: its record is
    written under its own index and under each remaining one, and the loop
    ends.  `draw()` gives one uniform per collapsing step of a Born run; a
    risk rule never calls it.
    """
    risk, base, mode = config._risk, config.entropy_base, config.mode
    eigen_tol = config.eigen_tol  # SimConfig checked it, and the base
    n_i = _unit_xyz(axis_i)
    records = []
    indices = iter(indices)
    for index in indices:
        try:
            p, m, cosb, c2, s2 = _collapse_frame(state, axis_i, n_i, eigen_tol)
        except NoCollapseError:
            p = born_up(state, axis_i)
            s = 1 if p >= 0.5 else -1
            s_i = _binary_entropy(p, base)
            records += [TrajectoryStep(j, state, axis_i, p, s, state, axis_i, s_i, 0.0, True)
                        for j in (index, *indices)]
            return records
        axis_next = _next_axis(axis_i, m, n_i, cosb, mode)
        if risk is None:
            s = 1 if draw() < p else -1
        else:
            s, _ = select_outcome(risk, axis_next, RiskContext(state, axis_i))
        # the s eigenstate of axis_i, as `state_from_eigenvector` builds it
        if s == 1:
            state_after = PureState(c2, axis_i.phi)
        else:
            state_after = PureState(s2, axis_i.phi + math.pi)
        n_next = _unit_xyz(axis_next)
        records.append(TrajectoryStep(
            index, state, axis_i, p, s, state_after, axis_next,
            _binary_entropy(p, base), _dot_entropy(_dot3(n_i, n_next), base), False,
        ))
        state, axis_i, n_i = state_after, axis_next, n_next
    return records


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
    `s_up(axis_i, axis_next)`.  A collapsing Born step takes one
    `rng.random()` draw; any other step leaves `rng` as it is.
    """
    k = _integer(index)  # as `SimConfig.steps` is read
    if k is None or k < 0:
        raise ValueError(f"index must be a non-negative integer, got {index!r}")
    if config._risk is None and rng is None:
        raise ValueError("born outcome sampling requires an rng; see make_rng()")
    draw = None if rng is None else rng.random
    return _walk(state, axis_i, config, (k,), draw)[0]


def simulate(
    initial_state: PureState, initial_axis: Axis, config: SimConfig
) -> list[TrajectoryStep]:
    """Run `config.steps` measurements, threading state and axis through.

    The records are those of a chain of `step` calls sharing one
    `make_rng(config.seed)`, built by one `_walk` over the whole run.  A
    Born run draws its `config.steps` uniforms at once and reads them in
    order, one per collapsing step, as Python floats.
    """
    draw = None
    if config._risk is None:
        draw = iter(memoryview(make_rng(config.seed).random(config.steps))).__next__
    return _walk(initial_state, initial_axis, config, range(config.steps), draw)
