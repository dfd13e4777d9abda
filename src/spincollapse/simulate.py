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
`simulate` its whole run.  It reads the config once per run.  Its first
loop writes one step out, with no call per formula: the Born probability
p, the Bloch vector m, cos(beta) = n_i . m and the eigenstate weights
cos^2(theta/2) and sin^2(theta/2) of `spin._born_frame`, the no-collapse
test of `solver._collapse_frame`, the collapsed state of
`state_from_eigenvector`, the next axis's unit vector of `spin._unit_xyz`
and the entropies of `binary_entropy` and `s_up`, each in the operation
order of the route it repeats, so that every float of `step` is that
route's, bit for bit (`TestStepPinnedToSolve`).  The merged-circle test and
the mirror are the calls `solver._merged` and `solver._mirror`, which
`solve` makes too, and the mirror's angles come from `spin._xyz_angles`.
That loop writes the first record of every run and every record of a
strict run, which hands on the axis it measured.

A reflective collapse moves m to s n_i and n_i to the mirror, so a
reflective run stays in the plane of its first m and n_i.  From its second
record on, `_walk` carries m and n_i as unit 2-vectors in a basis of that
plane built once, and each step takes cos(beta) as a 2-D dot, the
merged-circle test of `solver._merged`, the mirror in the plane, one lift
of it to 3-D for the record's `Axis`, whose angles `spin._xyz_angles`
gives, the half-angle weight of the collapsed state for the outcome taken
only, and one entropy: the next cos(beta) is s (n_i . r), so one step's s_up_next is
the next step's s_i.  These records round otherwise than a chain of `step`
calls, within the shadowing bound of `scripts/exact_replay.py`
(`TestSimulateIsChainedStep`).  A risk step takes its outcome from the
closed form of its rule in `risk._OUTCOMES`, fed the p, m and next unit
vector it holds.  The base and the eigenstate tolerance are checked where
they come in, by `SimConfig`, and not again per step.  The first
no-collapse step ends the run: it repeats under every remaining index.

Born sampling uses numpy's PCG64 generator (see `RNG_NAME`): outcome +1 is
taken when one uniform draw per collapsing step falls below the up
probability.  `step` draws it from the caller's generator; `simulate` owns
its generator and draws one uniform per step of the run in one array,
whose leading draws are the same stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import solver as _solver
from .entropy import _binary_entropy, _check_base
from .risk import _OUTCOMES
from .solver import _check_eigen_tol, _check_mode
from .spin import DEFAULT_ATOL, TWO_PI, Axis, PureState, _integer, _xyz_angles, antipode

__all__ = [
    "RNG_NAME",
    "SimConfig",
    "TrajectoryStep",
    "make_rng",
    "simulate",
    "step",
]

RNG_NAME = "numpy.random.PCG64"

# module aliases for the arithmetic `_walk` writes out, as `entropy._log`
_sqrt, _sin, _cos, _log, _PI = math.sqrt, math.sin, math.cos, math.log, math.pi
_hypot, _chain = math.hypot, itertools.chain


def _parse_outcome(outcome: str) -> str | None:
    """The name of the risk rule `outcome` names, or None for Born sampling."""
    if not isinstance(outcome, str):
        raise ValueError(f"outcome must be a string, got {outcome!r}")
    if outcome == "born":
        return None
    if outcome.startswith("risk:"):
        name = outcome[len("risk:") :]
        if name not in _OUTCOMES:
            known = ", ".join(_OUTCOMES)
            raise ValueError(f"unknown risk function {name!r}; builtins are: {known}")
        return name
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
    # the risk rule's name, None for Born sampling: `outcome` parsed once, on
    # construction
    _risk: str | None = field(init=False, repr=False, compare=False)

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

    The first record and every record of a strict run come from one loop
    whose body is a collapsing step written out: each line repeats,
    operation for operation, the formula of a public route, so that every
    float is bit for bit the route's (`TestStepPinnedToSolve`):
    - p, m and the eigenstate weights c2 and s2 repeat `spin._born_frame`,
      whose p is `born_up` and whose c2 and s2 are the rho of
      `state_from_eigenvector`; the sin(theta) it takes is the one of n_i;
    - the no-collapse test repeats `solver._collapse_frame`, with cos(beta)
      = n_i . m summed as `spin._dot3` does;
    - the next axis is `solve`'s minimizer along n_i or along the mirror,
      from the calls `solve` makes too: `solver._merged` tells the merged
      great circle, where the mirror is -n_i, `solver._mirror` builds the
      mirror (both called through their module, where a test can plant a
      fault in both routes at once; the plane loop below calls
      `solver._merged` too, but builds its mirror itself) and
      `spin._xyz_angles` gives its angles; the unit vector of the next axis
      repeats `spin._unit_xyz`;
    - `state_after` repeats `state_from_eigenvector`;
    - s_i repeats `binary_entropy(p)` and s_up_next `s_up(axis_i,
      axis_next)`: `entropy._binary_entropy`, whose range check a
      probability in [0, 1] passes, and `entropy._dot_entropy`;
    - a risk outcome is the closed form `risk._OUTCOMES` holds for the
      rule, called with p, m and the next unit vector.
    A strict step hands on the axis it measured, with its unit vector.

    From its second record on, a reflective run is carried in its own
    plane.  A collapse moves m to s n_i and n_i to the mirror r = 2 (n_i .
    m) m - n_i, so every later state and axis lies in the plane of m_0 and
    n_0; with e1 = n_0 and e2 the part of m_0 normal to it, built once, m
    and n_i are unit 2-vectors there, and a step is:
    - cos(beta) = n_i . m and p = (1 + cos(beta))/2, with the eigenstate
      test of the first loop; `solver._merged` on cos(beta), where the
      mirror is -n_i;
    - the mirror 2 cos(beta) m - n_i, made unit by its `hypot`, and lifted
      to 3-D once, as e1 r_1 + e2 r_2, for the record's `Axis`, whose
      angles `spin._xyz_angles` gives;
    - the collapsed state: `state_from_eigenvector`'s half-angle weight of
      the measured axis, for the outcome taken only;
    - the next state s n_i, and the next cos(beta) = s (n_i . r), whose
      absolute value gives both this step's s_up_next and the next step's
      s_i: one entropy a step, computed from |cos(beta)|;
    - a risk outcome from the closed form, fed the lifted m and mirror.
    No rounding then moves the plane, and no state is read back from its
    (rho, tau), which near +z holds its direction only to about 2e-16 / d
    rad.

    `_check_step_against_routes` in `tests/test_sim.py` pins the first
    record to those routes by `float.hex`, and a risk step's s to the
    generic minimize-the-risk selection of `tests/helpers.py`;
    `TestSimulateIsChainedStep` holds the plane records to a chain of
    `step` calls within the shadowing bound of `scripts/exact_replay.py`;
    `TestRiskOutcomePinned` pins the s of every record of risk runs, off
    ties, to that selection, and `TestClosedFormOutcomes` each closed form
    at the edges of a tie; `TestStepDoesEachThingOnce` counts the `math`
    calls of both loops and checks that none of the routes is called;
    `TestReflectivePlane` bounds the lift off the first plane.

    A no-collapse step hands its own state and axis on, draws nothing and
    picks no risk outcome, so every later step repeats it: its record is
    written under its own index and under each remaining one, and the run
    ends.  `draw()` gives one uniform per collapsing step of a Born run; a
    risk run never calls it.
    """
    base, eigen_tol = config.entropy_base, config.eigen_tol
    pick = None if config._risk is None else _OUTCOMES[config._risk]
    reflective = config.mode == "reflective"
    # h / 1.0 is h: one division stands for `_binary_entropy`'s base test
    log_base = 1.0 if base == math.e else _log(base)
    theta, phi = axis_i.theta, axis_i.phi
    st = _sin(theta)
    nx, ny, nz = st * _cos(phi), st * _sin(phi), _cos(theta)
    records = []
    indices = iter(indices)
    for index in indices:
        rho, tau = state.rho, state.tau
        q = _sqrt(rho * (1.0 - rho))
        half = 0.5 * theta
        c2 = _cos(half) ** 2
        s2 = _sin(half) ** 2
        p = rho * c2 + (1.0 - rho) * s2 + q * st * _cos(phi - tau)
        if not 0.0 < p < 1.0:
            p = 1.0 if p >= 1.0 else 0.0
        r = 2.0 * q
        m = r * _cos(tau), r * _sin(tau), 2.0 * rho - 1.0
        mx, my, mz = m
        cosb = nx * mx + ny * my + nz * mz
        p_down = 1.0 - p
        if p <= eigen_tol or p_down <= eigen_tol or not -1.0 < cosb < 1.0:
            s = 1 if p >= 0.5 else -1
            s_i = _binary_entropy(p, base)
            records += [TrajectoryStep(j, state, axis_i, p, s, state, axis_i, s_i, 0.0, True)
                        for j in (index, *indices)]
            return records
        if reflective:
            if _solver._merged(cosb):
                axis_next = antipode(axis_i)
            else:
                axis_next = Axis(*_xyz_angles(*_solver._mirror(m, (nx, ny, nz), cosb)))
            theta_n, phi_n = axis_next.theta, axis_next.phi
            st_n = _sin(theta_n)
            nx_n, ny_n, nz_n = st_n * _cos(phi_n), st_n * _sin(phi_n), _cos(theta_n)
        else:
            axis_next, nx_n, ny_n, nz_n = axis_i, nx, ny, nz
        if pick is None:
            s = 1 if draw() < p else -1
        else:
            s = pick(p, m, nx_n, ny_n, nz_n)
        if s == 1:
            state_after = PureState(c2, phi)
        else:
            tau = phi + _PI
            if tau >= TWO_PI:
                tau -= TWO_PI  # exact (Sterbenz): the bits of `%`
            state_after = PureState(s2, tau)
        hi = p if p >= p_down else p_down
        s_i = 0.0
        if hi < 1.0:
            lo = 1.0 - hi
            s_i = (-lo * _log(lo) - hi * _log(hi)) / log_base
        d = nx * nx_n + ny * ny_n + nz * nz_n
        p_next = 0.5 * (1.0 + d)
        s_up_next = 0.0
        if 0.0 < p_next < 1.0:
            p_next_down = 1.0 - p_next
            hi = p_next if p_next >= p_next_down else p_next_down
            if hi < 1.0:
                lo = 1.0 - hi
                s_up_next = (-lo * _log(lo) - hi * _log(hi)) / log_base
        records.append(TrajectoryStep(index, state, axis_i, p, s, state_after, axis_next,
                                      s_i, s_up_next, False))
        state, axis_i = state_after, axis_next
        if reflective:
            break
    else:
        return records
    index = next(indices, None)
    if index is None:
        return records
    # the plane of the run: e1 = n_0, and e2 = m_0 with its e1 part taken
    # out and made unit, twice, so that e2 . e1 is rounding alone however
    # close m_0 is to +-n_0.  n_1 = 2 cos(beta) m_0 - n_0 would give the same
    # plane, but near the merged circle it is nearly -n_0, and its rounding
    # would tilt e2 by about 2**-53 / |sin(2 beta)|.  Where m_0 is parallel to
    # n_0 at float resolution, e2 is left 0: n_1 is (+-1, 0) in the plane,
    # the first plane step reads cos(beta) = +-1 and absorbs, and e2 is never
    # read.
    e1x, e1y, e1z = nx, ny, nz
    e2x, e2y, e2z = mx, my, mz
    for _ in range(2):
        k = e2x * e1x + e2y * e1y + e2z * e1z
        e2x, e2y, e2z = e2x - k * e1x, e2y - k * e1y, e2z - k * e1z
        w = _hypot(e2x, e2y, e2z)
        if w == 0.0:
            break
        e2x, e2y, e2z = e2x / w, e2y / w, e2z / w
    # n_1 and m_1 = s n_0 in the plane
    n1, n2 = d, nx_n * e2x + ny_n * e2y + nz_n * e2z
    h = _hypot(n1, n2)
    n1, n2 = n1 / h, n2 / h
    m1, m2 = float(s), 0.0
    c = m1 * n1
    theta, phi = axis_i.theta, axis_i.phi
    hi = 0.5 * (1.0 + (c if c >= 0.0 else -c))
    s_i = 0.0
    if hi < 1.0:
        lo = 1.0 - hi
        s_i = (-lo * _log(lo) - hi * _log(hi)) / log_base
    for index in _chain((index,), indices):
        p = 0.5 * (1.0 + c)
        p_down = 1.0 - p
        if p <= eigen_tol or p_down <= eigen_tol or not -1.0 < c < 1.0:
            if not 0.0 < p < 1.0:
                p = 1.0 if p >= 1.0 else 0.0
            s = 1 if p >= 0.5 else -1
            s_i = _binary_entropy(p, base)
            records += [TrajectoryStep(j, state, axis_i, p, s, state, axis_i, s_i, 0.0, True)
                        for j in (index, *indices)]
            return records
        if _solver._merged(c):
            r1, r2 = -n1, -n2
        else:
            r1, r2 = 2.0 * c * m1 - n1, 2.0 * c * m2 - n2
            h = _hypot(r1, r2)
            r1, r2 = r1 / h, r2 / h
        x = r1 * e1x + r2 * e2x
        y = r1 * e1y + r2 * e2y
        z = r1 * e1z + r2 * e2z
        theta_n, phi_n = _xyz_angles(x, y, z)
        axis_next = Axis(theta_n, phi_n)
        if pick is None:
            s = 1 if draw() < p else -1
        else:
            s = pick(p, (m1 * e1x + m2 * e2x, m1 * e1y + m2 * e2y, m1 * e1z + m2 * e2z),
                     x, y, z)
        if s == 1:
            state_after = PureState(_cos(0.5 * theta) ** 2, phi)
        else:
            tau = phi + _PI
            if tau >= TWO_PI:
                tau -= TWO_PI  # exact (Sterbenz): the bits of `%`
            state_after = PureState(_sin(0.5 * theta) ** 2, tau)
        # n_i . r, and s times it the next cos(beta)
        d = n1 * r1 + n2 * r2
        hi = 0.5 * (1.0 + (d if d >= 0.0 else -d))
        s_up_next = 0.0
        if hi < 1.0:
            lo = 1.0 - hi
            s_up_next = (-lo * _log(lo) - hi * _log(hi)) / log_base
        records.append(TrajectoryStep(index, state, axis_i, p, s, state_after, axis_next,
                                      s_i, s_up_next, False))
        state, axis_i, theta, phi = state_after, axis_next, theta_n, phi_n
        if s == 1:
            m1, m2, c = n1, n2, d
        else:
            m1, m2, c = -n1, -n2, -d
        n1, n2, s_i = r1, r2, s_up_next
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

    One `_walk` builds the whole run.  Its first record is that of `step`,
    and a strict run is a chain of `step` calls sharing one
    `make_rng(config.seed)`; a reflective run carries its later records in
    its plane, within rounding of that chain.  A Born run draws its
    `config.steps` uniforms at once and reads them in order, one per
    collapsing step, as Python floats.
    """
    draw = None
    if config._risk is None:
        draw = iter(memoryview(make_rng(config.seed).random(config.steps))).__next__
    return _walk(initial_state, initial_axis, config, range(config.steps), draw)
