"""Shared sampling and geometry helpers, test oracles and CLI runners for the
test suite."""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spincollapse import (
    Axis, PureState, binary_entropy, born_up, cli, eigenpair, overlap, unit_vector,
)
from spincollapse.solver import (
    _DESCENT_MAX_ITER, _DESCENT_TOL, _circles, _collapse_frame, _colatitude,
)
from spincollapse.spin import _POLE_SNAP, DEFAULT_ATOL, TWO_PI, _reduce_angles, _unit_xyz


class CliRun(NamedTuple):
    """What one in-process CLI call did: its exit code, its stdout bytes, its
    stderr text, and the exception it raised past `main` (exit code 1), if any."""

    exit_code: int
    stdout: bytes
    stderr: str
    exception: Exception | None


def run_cli(argv) -> CliRun:
    """Run ``spincollapse *argv`` in this process, as `main` does without
    exiting, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, standalone_mode=False)
        except Exception as exc:
            code, exception = 1, exc
    return CliRun(code, out.getvalue().encode(), err.getvalue(), exception)


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run on `argv`, with the repository's ``src`` on
    its path and its output captured as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def uniform_axis(rng: np.random.Generator) -> Axis:
    """Area-uniform random direction (uniform cos(theta), uniform phi)."""
    z = float(rng.uniform(-1.0, 1.0))
    return Axis(math.acos(z), float(rng.uniform(0.0, 2.0 * math.pi)))


def uniform_state(rng: np.random.Generator) -> PureState:
    return PureState(
        float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi))
    )


def non_eigen_pair(
    rng: np.random.Generator, margin: float = 1e-2
) -> tuple[PureState, Axis]:
    """Random (state, axis) whose up probability stays `margin` away from {0, 1}."""
    while True:
        state, axis = uniform_state(rng), uniform_axis(rng)
        p = born_up(state, axis)
        if margin < p < 1.0 - margin:
            return state, axis


def born_up_unclamped(state, axis) -> float:
    """The closed form of `born_up` before its clamp to [0, 1]."""
    half = 0.5 * axis.theta
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    cross = math.sqrt(state.rho * (1.0 - state.rho)) * math.sin(axis.theta)
    return state.rho * c2 + (1.0 - state.rho) * s2 + cross * math.cos(axis.phi - state.tau)


def born_up_min_max(state, axis) -> float:
    """`born_up` as it was written with `min` and `max`: the oracle of its
    comparison clamp."""
    return min(1.0, max(0.0, born_up_unclamped(state, axis)))


def bloch_xyz_own(state) -> tuple[float, float, float]:
    """`_bloch_xyz` as it was written with its own square root: the oracle of
    the Bloch vector `_born_frame` gives."""
    r = 2.0 * math.sqrt(state.rho * (1.0 - state.rho))
    return r * math.cos(state.tau), r * math.sin(state.tau), 2.0 * state.rho - 1.0


def eigen_weights_own(axis) -> tuple[float, float]:
    """The rho of the +1 and -1 eigenstates of the axis, as
    `state_from_eigenvector` wrote them with its own half-angle trig: the
    oracle of the weights `_born_frame` gives."""
    half = 0.5 * axis.theta
    return math.cos(half) ** 2, math.sin(half) ** 2


def pure_state_fields(rho, tau) -> tuple[float, float]:
    """The (rho, tau) `PureState` stores, by the route every input took
    before plain floats inside 0 < rho < 1, 0 < tau < 2*pi were stored as
    given: the oracle of that fast path.  Raises as `PureState` does."""
    rho, tau = float(rho), float(tau)
    if not (math.isfinite(rho) and math.isfinite(tau)):
        raise ValueError(f"state parameters must be finite, got ({rho!r}, {tau!r})")
    if rho < 0.0 or rho > 1.0:
        if rho < -DEFAULT_ATOL or rho > 1.0 + DEFAULT_ATOL:
            raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
        rho = min(1.0, max(0.0, rho))
    tau %= TWO_PI
    if tau >= TWO_PI:
        tau = 0.0
    if rho == 0.0 or rho == 1.0:
        tau = 0.0
    return rho + 0.0, tau + 0.0


def xyz_angles_reduced(x: float, y: float, z: float) -> tuple[float, float]:
    """`_xyz_angles` as it was written, sending both `atan2` angles through
    `_reduce_angles`: the oracle of the reduction it makes itself."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("vector components must be finite")
    r_xy = math.hypot(x, y)
    norm = math.hypot(r_xy, z)
    if norm == 0.0:
        raise ValueError("cannot orient a zero vector")
    if r_xy <= _POLE_SNAP * norm:
        return (0.0 if z > 0.0 else math.pi), 0.0
    return _reduce_angles(math.atan2(r_xy, z), math.atan2(y, x))


def axis_from_vector_own_reader(vec) -> Axis:
    """`axis_from_vector` as it was written with its own array reader."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return Axis(*xyz_angles_reduced(*v.tolist()))


def state_from_bloch_clamped(vec) -> PureState:
    """`state_from_bloch` as it was written with its own array reader, a
    clamp on rho and a guard on tau: the oracle of the spelling that leaves
    both to `PureState`."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    x, y, z = v.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("vector components must be finite")
    norm = math.hypot(x, y, z)
    if norm == 0.0:
        raise ValueError("cannot orient a zero vector")
    x, y, z = x / norm, y / norm, z / norm
    rho = min(1.0, max(0.0, 0.5 * (1.0 + z)))
    tau = math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0
    return PureState(rho, tau)


def s_down_clamped(axis_i: Axis, axis_f: Axis, base: float = math.e) -> float:
    """`s_down` as it was written with a clamp on the overlap probability."""
    up_f, _ = eigenpair(axis_f)
    _, down_i = eigenpair(axis_i)
    q = abs(overlap(up_f, down_i)) ** 2
    return binary_entropy(min(1.0, max(0.0, q)), base)


def angle_between(a: Axis, b: Axis) -> float:
    """Angle in [0, pi] between two directions, accurate down to ~1e-16.

    atan2 of (cross, dot) instead of acos(dot): the latter cannot resolve
    angles below ~1e-8 between nearly parallel unit vectors.
    """
    u, v = unit_vector(a), unit_vector(b)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def triple_product(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(u, np.cross(v, w)))


def grid_unmirrored(n_theta: int, n_phi: int):
    """`solver._grid` as it was written, each sine and cosine taken of its
    own linspace angle: the oracle of the mirrored trig, which is exactly
    antipodal where this one is so only up to rounding."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return thetas, phis, (np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis))


def binary_entropy_grid_of_p(dot, base: float = math.e):
    """`solver._binary_entropy_grid` as it was written, on the clipped
    up-probability p = (1 + dot)/2 with hi = max(p, 1 - p): the oracle of
    the rule that builds hi from |dot|.  This one rounds 1 + dot and
    1 - dot apart, so it is even in dot only up to an ulp."""
    p = np.clip(0.5 * (1.0 + dot), 0.0, 1.0)
    hi = np.minimum(np.maximum(p, 1.0 - p), 1.0)
    lo = 1.0 - hi
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(lo > 0.0, -lo * np.log(lo), 0.0) - hi * np.log(hi)
    return h if base == math.e else h / math.log(base)


def landscape_table(thetas, phis, p_up, s_f, residual, s_up, delimiter) -> str:
    """The landscape table formatted row by row, every cell by its own
    `repr`: the oracle of `cli._table`, which has orjson write each row."""
    n_phi = len(phis)
    phi_cells = [repr(phi) for phi in phis.tolist()]
    blocks = [delimiter.join(
        ["theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up"]
    )]
    for theta, *row in zip(thetas.tolist(), p_up, s_f, residual, s_up):
        blocks.append("\n".join(map(delimiter.join, zip(
            [repr(theta)] * n_phi, phi_cells,
            *(map(repr, cells.tolist()) for cells in row),
        ))))
    blocks.append("")
    return "\n".join(blocks)


def azimuth_descent_to_1e_20(state, axis_i, level, psi0):
    """`azimuth_descent` as it was written, halving its Armijo step down to
    1e-20 whatever the float spacing of psi: the oracle of the stop once a
    step can no longer move psi."""
    p, _m, cosb, _c2, _s2 = _collapse_frame(state, axis_i, _unit_xyz(axis_i), DEFAULT_ATOL)
    alpha = _colatitude(_circles(p, cosb)[1], level)
    a = math.cos(alpha) * cosb
    b = math.sin(alpha) * math.sqrt(1.0 - cosb * cosb)

    def value(psi):
        return binary_entropy(min(1.0, max(0.0, 0.5 * (1.0 + a + b * math.cos(psi)))))

    def gradient(psi):
        p = 0.5 * (1.0 + a + b * math.cos(psi))
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -0.5 * b * math.sin(psi) * math.log((1.0 - p) / p)

    psi = psi0 % (2.0 * math.pi)
    v = value(psi)
    for _ in range(_DESCENT_MAX_ITER):
        g = gradient(psi)
        if abs(g) <= _DESCENT_TOL:
            break
        step = 1.0
        while step > 1e-20:
            cand = (psi - step * g) % (2.0 * math.pi)
            cv = value(cand)
            if cv <= v - 0.5 * step * g * g:
                break
            step *= 0.5
        else:
            break
        psi, v = cand, cv
    return psi, v
