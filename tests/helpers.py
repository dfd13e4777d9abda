"""Shared sampling and geometry helpers, and test oracles, for the test suite."""

from __future__ import annotations

import math

import numpy as np

from spincollapse import (
    Axis, PureState, binary_entropy, born_up, eigenpair, overlap, unit_vector,
)
from spincollapse.spin import _POLE_SNAP, _reduce_angles


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


def landscape_table(thetas, phis, p_up, s_f, residual, s_up, delimiter) -> str:
    """The landscape table formatted row by row, every cell by its own
    `repr`: the oracle of `cli._table`, which reuses antipodal and pole cells."""
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
