"""Shared sampling and geometry helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from spincollapse import Axis, PureState, born_up, unit_vector


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


def angle_between(a: Axis, b: Axis) -> float:
    """Angle in [0, pi] between two directions, accurate down to ~1e-16.

    atan2 of (cross, dot) instead of acos(dot): the latter cannot resolve
    angles below ~1e-8 between nearly parallel unit vectors.
    """
    u, v = unit_vector(a), unit_vector(b)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def triple_product(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(u, np.cross(v, w)))
