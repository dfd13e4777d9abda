"""Spin-1/2 measurement geometry: axes, pure states, eigenspinors, Born weights.

Conventions
-----------
A measurement axis is a point on the unit sphere with colatitude ``theta`` in
[0, pi] and azimuth ``phi`` in [0, 2*pi); its unit vector is
``(sin(theta)*cos(phi), sin(theta)*sin(phi), cos(theta))``.  At the poles the
azimuth carries no information and is canonicalized to 0.

The spin projection along an axis is the Hermitian matrix

    [[cos(theta),              sin(theta)*exp(-i*phi)],
     [sin(theta)*exp(+i*phi), -cos(theta)            ]]

with eigenvalues +1 and -1 and phase-fixed eigenvectors

    up   = ( cos(theta/2)*exp(-i*phi), sin(theta/2) )
    down = (-sin(theta/2)*exp(-i*phi), cos(theta/2) )

Pure states are stored gauge-fixed as ``(sqrt(rho)*exp(-i*tau), sqrt(1-rho))``
with ``rho`` in [0, 1] and ``tau`` in [0, 2*pi): the second amplitude is real
and non-negative, and when either amplitude vanishes the other is made real
positive, so ``tau`` is 0 whenever ``rho`` is 0 or 1.  The Bloch vector of a
state is

    ( 2*sqrt(rho*(1-rho))*cos(tau), 2*sqrt(rho*(1-rho))*sin(tau), 2*rho - 1 )

and the probability of the +1 outcome along an axis with unit vector ``n`` is
``(1 + n . bloch) / 2``.

Everything here is an immutable value or a pure function.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "Axis",
    "PureState",
    "Spinor",
    "amplitudes",
    "antipode",
    "axis_from_vector",
    "bloch_vector",
    "born_up",
    "eigenpair",
    "overlap",
    "spin_operator",
    "state_from_amplitudes",
    "state_from_bloch",
    "state_from_eigenvector",
    "unit_vector",
]

TWO_PI = 2.0 * math.pi

# Absolute tolerance for O(1) double-precision quantities.
DEFAULT_ATOL = 1e-12

# Below this transverse radius (relative to the vector norm) a direction is
# indistinguishable from a pole at DEFAULT_ATOL and is snapped onto it.
_POLE_SNAP = 1e-13

# `_raw_parts` rescales an amplitude pair or a 3-vector whose largest part
# lies outside [_TINY, _HUGE).  Inside it the norm is normal, and the norm
# of four parts each under 2**1022 is under 2**1023, so it cannot overflow.
_TINY = 2.0**-1022  # the smallest normal float
_HUGE = 2.0**1022


def _integer(k) -> int | None:
    """k as a plain int, where k is an int or anything `operator.index`
    takes (a numpy integer); None for anything else.  A bool is not an
    integer argument: True as a count, a seed or an outcome is a mistake,
    not 1 (numpy's bool has no `__index__`)."""
    if type(k) is int:
        return k
    if isinstance(k, bool):
        return None
    try:
        return operator.index(k)
    except TypeError:
        return None


def _raw_parts(parts: list[float], nonfinite: str, zero: str) -> list[float]:
    """The float parts of a raw 3-vector or amplitude pair, pointing the
    same way; raises ValueError(nonfinite) if a part is inf or NaN, and
    ValueError(zero) if every part is zero.

    Where the largest |part| lies outside [_TINY, _HUGE), all parts are
    first scaled by one exact power of two: past DBL_MAX the length would
    overflow to inf, and below the smallest normal float it would round to
    a multiple of the smallest subnormal.  Inside that range the parts are
    returned as given.
    """
    if not all(map(math.isfinite, parts)):
        raise ValueError(nonfinite)
    big = max(map(abs, parts))
    if big == 0.0:
        raise ValueError(zero)
    if _TINY <= big < _HUGE:
        return parts
    k = -math.frexp(big)[1]  # brings the largest part into [1/2, 1)
    return [math.ldexp(c, k) for c in parts]


def _reduce_angles(theta: float, phi: float) -> tuple[float, float]:
    """Range-reduce a raw (theta, phi) pair without moving its direction."""
    if theta < 0.0:
        theta, phi = -theta, phi + math.pi
    theta %= TWO_PI
    if theta > math.pi:
        theta = TWO_PI - theta
        phi += math.pi
    phi %= TWO_PI
    if phi >= TWO_PI:
        phi = 0.0
    if theta == 0.0 or theta == math.pi:
        phi = 0.0
    return theta + 0.0, phi + 0.0  # normalize -0.0


# Axis and PureState write their own __init__ (init=False): it validates and
# canonicalizes, then sets each field once, where a generated __init__ plus
# __post_init__ would set every field twice.  Each stores two plain floats
# strictly inside its canonical region as they are: Axis in 0 < theta < pi,
# 0 < phi < 2*pi, PureState in 0 < rho < 1, 0 < tau < 2*pi, where the full
# route returns them bit for bit.  The solver's axes and a step's collapsed
# states land there.  Other types take the full route: a Fraction just inside
# the region can round onto its edge.
@dataclass(frozen=True, init=False)
class Axis:
    """A direction on the unit sphere, canonicalized on construction.

    Any finite angle pair is accepted; equivalent parametrizations of one
    direction reduce to the same canonical representative, so downstream code
    only ever sees theta in [0, pi] and phi in [0, 2*pi).
    """

    theta: float
    phi: float

    def __init__(self, theta: float, phi: float) -> None:
        if not (type(theta) is float and type(phi) is float
                and 0.0 < theta < math.pi and 0.0 < phi < TWO_PI):
            # float() first, as `PureState` does: a numeric string is taken,
            # and None or a complex raise float()'s TypeError naming the type
            t, p = float(theta), float(phi)
            if not (math.isfinite(t) and math.isfinite(p)):
                raise ValueError(f"axis angles must be finite, got ({theta!r}, {phi!r})")
            theta, phi = _reduce_angles(t, p)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


def antipode(axis: Axis) -> Axis:
    """The opposite direction."""
    return Axis(math.pi - axis.theta, axis.phi + math.pi)


def unit_vector(axis: Axis) -> np.ndarray:
    """Cartesian unit vector of an axis."""
    return np.array(_unit_xyz(axis))


def _unit_xyz(axis: Axis) -> tuple[float, float, float]:
    """`unit_vector` as a float triple, for the scalar path."""
    st = math.sin(axis.theta)
    return st * math.cos(axis.phi), st * math.sin(axis.phi), math.cos(axis.theta)


def _dot3(u, v) -> float:
    """u . v of two 3-vectors as the plain left-to-right float sum.

    The one dot product of the scalar path: unlike `np.dot`, whose 3-vector
    kernel (and so its rounding) depends on the BLAS build, it rounds the
    same way everywhere.
    """
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _floats3(vec) -> list[float]:
    """A 3-vector argument as three floats pointing the same way, rescaled
    by `_raw_parts` where needed.  Raises ValueError unless they are finite
    and not all zero, which `_xyz_angles` and `state_from_bloch` take as
    given."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return _raw_parts(v.tolist(), "vector components must be finite",
                      "cannot orient a zero vector")


def axis_from_vector(vec) -> Axis:
    """Axis pointing along a nonzero 3-vector (any positive length)."""
    return Axis(*_xyz_angles(*_floats3(vec)))


def _xyz_angles(x: float, y: float, z: float) -> tuple[float, float]:
    """The canonical (theta, phi) of `axis_from_vector` on three floats,
    without the array round trip; `Axis` leaves them bitwise unchanged.

    The parts must be finite and not all zero, and small enough for their
    length not to overflow, as those of `_floats3` and of a step's mirror
    (a unit vector) are; they are not checked again.  Off the poles
    theta = atan2(r_xy, z) lies strictly inside (0, pi), and
    phi = atan2(y, x) in [-pi, pi] needs only a 2*pi added when negative
    (2*pi itself reads 0.0), and -0.0 made 0.0: `_reduce_angles` returns
    the same bits, since its float `%` is exact for |phi| < 2*pi.
    """
    r_xy = math.hypot(x, y)
    norm = math.hypot(r_xy, z)
    if r_xy <= _POLE_SNAP * norm:
        return (0.0 if z > 0.0 else math.pi), 0.0
    phi = math.atan2(y, x)
    if phi < 0.0:
        phi += TWO_PI
        if phi == TWO_PI:
            phi = 0.0
    return math.atan2(r_xy, z), phi + 0.0


def spin_operator(axis: Axis) -> np.ndarray:
    """2x2 Hermitian projection operator along the axis."""
    ct, st = math.cos(axis.theta), math.sin(axis.theta)
    ph = cmath.exp(1.0j * axis.phi)
    return np.array([[ct, st / ph], [st * ph, -ct]], dtype=complex)


@dataclass(frozen=True)
class Spinor:
    """A two-component complex amplitude pair of unit norm."""

    up: complex
    down: complex

    def __post_init__(self) -> None:
        up, down = complex(self.up), complex(self.down)
        norm2 = abs(up) ** 2 + abs(down) ** 2
        if not math.isfinite(norm2):
            raise ValueError("spinor components must be finite")
        if abs(norm2 - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"spinor is not normalized: |up|^2+|down|^2 = {norm2!r}")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    def as_array(self) -> np.ndarray:
        return np.array([self.up, self.down], dtype=complex)


def eigenpair(axis: Axis) -> tuple[Spinor, Spinor]:
    """Phase-fixed (+1, -1) eigenvectors of `spin_operator(axis)`."""
    half = 0.5 * axis.theta
    c, s = math.cos(half), math.sin(half)
    ph = cmath.exp(-1.0j * axis.phi)
    return Spinor(c * ph, s), Spinor(-s * ph, c)


def overlap(bra: Spinor, ket: Spinor) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument."""
    return bra.up.conjugate() * ket.up + bra.down.conjugate() * ket.down


@dataclass(frozen=True, init=False)
class PureState:
    """Gauge-fixed pure state (sqrt(rho) e^{-i tau}, sqrt(1-rho))."""

    rho: float
    tau: float

    def __init__(self, rho: float, tau: float) -> None:
        if not (type(rho) is float and type(tau) is float
                and 0.0 < rho < 1.0 and 0.0 < tau < TWO_PI):
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
                tau = 0.0  # phase is pure gauge when one amplitude vanishes
            rho, tau = rho + 0.0, tau + 0.0
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tau", tau)


def amplitudes(state: PureState) -> Spinor:
    """Spinor components of the state in its canonical gauge."""
    return Spinor(math.sqrt(state.rho) * cmath.exp(-1.0j * state.tau), math.sqrt(1.0 - state.rho))


def _born_frame(state: PureState, axis: Axis):
    """What one measurement of `state` along `axis` reads, each number
    computed once: the Born weight p of the +1 outcome, the Bloch vector m,
    and the eigenstate weights c2 = cos^2(theta/2) and s2 = sin^2(theta/2),
    the rho of the +1 and -1 eigenstates of the axis.  Returns
    (p, m, c2, s2).

    q = sqrt(rho (1 - rho)) gives both the cross term of p and the length
    2q of m's transverse part, and the half-angle trig both the diagonal
    terms of p and the two weights.  m does not depend on the axis, nor c2
    and s2 on the state.
    """
    rho, tau = state.rho, state.tau
    q = math.sqrt(rho * (1.0 - rho))
    theta = axis.theta
    half = 0.5 * theta
    c2 = math.cos(half) ** 2
    s2 = math.sin(half) ** 2
    p = rho * c2 + (1.0 - rho) * s2 + q * math.sin(theta) * math.cos(axis.phi - tau)
    # min(1.0, max(0.0, p)) by comparison: NaN and -0.0 give 0.0
    if not 0.0 < p < 1.0:
        p = 1.0 if p >= 1.0 else 0.0
    r = 2.0 * q
    return p, (r * math.cos(tau), r * math.sin(tau), 2.0 * rho - 1.0), c2, s2


def born_up(state: PureState, axis: Axis) -> float:
    """Probability of the +1 outcome when measuring the state along the
    axis: the p of `_born_frame`."""
    return _born_frame(state, axis)[0]


def bloch_vector(state: PureState) -> np.ndarray:
    """Expectation values of the three spin projections."""
    return np.array(_bloch_xyz(state))


_Z = Axis(0.0, 0.0)


def _bloch_xyz(state: PureState) -> tuple[float, float, float]:
    """`bloch_vector` as a float triple, for the scalar path: the m of
    `_born_frame`, which does not depend on the axis, so any one will do."""
    return _born_frame(state, _Z)[1]


def _outcome(s) -> int:
    """The outcome s as the plain int +1 or -1 (`_integer`); raises
    ValueError for anything else."""
    k = _integer(s)
    if k != 1 and k != -1:
        raise ValueError(f"outcome must be +1 or -1, got {s!r}")
    return k


_UP_Z = PureState(1.0, 0.0)


def state_from_eigenvector(axis: Axis, s: int) -> PureState:
    """Post-measurement state: the s = +1 or s = -1 eigenstate of the axis."""
    s = _outcome(s)
    # the weights do not depend on the state: any one will do
    _p, _m, c2, s2 = _born_frame(_UP_Z, axis)
    return _eigenstate(axis, s, c2, s2)


def _eigenstate(axis: Axis, s: int, c2: float, s2: float) -> PureState:
    """The s eigenstate of the axis from its weights c2 and s2
    (`_born_frame`).  The -1 state's phi + pi lies in [pi, 3*pi) and is
    reduced here: subtracting 2*pi is exact (Sterbenz), the bits of `%`."""
    if s == 1:
        return PureState(c2, axis.phi)
    tau = axis.phi + math.pi
    if tau >= TWO_PI:
        tau -= TWO_PI
    return PureState(s2, tau)


def state_from_amplitudes(up: complex, down: complex) -> PureState:
    """Gauge-fix a raw amplitude pair into canonical (rho, tau) form.

    The pair is normalized first, so any nonzero amplitude scale is accepted.
    Where the norm would overflow or be subnormal, the pair is first scaled
    into the normal range by an exact power of two.
    """
    up, down = complex(up), complex(down)
    ur, ui, dr, di = _raw_parts([up.real, up.imag, down.real, down.imag],
                                "amplitudes must be finite", "amplitude pair has zero norm")
    up, down = complex(ur, ui), complex(dr, di)
    norm = math.hypot(abs(up), abs(down))
    up, down = up / norm, down / norm
    mag_down = abs(down)
    if mag_down == 0.0:
        return PureState(1.0, 0.0)
    if mag_down < _TINY:  # a subnormal |down| is inexact: scale down by 2**k first
        k = -math.frexp(mag_down)[1]
        down = complex(math.ldexp(down.real, k), math.ldexp(down.imag, k))
        mag_down = abs(down)
    up *= down.conjugate() / mag_down  # rotate the global phase: down becomes real >= 0
    # |up|**2 exceeds 1 by at most a few ulps, which `PureState` clamps
    return PureState(abs(up) ** 2, -cmath.phase(up))


def state_from_bloch(vec) -> PureState:
    """Pure state whose Bloch vector points along the given nonzero 3-vector.

    The vector is read by `_floats3`, which checks it and brings its
    largest part into the normal range by an exact power of two where it
    lies outside, and is then normalized by its correctly rounded length
    `math.hypot`, which needs no BLAS and is at least |z|: rho lies in
    [0, 1], and is 0 or 1 (so tau is 0) on the z axis.
    """
    x, y, z = _floats3(vec)
    norm = math.hypot(x, y, z)
    return PureState(0.5 * (1.0 + z / norm), math.atan2(y / norm, x / norm))
