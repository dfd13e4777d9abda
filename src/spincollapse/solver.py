"""Entropy-constrained selection of the observer's next measurement axis.

The next axis n_f minimizes the transfer entropy

    s_up(n_i, n_f) = binary_entropy((1 + n_i . n_f) / 2)

subject to conserving the outcome entropy of the measured state:
binary_entropy(p_f) = binary_entropy(p_i), where p = (1 + n . m)/2 and m is
the Bloch vector of the pre-measurement state.

Geometry.  Binary entropy is two-to-one, so the constraint pins p_f to one of
the levels {p_i, 1 - p_i}; each level is a circle of axes at colatitude
alpha = arccos(2p - 1) about m.  Write beta = arccos(n_i . m) and measure the
circle azimuth psi from the plane spanned by m and n_i.  Then

    n_i . n_f = cos(alpha)cos(beta) + sin(alpha)sin(beta)cos(psi),

which is stationary exactly at psi = 0 and psi = pi: every constrained
critical point is in-plane.  The four critical points are n_i itself and its
antipode -n_i (objective 0, always feasible because n_i . m = 2 p_i - 1), and
the mirror pair +-(2 (n_i . m) m - n_i), the reflections of -+n_i about m,
with common objective binary_entropy((1 + cos(2 beta))/2).

Modes.  "strict" returns the global constrained minimizers, which are always
n_i and -n_i: repeating or flipping the measured axis conserves the entropy
and zeroes the objective.  "reflective" discards that degenerate pair and
returns the mirror points, the best remaining in-plane critical points.  When
p_i = 1/2 the two circles merge into one great circle and the mirrors
coincide with +-n_i; the pair is then returned as the limiting solution.

Three independent routes triangulate this module: the closed form above, a
projected descent along the circle azimuth (`azimuth_descent`), and an
exhaustive sphere scan (`brute_force_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _binary_entropy_grid, binary_entropy, s_i
from .spin import (
    DEFAULT_ATOL,
    Axis,
    PureState,
    _axis_from_xyz,
    antipode,
    axis_from_vector,
    bloch_vector,
    born_up,
    unit_vector,
)

__all__ = [
    "Extremum",
    "FeasibleSet",
    "InfeasibleGridError",
    "NoCollapseError",
    "SolverSolution",
    "azimuth_descent",
    "brute_force_oracle",
    "constraint_residual",
    "feasible_set",
    "solve",
]

MODES = ("strict", "reflective")


class NoCollapseError(Exception):
    """The state is an eigenstate of the measured projection: the outcome is
    certain, the axis cannot change, and the constrained problem degenerates."""


class InfeasibleGridError(Exception):
    """No grid point meets the entropy constraint at this resolution."""


@dataclass(frozen=True)
class Extremum:
    """One in-plane critical point, classified along its feasible circle."""

    axis: Axis
    value: float
    kind: str  # "min" | "max"


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Axes conserving the outcome entropy for one (state, axis) pair.

    Each level probability contributes a circle of axes at the paired
    colatitude about `center`, the state's Bloch vector.  `in_plane` points
    from the center toward the measured axis and, with `out_of_plane`,
    frames the azimuth used by `axis_on_circle`.
    """

    levels: tuple[float, ...]
    colatitudes: tuple[float, ...]
    center: np.ndarray
    in_plane: np.ndarray
    out_of_plane: np.ndarray

    def axis_on_circle(self, level: int, psi: float) -> Axis:
        a = self.colatitudes[level]
        v = math.cos(a) * self.center + math.sin(a) * (
            math.cos(psi) * self.in_plane + math.sin(psi) * self.out_of_plane
        )
        return axis_from_vector(v)


@dataclass(frozen=True)
class SolverSolution:
    minimizers: tuple[Axis, ...]
    objective: float
    extrema: tuple[Extremum, ...]
    no_collapse: bool
    mode: str


def constraint_residual(
    state: PureState, axis_i: Axis, axis_f: Axis, base: float = math.e
) -> float:
    """Entropy-conservation violation s_f - s_i of a candidate axis."""
    return s_i(state, axis_f, base) - s_i(state, axis_i, base)


def _collapse_probability(state: PureState, axis_i: Axis, eigen_tol: float) -> float:
    """Born probability p_i; raises NoCollapseError on eigenstates."""
    p = born_up(state, axis_i)
    if min(p, 1.0 - p) <= eigen_tol:
        raise NoCollapseError(
            f"state is an eigenstate of the measured axis (born probability {p!r})"
        )
    return p


def _collapse_frame(state: PureState, axis_i: Axis, eigen_tol: float):
    """p_i, m, n_i and cos(beta) = n_i . m; raises NoCollapseError on eigenstates.

    n_i . m stays a numpy dot: its BLAS kernel fixes the rounding, and with it
    every emitted byte downstream.
    """
    p = _collapse_probability(state, axis_i, eigen_tol)
    m = bloch_vector(state)
    n_i = unit_vector(axis_i)
    cosb = min(1.0, max(-1.0, float(np.dot(n_i, m))))
    return p, m, n_i, cosb


def _geometry(state: PureState, axis_i: Axis, eigen_tol: float):
    """`_collapse_frame` plus sin(beta) and the circle frame e1, e2 = m x e1."""
    p, m, n_i, cosb = _collapse_frame(state, axis_i, eigen_tol)
    sin2 = 1.0 - cosb * cosb
    # a Bloch vector parallel to the axis forces p into {0, 1}, which the
    # eigenstate branch above already absorbed
    assert sin2 > 0.0, "non-eigenstate with Bloch vector parallel to the axis"
    e1 = n_i - cosb * m
    e1 = e1 / np.linalg.norm(e1)
    (mx, my, mz), (ux, uy, uz) = m.tolist(), e1.tolist()
    e2 = np.array([my * uz - mz * uy, mz * ux - mx * uz, mx * uy - my * ux])
    return p, m, n_i, cosb, math.sqrt(sin2), e1, e2


def _circles(p, m, _n_i, cosb, _sinb, e1, e2) -> FeasibleSet:
    """The feasible set of one `_geometry` result."""
    beta = math.acos(cosb)
    if abs(cosb) <= DEFAULT_ATOL:  # the two levels merge into one great circle
        return FeasibleSet((p,), (beta,), m, e1, e2)
    return FeasibleSet((p, 1.0 - p), (beta, math.pi - beta), m, e1, e2)


def feasible_set(
    state: PureState, axis_i: Axis, *, eigen_tol: float = DEFAULT_ATOL
) -> FeasibleSet:
    """Level probabilities and circles of axes satisfying the constraint."""
    return _circles(*_geometry(state, axis_i, eigen_tol))


def solve(
    state: PureState,
    axis_i: Axis,
    mode: str = "strict",
    *,
    base: float = math.e,
    eigen_tol: float = DEFAULT_ATOL,
) -> SolverSolution:
    """Minimize s_up over the entropy-conserving axes, in closed form.

    Minimizers and extrema are sorted canonically (smaller theta, then
    smaller phi); reported values use the requested entropy base, which never
    changes the minimizing axes.  Eigenstate inputs collapse nothing: the
    solution is flagged `no_collapse` with the axis unchanged.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        _p, m, n_i, cosb = _collapse_frame(state, axis_i, eigen_tol)
    except NoCollapseError:
        ext = (Extremum(axis_i, 0.0, "min"),)
        return SolverSolution((axis_i,), 0.0, ext, True, mode)

    a_i, a_anti = axis_i, antipode(axis_i)
    cos2b = 2.0 * cosb * cosb - 1.0
    mirror_value = binary_entropy(min(1.0, max(0.0, 0.5 * (1.0 + cos2b))), base)
    extrema = [Extremum(a_i, 0.0, "min"), Extremum(a_anti, 0.0, "min")]

    if abs(cosb) <= DEFAULT_ATOL:
        # degenerate great circle: the mirrors coincide with the trivial pair,
        # so the four critical points collapse to two and must not be repeated
        reflective = (a_i, a_anti)
    else:
        # the mirror r = 2 cos(beta) m - n_i and -r, on floats
        c = 2.0 * cosb
        (mx, my, mz), (nx, ny, nz) = m.tolist(), n_i.tolist()
        rx, ry, rz = c * mx - nx, c * my - ny, c * mz - nz
        a_r, a_rb = _axis_from_xyz(rx, ry, rz), _axis_from_xyz(-rx, -ry, -rz)
        kind = "min" if cos2b < 0.0 else "max"
        extrema += [Extremum(a_r, mirror_value, kind), Extremum(a_rb, mirror_value, kind)]
        reflective = (a_r, a_rb)

    extrema.sort(key=lambda e: (e.axis.theta, e.axis.phi))
    if mode == "strict":
        minimizers, objective = (a_i, a_anti), 0.0
    else:
        minimizers, objective = reflective, mirror_value
    minimizers = tuple(sorted(minimizers, key=lambda a: (a.theta, a.phi)))
    return SolverSolution(minimizers, objective, tuple(extrema), False, mode)


def _entropy_grid(
    state: PureState, axis_i: Axis, n_theta: int, n_phi: int, base: float
):
    """Entropy surfaces over a (theta_f, phi_f) grid of candidate axes.

    Returns the grid coordinates, the clipped up-probability grid p_f, its
    entropy s_f, the transfer entropy s_up and n_i . n_f (for exclusions).
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    st, ct = np.sin(thetas)[:, None], np.cos(thetas)[:, None]
    cp, sp = np.cos(phis)[None, :], np.sin(phis)[None, :]
    m = bloch_vector(state)
    n_i = unit_vector(axis_i)
    dot_m = st * cp * m[0] + st * sp * m[1] + ct * m[2]
    dot_i = st * cp * n_i[0] + st * sp * n_i[1] + ct * n_i[2]
    p_up = np.clip(0.5 * (1.0 + dot_m), 0.0, 1.0)
    s_f_grid = _binary_entropy_grid(p_up, base)
    s_up_grid = _binary_entropy_grid(np.clip(0.5 * (1.0 + dot_i), 0.0, 1.0), base)
    return thetas, phis, p_up, s_f_grid, s_up_grid, dot_i


def _oracle_grid(grid, constraint_tol: float, exclude: float | None) -> tuple[int, int]:
    """Validated (n_theta, n_phi) of an oracle search; raises ValueError."""
    n_theta, n_phi = int(grid[0]), int(grid[1])
    if n_theta < 8 or n_phi < 8:
        raise ValueError(f"grid must be at least 8x8, got {n_theta}x{n_phi}")
    if not constraint_tol > 0.0:
        raise ValueError(f"constraint_tol must be positive, got {constraint_tol!r}")
    if exclude is not None and not exclude > 0.0:
        raise ValueError(f"exclusion radius must be positive, got {exclude!r}")
    return n_theta, n_phi


def brute_force_oracle(
    state: PureState,
    axis_i: Axis,
    grid: tuple[int, int] = (400, 800),
    constraint_tol: float = 5e-3,
    exclude: float | None = None,
    *,
    base: float = math.e,
    eigen_tol: float = DEFAULT_ATOL,
) -> tuple[Axis, float]:
    """Exhaustively scan a (theta_f, phi_f) grid for the feasible minimum.

    Grid points violating |constraint_residual| <= constraint_tol are
    dropped; with `exclude` set, points within that angular radius of the
    measured axis or its antipode are dropped too.  Returns the surviving
    point of least s_up; ties resolve to the first point in row-major order,
    so the scan is deterministic no matter how it is scheduled.
    """
    n_theta, n_phi = _oracle_grid(grid, constraint_tol, exclude)
    p_i = _collapse_probability(state, axis_i, eigen_tol)
    thetas, phis, _p_up, s_f_grid, objective, dot_i = _entropy_grid(
        state, axis_i, n_theta, n_phi, base
    )
    keep = np.abs(s_f_grid - binary_entropy(p_i, base)) <= constraint_tol
    if exclude is not None:
        # angle to the nearer of the two trivial directions
        separation = np.arccos(np.clip(np.abs(dot_i), -1.0, 1.0))
        keep &= separation > exclude
    if not keep.any():
        raise InfeasibleGridError(
            f"no grid point satisfies |residual| <= {constraint_tol!r} on a "
            f"{n_theta}x{n_phi} grid; refine the grid or loosen the tolerance"
        )

    flat = int(np.where(keep, objective, np.inf).argmin())
    i, j = divmod(flat, n_phi)
    return Axis(float(thetas[i]), float(phis[j])), float(objective[i, j])


def azimuth_descent(
    state: PureState,
    axis_i: Axis,
    level: int,
    psi0: float,
    *,
    base: float = math.e,
    tol: float = 1e-10,
    max_iter: int = 200,
    eigen_tol: float = DEFAULT_ATOL,
) -> tuple[float, float]:
    """Projected descent of s_up along one feasible circle's azimuth.

    A numeric cross-check of the in-plane claim: from any start the descent
    settles at psi = 0 or psi = pi (mod 2*pi).  Returns (psi, objective) at
    the converged point; `tol` bounds the final azimuth gradient.
    """
    geometry = _geometry(state, axis_i, eigen_tol)
    _p, _m, _n_i, cosb, sinb, _e1, _e2 = geometry
    colatitudes = _circles(*geometry).colatitudes
    if not 0 <= level < len(colatitudes):
        raise ValueError(
            f"level must lie in [0, {len(colatitudes) - 1}] for this pair "
            f"({len(colatitudes)} feasible circle(s)), got {level!r}"
        )
    alpha = colatitudes[level]
    a = math.cos(alpha) * cosb
    b = math.sin(alpha) * sinb
    log_base = 1.0 if base == math.e else math.log(base)

    def value(psi: float) -> float:
        return binary_entropy(
            min(1.0, max(0.0, 0.5 * (1.0 + a + b * math.cos(psi)))), base
        )

    def gradient(psi: float) -> float:
        p = 0.5 * (1.0 + a + b * math.cos(psi))
        if p <= 0.0 or p >= 1.0:
            return 0.0  # the vanishing circle speed beats the log divergence
        return -0.5 * b * math.sin(psi) * math.log((1.0 - p) / p) / log_base

    psi = psi0 % (2.0 * math.pi)
    v = value(psi)
    for _ in range(max_iter):
        g = gradient(psi)
        if abs(g) <= tol:
            break
        step = 1.0
        while step > 1e-20:
            cand = (psi - step * g) % (2.0 * math.pi)
            cv = value(cand)
            if cv <= v - 0.5 * step * g * g:
                break
            step *= 0.5
        else:
            break  # no decrease left at float resolution: psi is converged
        psi, v = cand, cv
    return psi, v
