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

from .entropy import _binary_entropy, _check_base, _dot_entropy, binary_entropy, s_i
from .spin import (
    DEFAULT_ATOL,
    Axis,
    PureState,
    _bloch_xyz,
    _born_frame,
    _dot3,
    _integer,
    _unit_xyz,
    _xyz_angles,
    antipode,
    axis_from_vector,
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

_DESCENT_TOL = 1e-10
_DESCENT_MAX_ITER = 200


class NoCollapseError(Exception):
    """The state is an eigenstate of the measured projection: the outcome is
    certain, the axis cannot change, and the constrained problem degenerates."""


class InfeasibleGridError(Exception):
    """No grid point meets the entropy constraint at this resolution, or the
    oracle's exclusion removed every one that does."""


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
        a = _colatitude(self.colatitudes, level)
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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_eigen_tol(eigen_tol: float) -> None:
    if not eigen_tol >= 0.0:
        raise ValueError(f"eigen_tol must be non-negative, got {eigen_tol!r}")
    # min(p, 1 - p) never exceeds 1/2, so such a tolerance calls every state
    # an eigenstate of every axis
    if eigen_tol >= 0.5:
        raise ValueError(
            f"eigen_tol must be below 1/2, got {eigen_tol!r}: at 1/2 or above "
            "every state counts as an eigenstate"
        )


def _collapse_frame(state: PureState, axis_i: Axis, n_i: tuple, eigen_tol: float):
    """p_i, m, cos(beta) = n_i . m and the eigenstate weights c2 and s2 of
    axis_i, where n_i is `_unit_xyz(axis_i)`; raises NoCollapseError on
    eigenstates.  The caller has checked `eigen_tol`.

    p_i, m, c2 and s2 come from one `_born_frame` call, bit for bit
    `born_up`, `_bloch_xyz` and the rho of `state_from_eigenvector(axis_i,
    +1)` and `(axis_i, -1)`.  The eigenstate test includes n_i . m rounding
    to +-1: p_i cleared the eigenstate tolerance, but at float resolution
    the Bloch vector lies on the axis and no circle exists.  m and n_i are
    float triples and n_i . m is `_dot3`, the plain float sum, so every byte
    downstream is the same on any BLAS build.

    Both tests compare instead of calling `min` and `max`.  p is in [0, 1],
    so p <= tol or 1 - p <= tol is min(p, 1 - p) <= tol; a dot outside
    (-1, 1) is reported clamped to +-1, and a NaN one as -1.0.
    """
    p, m, c2, s2 = _born_frame(state, axis_i)
    if p <= eigen_tol or 1.0 - p <= eigen_tol:
        raise NoCollapseError(
            f"state is an eigenstate of the measured axis (born probability {p!r})"
        )
    cosb = _dot3(n_i, m)
    if not -1.0 < cosb < 1.0:
        cosb = 1.0 if cosb >= 1.0 else -1.0
        raise NoCollapseError(
            f"state is an eigenstate of the measured axis at float resolution "
            f"(n_i . m = {cosb!r}, born probability {p!r})"
        )
    return p, m, cosb, c2, s2


def _merged(cosb: float) -> bool:
    """Whether the two levels merge into one great circle (p_i = 1/2)."""
    return abs(cosb) <= DEFAULT_ATOL


def _mirror(m: tuple, n_i: tuple, cosb: float) -> tuple[float, float, float]:
    """r = 2 cos(beta) m - n_i on floats: the reflection of -n_i about m.

    `solve` and a reflective step (`simulate._walk`, which calls it through
    this module) both build the mirror here.  The mirrors +-r give the same
    spin-projection operator up to sign, so they are one measurement with
    the outcome labels swapped; a step takes r rather than the smaller of
    the two in some frame, which keeps a trajectory covariant under
    rotations of the frame."""
    c = 2.0 * cosb
    (mx, my, mz), (nx, ny, nz) = m, n_i
    return c * mx - nx, c * my - ny, c * mz - nz


def _circles(p: float, cosb: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Level probabilities and circle colatitudes for p_i and cos(beta)."""
    beta = math.acos(cosb)
    if _merged(cosb):
        return (p,), (beta,)
    return (p, 1.0 - p), (beta, math.pi - beta)


def _colatitude(colatitudes: tuple[float, ...], level: int) -> float:
    """The colatitude of circle `level`; raises ValueError for anything but an
    integer (`_integer`) index of a circle."""
    k = _integer(level)
    if k is None or not 0 <= k < len(colatitudes):
        raise ValueError(
            f"level must lie in [0, {len(colatitudes) - 1}] for this pair "
            f"({len(colatitudes)} feasible circle(s)), got {level!r}"
        )
    return colatitudes[k]


def feasible_set(
    state: PureState, axis_i: Axis, *, eigen_tol: float = DEFAULT_ATOL
) -> FeasibleSet:
    """Level probabilities and circles of axes satisfying the constraint."""
    _check_eigen_tol(eigen_tol)
    n_i = _unit_xyz(axis_i)
    p, m, cosb, _c2, _s2 = _collapse_frame(state, axis_i, n_i, eigen_tol)
    levels, colatitudes = _circles(p, cosb)
    # the circle frame: e1 toward n_i in the plane of m and n_i, e2 = m x e1
    (mx, my, mz), (nx, ny, nz) = m, n_i
    e1 = nx - cosb * mx, ny - cosb * my, nz - cosb * mz
    norm = math.sqrt(_dot3(e1, e1))
    ux, uy, uz = e1[0] / norm, e1[1] / norm, e1[2] / norm
    e2 = my * uz - mz * uy, mz * ux - mx * uz, mx * uy - my * ux
    return FeasibleSet(
        levels, colatitudes, np.array(m), np.array((ux, uy, uz)), np.array(e2)
    )


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
    _check_mode(mode)
    _check_base(base)
    _check_eigen_tol(eigen_tol)
    n_i = _unit_xyz(axis_i)
    try:
        _p, m, cosb, _c2, _s2 = _collapse_frame(state, axis_i, n_i, eigen_tol)
    except NoCollapseError:
        ext = (Extremum(axis_i, 0.0, "min"),)
        return SolverSolution((axis_i,), 0.0, ext, True, mode)

    cos2b = 2.0 * cosb * cosb - 1.0
    mirror_value = _dot_entropy(cos2b, base)
    trivial = (axis_i, antipode(axis_i))
    extrema = [Extremum(axis, 0.0, "min") for axis in trivial]
    if _merged(cosb):
        # the mirrors coincide with the trivial pair: two critical points, not four
        mirrors = trivial
    else:
        rx, ry, rz = _mirror(m, n_i, cosb)
        mirrors = Axis(*_xyz_angles(rx, ry, rz)), Axis(*_xyz_angles(-rx, -ry, -rz))
        kind = "min" if cos2b < 0.0 else "max"
        extrema += [Extremum(axis, mirror_value, kind) for axis in mirrors]
    # a mirror can round to n_i's angles (at eigen_tol=0); value and kind then
    # decide the order
    extrema.sort(key=lambda e: ((e.axis.theta, e.axis.phi), e.value, e.kind))
    strict = mode == "strict"
    minimizers = tuple(sorted(trivial if strict else mirrors, key=lambda a: (a.theta, a.phi)))
    objective = 0.0 if strict else mirror_value
    return SolverSolution(minimizers, objective, tuple(extrema), False, mode)


def _grid(n_theta: int, n_phi: int):
    """The (theta_f, phi_f) grid of candidate axes and its trig (for `_grid_dot`).

    The trig is exactly antipodal.  Row n_theta - 1 - i takes sin and -cos
    of row i, the middle row of an odd n_theta has cos 0, and with an even
    n_phi column k + n_phi/2 takes -cos and -sin of column k.  So both pole
    rows have sin exactly 0, and `_grid_dot` at the antipode of a grid point
    is the exact negation of its value there.  The angles themselves are the
    linspace values, as printed.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    st, ct, cp, sp = np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis)
    rows = n_theta // 2
    st[n_theta - rows:] = st[:rows][::-1]
    ct[n_theta - rows:] = -ct[:rows][::-1]
    if n_theta % 2 and rows:
        ct[rows] = 0.0
    if n_phi % 2 == 0:
        cols = n_phi // 2
        cp[cols:], sp[cols:] = -cp[:cols], -sp[:cols]
    return thetas, phis, (st, ct, cp, sp)


def _grid_dot(v, trig) -> np.ndarray:
    """v . n_f from the four trig arrays (sin, cos theta_f; cos, sin phi_f).

    The arrays broadcast as given: rows as a column against 1-D columns give
    the whole grid, and gathers at the same points give those points.  The
    elementwise products are the same either way, so a point's value does
    not depend on which shape computed it.
    """
    st, ct, cp, sp = trig
    return st * cp * v[0] + st * sp * v[1] + ct * v[2]


def _binary_entropy_grid(dot: np.ndarray, base: float = math.e) -> np.ndarray:
    """Vectorized `binary_entropy` of the up-probability (1 + dot)/2.

    Built from |dot|, hi = min((1 + |dot|)/2, 1) and lo = 1 - hi, so it is
    even in dot bit for bit: the entropy at n_f and at -n_f is one float.
    """
    hi = np.minimum(0.5 * (1.0 + np.abs(dot)), 1.0)
    lo = 1.0 - hi
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(lo > 0.0, -lo * np.log(lo), 0.0) - hi * np.log(hi)
    return h if base == math.e else h / math.log(base)


def _entropy_grid(
    state: PureState, axis_i: Axis, n_theta: int, n_phi: int, base: float
):
    """Entropy surfaces over a (theta_f, phi_f) grid of candidate axes.

    Returns the grid coordinates, the up-probability grid p_f (clipped to
    [0, 1]), its entropy s_f, the constraint residual s_f - s_i and the
    transfer entropy s_up.  The grid is exactly antipodal (`_grid`) and the
    entropies even, so s_f, the residual and s_up are bit-equal at a grid
    point and at its antipode.
    """
    thetas, phis, (st, ct, cp, sp) = _grid(n_theta, n_phi)
    trig = st[:, None], ct[:, None], cp, sp
    dot = _grid_dot(_bloch_xyz(state), trig)
    s_f = _binary_entropy_grid(dot, base)
    s_up = _binary_entropy_grid(_grid_dot(_unit_xyz(axis_i), trig), base)
    p_up = np.clip(0.5 * (1.0 + dot), 0.0, 1.0)
    return thetas, phis, p_up, s_f, s_f - s_i(state, axis_i, base), s_up


# the band prefilter's slack in entropy and in n_f . m (float error is ~1e-16)
_BAND_SLACK = 1e-9


def _band_candidates(m: tuple, level: float, constraint_tol: float,
                     base: float, trig):
    """Row-major (rows, cols) of a superset of the band |s_f - level| <= tol.

    binary_entropy rises on [0, 1/2]: bisection brackets q = min(p_f, 1 - p_f)
    at the band's edges, which bounds n_f . m to two intervals.  On row theta,
    n_f . m = A cos(phi - phi_m) + B with A = sin(theta) hypot(m_x, m_y) and
    B = cos(theta) m_z, so an interval meets the row in at most two arcs, each
    widened by one column; a row with A below the slack is taken whole.
    """
    def edge(h: float, upper: bool) -> float:  # outer end of q's bracket
        if h <= 0.0 or h >= _binary_entropy(0.5, base):
            return 0.5 if upper else 0.0
        lo, hi = 0.0, 0.5
        for _ in range(32):  # brackets q to 1.2e-10, inside the slack
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _binary_entropy(mid, base) < h else (lo, mid)
        return hi if upper else lo

    q_lo = edge(level - constraint_tol - _BAND_SLACK, False)
    q_hi = edge(level + constraint_tol + _BAND_SLACK, True)
    # p_f near 0 and near 1; the intervals join when the band reaches H(1/2)
    lows = np.array([2.0 * q_lo - 1.0, 1.0 - 2.0 * q_hi]) - _BAND_SLACK
    highs = np.array([2.0 * q_hi - 1.0, 1.0 - 2.0 * q_lo]) + _BAND_SLACK
    st, ct, cp, _sp = trig
    n_theta, n_phi = st.size, cp.size
    a = st[:, None] * math.hypot(m[0], m[1])
    b = ct[:, None] * m[2]
    hit = np.tile((b - a <= highs) & (b + a >= lows), 2)  # four arcs a row
    flat = hit & (a <= _BAND_SLACK)
    a = np.where(a > _BAND_SLACK, a, 1.0)
    alpha1 = np.arccos(np.clip((highs - b) / a, -1.0, 1.0))
    alpha2 = np.arccos(np.clip((lows - b) / a, -1.0, 1.0))
    # the arcs phi_m + [alpha1, alpha2] and phi_m - [alpha2, alpha1], in columns
    step = 2.0 * math.pi / n_phi
    center = math.atan2(m[1], m[0]) / step
    first = np.ceil(np.hstack([center + alpha1 / step, center - alpha2 / step])) - 1
    last = np.floor(np.hstack([center + alpha2 / step, center - alpha1 / step])) + 1
    length = np.where(flat, n_phi, np.clip(last - first + 1, 0, n_phi) * hit)
    first, length = first.astype(np.intp).ravel(), length.astype(np.intp).ravel()
    # mark every arc's columns; the mask reads back in row-major order
    row = np.repeat(np.arange(4 * n_theta) // 4, length)
    col = np.repeat(first - np.cumsum(length) + length, length) + np.arange(length.sum())
    mask = np.zeros(n_theta * n_phi, dtype=bool)
    mask[row * n_phi + col % n_phi] = True
    return np.divmod(np.flatnonzero(mask), n_phi)


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
    so the scan is deterministic no matter how it is scheduled.  With no
    survivor, `InfeasibleGridError` reports an empty band, or names the
    radius when the exclusion removed every band point.  The trig is gathered
    once, at the superset of the band that `_band_candidates` gives, and the
    masked argmin of s_up there is bit-equal to one over every point.
    """
    # the search flags come before the eigenstate check: the CLI relies on it
    try:  # `_integer`, not int: a size of 8.9 is an error, not 8
        n_theta, n_phi = map(_integer, grid)
    except (TypeError, ValueError):  # not iterable, or not two sizes
        n_theta = n_phi = None
    if n_theta is None or n_phi is None:
        raise ValueError(f"grid must be two integer sizes, got {grid!r}")
    if n_theta < 8 or n_phi < 8:
        raise ValueError(f"grid must be at least 8x8, got {n_theta}x{n_phi}")
    if not constraint_tol > 0.0:
        raise ValueError(f"constraint_tol must be positive, got {constraint_tol!r}")
    if exclude is not None and not exclude > 0.0:
        raise ValueError(f"exclusion radius must be positive, got {exclude!r}")
    _check_base(base)
    _check_eigen_tol(eigen_tol)
    n_i = _unit_xyz(axis_i)
    p_i, m, _cosb, _c2, _s2 = _collapse_frame(state, axis_i, n_i, eigen_tol)
    thetas, phis, trig = _grid(n_theta, n_phi)
    level = _binary_entropy(p_i, base)
    rows, cols = _band_candidates(m, level, constraint_tol, base, trig)
    st, ct, cp, sp = trig
    near = st[rows], ct[rows], cp[cols], sp[cols]  # gathered once, for both dots
    dot_m, dot_i = _grid_dot(m, near), _grid_dot(n_i, near)
    del near  # so that the entropies' temporaries do not pile onto it
    # the band, decided exactly at the prefilter's candidates
    kept = np.abs(_binary_entropy_grid(dot_m, base) - level) <= constraint_tol
    if not kept.any():
        raise InfeasibleGridError(
            f"no grid point satisfies |residual| <= {constraint_tol!r} on a "
            f"{n_theta}x{n_phi} grid; refine the grid or loosen the tolerance"
        )
    if exclude is not None:
        # angle to the nearer of the two trivial directions
        kept &= np.arccos(np.minimum(np.abs(dot_i), 1.0)) > exclude
        if not kept.any():
            raise InfeasibleGridError(
                f"every grid point with |residual| <= {constraint_tol!r} on a "
                f"{n_theta}x{n_phi} grid lies within the exclusion radius "
                f"{exclude!r} of the measured axis or its antipode; lower the radius"
            )
    s_up = _binary_entropy_grid(dot_i, base)
    k = int(np.where(kept, s_up, np.inf).argmin())
    return Axis(float(thetas[rows[k]]), float(phis[cols[k]])), float(s_up[k])


def azimuth_descent(
    state: PureState,
    axis_i: Axis,
    level: int,
    psi0: float,
    *,
    eigen_tol: float = DEFAULT_ATOL,
) -> tuple[float, float]:
    """Projected descent of s_up along one feasible circle's azimuth.

    A numeric cross-check of the in-plane claim: the descent settles within
    1e-6 of psi = 0 or psi = pi (mod 2*pi) from any start but a maximum of
    the objective, where the Born probability p_i lies in [0.02, 0.98] and
    the tilt beta between the Bloch vector and the axis (cos beta = 2 p_i - 1)
    lies at least 0.15 rad from pi/4 and 3*pi/4.  Elsewhere it can stop
    short: near those tilts the psi = pi critical point flattens, and on the
    small circles of a p_i near 0 or 1 the objective is flat at float
    resolution well before 0 or pi (at p_i = 0.0021, level 0 from
    psi0 = pi - 0.3 stops at psi = 0.0466).  Returns (psi, objective) at the
    converged point, the objective in nats.  The constant `_DESCENT_TOL`
    bounds the final azimuth gradient, and `_DESCENT_MAX_ITER` caps the
    number of steps.  The line search stops halving once a step is at most
    a quarter of psi's float spacing: psi - step * g then rounds to psi.
    """
    _check_eigen_tol(eigen_tol)
    p, _m, cosb, _c2, _s2 = _collapse_frame(state, axis_i, _unit_xyz(axis_i), eigen_tol)
    alpha = _colatitude(_circles(p, cosb)[1], level)
    if not math.isfinite(psi0):
        raise ValueError(f"psi0 must be finite, got {psi0!r}")
    a = math.cos(alpha) * cosb
    b = math.sin(alpha) * math.sqrt(1.0 - cosb * cosb)

    def value(psi: float) -> float:
        return binary_entropy(min(1.0, max(0.0, 0.5 * (1.0 + a + b * math.cos(psi)))))

    def gradient(psi: float) -> float:
        p = 0.5 * (1.0 + a + b * math.cos(psi))
        if p <= 0.0 or p >= 1.0:
            return 0.0  # the vanishing circle speed beats the log divergence
        return -0.5 * b * math.sin(psi) * math.log((1.0 - p) / p)

    psi = psi0 % (2.0 * math.pi)
    v = value(psi)
    for _ in range(_DESCENT_MAX_ITER):
        g = gradient(psi)
        if abs(g) <= _DESCENT_TOL:
            break
        step = 1.0
        while step * abs(g) > 0.25 * math.ulp(psi):
            cand = (psi - step * g) % (2.0 * math.pi)
            cv = value(cand)
            if cv <= v - 0.5 * step * g * g:
                break
            step *= 0.5
        else:
            break  # the step moves psi by under its float spacing: converged
        psi, v = cand, cv
    return psi, v
